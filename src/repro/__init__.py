"""LogTM-SE: signature-based hardware transactional memory, reproduced.

A cycle-level Python simulation of the HPCA-13 (2007) paper *"LogTM-SE:
Decoupling Hardware Transactional Memory from Caches"* (Yen et al.),
including every substrate the evaluation depends on: a discrete-event
simulation kernel, a 16-core CMP with SMT, private L1s and a banked shared
L2, a MESI directory protocol with LogTM sticky states (plus a
broadcast-snooping alternative), the Figure 3 signature designs, the
per-thread undo log and log filter, summary-signature virtualization, a
lock-based baseline, and the five evaluated workloads.

Quick start::

    from repro import SystemConfig, SignatureKind, run_workload
    from repro.workloads import BerkeleyDB

    cfg = SystemConfig.default().with_signature(SignatureKind.BIT_SELECT,
                                                bits=2048)
    result = run_workload(cfg, BerkeleyDB(num_threads=32))
    print(result.cycles, result.commits, result.aborts)
"""

import importlib

#: Each re-exported name and the module that defines it. The package
#: imports a module on first use of one of its names, so ``import
#: repro.svc.client`` (or any other light submodule) loads no simulator.
_EXPORTS = {
    "CacheConfig": "repro.common.config",
    "CoherenceStyle": "repro.common.config",
    "LockImpl": "repro.common.config",
    "SignatureConfig": "repro.common.config",
    "SignatureKind": "repro.common.config",
    "SyncMode": "repro.common.config",
    "SystemConfig": "repro.common.config",
    "TMConfig": "repro.common.config",
    "figure4_variants": "repro.common.config",
    "AbortTransaction": "repro.common.errors",
    "ConfigError": "repro.common.errors",
    "ReproError": "repro.common.errors",
    "SimulationError": "repro.common.errors",
    "TransactionError": "repro.common.errors",
    "WorkloadError": "repro.common.errors",
    "ConfidenceInterval": "repro.common.stats",
    "StatsRegistry": "repro.common.stats",
    "RunResult": "repro.harness.runner",
    "run_workload": "repro.harness.runner",
    "SweepExecutionError": "repro.harness.sweep",
    "SweepResult": "repro.harness.sweep",
    "run_sweep": "repro.harness.sweep",
    "System": "repro.harness.system",
    "make_rw_pair": "repro.signatures.factory",
    "make_signature": "repro.signatures.factory",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]
