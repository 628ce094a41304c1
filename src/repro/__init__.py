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

from repro.common.config import (
    CacheConfig,
    CoherenceStyle,
    LockImpl,
    SignatureConfig,
    SignatureKind,
    SyncMode,
    SystemConfig,
    TMConfig,
    figure4_variants,
)
from repro.common.errors import (
    AbortTransaction,
    ConfigError,
    ReproError,
    SimulationError,
    TransactionError,
    WorkloadError,
)
from repro.common.stats import ConfidenceInterval, StatsRegistry
from repro.harness.runner import RunResult, run_workload
from repro.harness.sweep import SweepExecutionError, SweepResult, run_sweep
from repro.harness.system import System
from repro.signatures.factory import make_rw_pair, make_signature

__version__ = "1.0.0"

__all__ = [
    "AbortTransaction",
    "CacheConfig",
    "CoherenceStyle",
    "ConfidenceInterval",
    "LockImpl",
    "ConfigError",
    "ReproError",
    "RunResult",
    "SignatureConfig",
    "SignatureKind",
    "SimulationError",
    "StatsRegistry",
    "SweepExecutionError",
    "SweepResult",
    "SyncMode",
    "System",
    "SystemConfig",
    "TMConfig",
    "TransactionError",
    "WorkloadError",
    "figure4_variants",
    "make_rw_pair",
    "make_signature",
    "run_sweep",
    "run_workload",
    "__version__",
]
