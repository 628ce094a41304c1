"""Parameter sweeps: run a workload across a family of configurations.

The evaluation and its ablations are all "one workload x many configs"
grids; this module gives that pattern one tested implementation, used by
the benchmark harness, the CLI, and downstream users sizing their own
design points.

``run_sweep`` executes serially by default (``jobs=1``) and is then
byte-for-byte the historical implementation; ``jobs>1`` — or passing a
result store (``cache=``, a :class:`~repro.svc.repository.RunRepository`)
— routes through the parallel engine in :mod:`repro.harness.parallel`,
which returns an equal ``SweepResult`` (cells are independent,
deterministic functions of ``(config, workload, seed)``) annotated with
execution metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.common.config import SignatureKind, SystemConfig
from repro.common.rng import DEFAULT_SEED
from repro.harness.report import render_table
from repro.harness.runner import RunResult, run_workload
from repro.workloads.base import Workload

#: A config variant: label plus the configuration to run.
Variant = Tuple[str, SystemConfig]


@dataclass
class SweepResult:
    """All runs of one sweep, keyed by variant label.

    ``meta`` (parallel/cached sweeps only) holds execution metadata —
    per-variant wall time, cache hit flags, attempt counts, batch wall
    time — and is excluded from equality: a cached re-run compares equal
    to the run that populated the cache.
    """

    results: Dict[str, RunResult] = field(default_factory=dict)
    baseline_label: Optional[str] = None
    meta: Optional[Dict[str, Any]] = field(default=None, compare=False,
                                           repr=False)

    def cycles(self, label: str) -> int:
        return self.results[label].cycles

    def speedup(self, label: str) -> float:
        """Speedup of a variant relative to the sweep's baseline."""
        if self.baseline_label is None:
            raise ValueError("sweep has no baseline variant")
        return self.results[self.baseline_label].cycles / max(
            self.results[label].cycles, 1)

    def labels(self) -> List[str]:
        return list(self.results)

    def table(self, title: str = "Sweep") -> str:
        rows = []
        for label, result in self.results.items():
            row = [label, result.cycles, result.commits, result.aborts,
                   result.stalls,
                   round(result.false_positive_pct, 1)]
            if self.baseline_label is not None:
                row.append(round(self.speedup(label), 3))
            rows.append(tuple(row))
        headers = ["Variant", "Cycles", "Commits", "Aborts", "Stalls",
                   "FP %"]
        if self.baseline_label is not None:
            headers.append(f"Speedup vs {self.baseline_label}")
        return render_table(headers, rows, title=title)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe record of the whole sweep (results + ``meta``)."""
        out: Dict[str, Any] = {
            "baseline_label": self.baseline_label,
            "results": {label: result.to_dict()
                        for label, result in self.results.items()},
        }
        if self.meta is not None:
            out["meta"] = self.meta
        return out

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "SweepResult":
        """Inverse of :meth:`to_dict`."""
        sweep = SweepResult(baseline_label=data.get("baseline_label"))
        for label, record in dict(data["results"]).items():
            sweep.results[label] = RunResult.from_dict(record)
        sweep.meta = data.get("meta")
        return sweep


def run_sweep(variants: Iterable[Variant],
              workload_factory: Callable[[], Workload],
              seed: int = DEFAULT_SEED,
              baseline_label: Optional[str] = None,
              jobs: Optional[int] = 1,
              cache=None,
              timeout: Optional[float] = None,
              retries: int = 1,
              trace_dir: Optional[str] = None,
              verify: object = False,
              retry_timeouts: bool = False) -> SweepResult:
    """Run the factory's workload under every variant configuration.

    ``jobs=1`` with no cache/timeout is the exact serial implementation.
    ``jobs>1`` (or ``jobs=None``/``0`` for one worker per CPU), a
    ``cache`` (the result store, a
    :class:`repro.svc.repository.RunRepository`), or a per-cell
    ``timeout`` route through the parallel engine, which returns an equal
    ``SweepResult`` plus execution metadata in ``.meta``. ``retries``
    bounds relaunches after a worker crash (parallel engine only).
    ``trace_dir`` writes per-variant observability artifacts (Chrome trace
    JSON + JSONL) into that directory; it routes through the parallel
    engine and disables the store (stored hits produce no artifacts).
    ``verify`` attaches the correctness checkers to every cell (see
    :func:`repro.harness.runner.run_workload`); findings land on each
    cell's ``RunResult.verify_violations`` and are part of the stored
    record (the cell key includes the verify mode).
    ``retry_timeouts`` relaunches timed-out cells against the ``retries``
    budget instead of failing them outright (parallel engine only; see
    :func:`repro.harness.parallel.execute_tasks`).
    """
    if (jobs != 1 or cache is not None or timeout is not None
            or trace_dir is not None):
        from repro.harness.parallel import run_parallel_sweep
        return run_parallel_sweep(variants, workload_factory, seed=seed,
                                  baseline_label=baseline_label, jobs=jobs,
                                  cache=cache, timeout=timeout,
                                  retries=retries, trace_dir=trace_dir,
                                  verify=verify,
                                  retry_timeouts=retry_timeouts)
    sweep = SweepResult(baseline_label=baseline_label)
    for label, cfg in variants:
        if label in sweep.results:
            raise ValueError(f"duplicate variant label {label!r}")
        sweep.results[label] = run_workload(
            cfg, workload_factory(), seed=seed, config_label=label,
            verify=verify)
    if baseline_label is not None and baseline_label not in sweep.results:
        raise ValueError(f"baseline {baseline_label!r} not in sweep")
    return sweep


def signature_size_variants(kind: SignatureKind,
                            sizes: Sequence[int],
                            base: Optional[SystemConfig] = None,
                            granularity: int = 1024) -> List[Variant]:
    """BS_64-style size series for one signature design."""
    base = base or SystemConfig.default()
    out: List[Variant] = []
    for bits in sizes:
        cfg = base.with_signature(kind, bits=bits, granularity=granularity)
        out.append((cfg.tm.signature.describe(), cfg))
    return out


def signature_design_variants(bits: int,
                              base: Optional[SystemConfig] = None
                              ) -> List[Variant]:
    """All realistic designs at one size (plus perfect as reference)."""
    base = base or SystemConfig.default()
    return [
        ("Perfect", base.with_signature(SignatureKind.PERFECT)),
        (f"BS_{bits}", base.with_signature(SignatureKind.BIT_SELECT,
                                           bits=bits)),
        (f"DBS_{bits}", base.with_signature(
            SignatureKind.DOUBLE_BIT_SELECT, bits=bits)),
        (f"CBS_{bits}", base.with_signature(
            SignatureKind.COARSE_BIT_SELECT, bits=bits, granularity=1024)),
        (f"H4_{bits}", base.with_signature(SignatureKind.HASHED,
                                           bits=bits)),
    ]
