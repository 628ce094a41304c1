"""Workload runner: executes a workload on a system and collects results.

``run_workload`` is the harness's single entry point: build a machine from a
config, place one hardware context per workload thread, execute every
thread's program to completion, and return cycles + statistics. The paper's
throughput metric is "units of work per unit time"; with a fixed amount of
work per run, *total cycles* is the inverse metric and speedup is a cycle
ratio.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.events import Event

from repro.common.config import DEFAULT_CYCLE_LIMIT, SyncMode, SystemConfig
from repro.common.rng import DEFAULT_SEED, make_rng
from repro.common.stats import Histogram
from repro.cpu.executor import ThreadExecutor
from repro.harness.system import System
from repro.workloads.base import Workload


@dataclass
class RunResult:
    """Everything measured in one simulation run."""

    workload: str
    config_label: str
    cycles: int
    units: int
    counters: Dict[str, int]
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    system: Optional[System] = None
    #: Observability events captured during the run (``trace=True``); not
    #: part of equality or the JSON record — use the exporters in
    #: :mod:`repro.obs.export` to persist them.
    events: Optional[List[Event]] = field(default=None, compare=False,
                                          repr=False)
    #: Checkers that ran when ``verify`` was requested (empty otherwise,
    #: or when the config disables verification — e.g. lazy mode).
    verify_checks_run: List[str] = field(default_factory=list)
    #: JSON-safe records of every violation the checkers found.
    verify_violations: List[Dict] = field(default_factory=list)
    #: The full report object (not serialized, not compared).
    verify_report: Optional[object] = field(default=None, compare=False,
                                            repr=False)

    @property
    def commits(self) -> int:
        return self.counters.get("tm.commits", 0)

    @property
    def aborts(self) -> int:
        return self.counters.get("tm.aborts", 0)

    @property
    def aborts_true_conflict(self) -> int:
        """Outer aborts attributed to a real data conflict."""
        return self.counters.get("tm.aborts.true_conflict", 0)

    @property
    def aborts_false_positive(self) -> int:
        """Outer aborts attributed purely to signature aliasing."""
        return self.counters.get("tm.aborts.false_positive", 0)

    @property
    def stalls(self) -> int:
        return self.counters.get("tm.stalls", 0)

    @property
    def false_positive_pct(self) -> float:
        total = self.counters.get("tm.conflicts_total", 0)
        if not total:
            return 0.0
        return 100.0 * self.counters.get("tm.conflicts_false_positive", 0) / total

    @property
    def victimizations(self) -> int:
        return (self.counters.get("victimization.l1_tx", 0)
                + self.counters.get("victimization.l2_tx", 0))

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe record of this run (``system`` is never included).

        Carries the raw measurements (counters, histograms) plus the derived
        headline metrics so downstream tooling does not need to re-derive
        them; :meth:`from_dict` rebuilds an equal ``RunResult`` from it.
        """
        return {
            "workload": self.workload,
            "config_label": self.config_label,
            "cycles": self.cycles,
            "units": self.units,
            "commits": self.commits,
            "aborts": self.aborts,
            "aborts_true_conflict": self.aborts_true_conflict,
            "aborts_false_positive": self.aborts_false_positive,
            "stalls": self.stalls,
            "false_positive_pct": self.false_positive_pct,
            "victimizations": self.victimizations,
            "counters": dict(self.counters),
            "histograms": {name: hist.to_dict()
                           for name, hist in sorted(self.histograms.items())},
            "verify_checks_run": list(self.verify_checks_run),
            "verify_violations": [dict(v) for v in self.verify_violations],
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "RunResult":
        """Inverse of :meth:`to_dict` (derived metrics are recomputed)."""
        return RunResult(
            workload=str(data["workload"]),
            config_label=str(data["config_label"]),
            cycles=int(data["cycles"]),
            units=int(data["units"]),
            counters={str(k): int(v)
                      for k, v in dict(data["counters"]).items()},
            histograms={str(name): Histogram.from_dict(h)
                        for name, h in dict(data["histograms"]).items()},
            verify_checks_run=[str(c) for c in
                               data.get("verify_checks_run", [])],
            verify_violations=[dict(v) for v in
                               data.get("verify_violations", [])],
        )


def default_config_label(cfg: SystemConfig) -> str:
    """Label used when the caller does not name a config: the signature's
    table name for TM runs, ``"locks"`` for the lock baseline (whose
    signature config is irrelevant and would mislabel the run)."""
    if cfg.sync is SyncMode.LOCKS:
        return "locks"
    return cfg.tm.signature.describe()


def run_workload(cfg: SystemConfig, workload: Workload,
                 seed: int = DEFAULT_SEED,
                 cycle_limit: int = DEFAULT_CYCLE_LIMIT,
                 config_label: str = "",
                 keep_system: bool = False,
                 trace: bool = False,
                 trace_max_events: int = 1_000_000,
                 trace_kinds: Optional[List[str]] = None,
                 verify=False) -> RunResult:
    """Execute one workload to completion on a freshly built system.

    Threads start staggered over ``workload.start_skew`` cycles, and each
    entry of ``workload.final_state(system)`` becomes a ``final.<name>``
    counter.

    ``trace=True`` attaches an event bus + ring-buffer log for the run and
    returns the captured events on ``RunResult.events`` (``trace_kinds``
    restricts what is kept — exact kinds or whole namespaces like
    ``"tm"``). Tracing slows simulation; leave it off for measurement
    sweeps unless artifacts are wanted.

    ``verify`` attaches the correctness checkers of
    :mod:`repro.verify.checkers` (signature oracle, undo-log oracle,
    isolation shadow, serializability) and records their findings on
    ``RunResult.verify_checks_run`` / ``verify_violations``. Pass
    ``"strict"`` to raise :class:`repro.common.errors.VerificationError`
    on any violation instead of merely reporting it. Verification slows
    the run (it attaches the event bus); it never changes simulated
    cycle counts.
    """
    # Cyclic GC is paused for the whole cell: the event loop allocates
    # generators and heap entries at a rate that triggers frequent gen-0
    # collections, none of which find garbage the refcounter misses. The
    # finished machine is cyclic garbage (processes, cores and the fabric
    # point at one another). Built with GC paused, it is all still in the
    # youngest generation when the cell returns, so one generation-0
    # collection frees it at a cost that scales with the cell, not the
    # heap; left to automatic GC, finished machines pile up in older
    # generations. Results do not depend on when GC runs.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_cell(cfg, workload, seed, cycle_limit, config_label,
                         keep_system, trace, trace_max_events, trace_kinds,
                         verify)
    finally:
        if gc_was_enabled:
            gc.collect(0)
            gc.enable()


def _run_cell(cfg: SystemConfig, workload: Workload, seed: int,
              cycle_limit: int, config_label: str,
              keep_system: bool, trace: bool, trace_max_events: int,
              trace_kinds: Optional[List[str]], verify) -> RunResult:
    """Body of :func:`run_workload`, which owns the GC policy around it."""
    system = System(cfg, seed=seed)
    trace_log = None
    suite = None
    bus = None
    if trace:
        bus, trace_log = system.attach_bus(max_events=trace_max_events,
                                           kinds=trace_kinds)
    if verify:
        from repro.verify.checkers import VerificationSuite
        if bus is None:
            bus, _ = system.attach_bus(with_log=False)
        suite = VerificationSuite(system).attach(bus)
    threads = system.place_threads(workload.num_threads)
    procs = []
    executors: List[ThreadExecutor] = []

    def staggered(executor: ThreadExecutor, delay: int):
        if delay:
            yield delay
        result = yield from executor.run()
        return result

    for index, thread in enumerate(threads):
        rng = make_rng(seed, "workload", workload.name, index)
        sections = workload.program(index, rng)
        executor = ThreadExecutor(cfg, thread, system.manager,
                                  sections, rng, system.stats)
        executors.append(executor)
        skew = workload.start_skew
        delay = rng.randrange(skew) if skew else 0
        # A zero delay makes the wrapper a pure pass-through; spawning the
        # executor directly keeps one frame out of every resume chain.
        gen = staggered(executor, delay) if delay else executor.run()
        procs.append(system.sim.spawn(gen,
                                      name=f"{workload.name}.t{index}"))
    system.sim.run_until_done(procs, limit=cycle_limit)
    units = sum(e.units_done for e in executors)
    for name, value in workload.final_state(system).items():
        system.stats.counter(f"final.{name}").add(value)
    report = suite.finish() if suite is not None else None
    if report is not None and verify == "strict" and not report.ok:
        from repro.common.errors import VerificationError
        raise VerificationError(report.summary())
    return RunResult(
        workload=workload.name,
        config_label=config_label or default_config_label(cfg),
        cycles=system.sim.now,
        units=units,
        counters=system.stats.snapshot(),
        histograms=system.stats.histograms(),
        system=system if keep_system else None,
        events=trace_log.events() if trace_log is not None else None,
        verify_checks_run=list(report.checks_run) if report else [],
        verify_violations=[v.to_dict() for v in report.violations]
        if report else [],
        verify_report=report,
    )

