"""Parameter sweeps: the one engine every grid of cells runs through.

The paper's evaluation artifacts are all grids of independent cells —
"one workload x many configs", or Figure 4's (workload, variant,
perturbed run) — and every cell is a deterministic function of
``(config, workload, seed)``. This module gives that pattern one tested
implementation, used by the experiments, the CLI, ``repro bench``, the
sweep service and downstream users sizing their own design points:

* :class:`Cell` is one cell as a plain value: a label, a config, a
  workload instance and the run knobs. :meth:`Cell.run` runs it wherever
  it is sent, and :attr:`Cell.key` is its content address, over ``(code
  version, config, workload, seed, label, cycle limit, verify mode)``.
* :func:`execute_tasks` runs a batch of named cells, in-process
  (``jobs=1``, no ``timeout``) or on a
  :class:`~repro.harness.fleet.WorkerFleet`, with a per-cell wall-clock
  ``timeout`` and retry-on-worker-crash. A cell that fails is recorded
  and its siblings keep running; the error raised at the end
  (:class:`SweepExecutionError`) carries every completed result. Given a
  result store (``cache=``, a :class:`~repro.svc.repository.RunRepository`),
  re-running a batch — or resuming one that was interrupted — only
  executes the missing cells. Any change to the ``repro`` sources
  invalidates every stored result (the key embeds a hash of the package).
* :func:`run_sweep` runs one workload across a family of configurations
  and returns a :class:`SweepResult`: results in variant order, plus
  execution metadata in ``meta``.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Sequence, Tuple)

from repro.common.config import (DEFAULT_CYCLE_LIMIT, SignatureKind,
                                 SystemConfig)
from repro.common.errors import ReproError
from repro.common.rng import DEFAULT_SEED
from repro.harness.fleet import WorkerFleet
from repro.harness.report import render_table
from repro.harness.runner import RunResult, run_workload
from repro.workloads.base import Workload

if TYPE_CHECKING:  # the store lives in repro.svc, which pulls in sqlite3
    from repro.svc.repository import RunRepository

#: A config variant: label plus the configuration to run.
Variant = Tuple[str, SystemConfig]


class SweepExecutionError(ReproError):
    """One or more sweep cells failed; sibling results are preserved.

    ``completed`` maps cell name -> :class:`RunResult` for every cell that
    did finish; ``failures`` maps cell name -> human-readable reason.
    """

    def __init__(self, message: str,
                 completed: Optional[Dict[str, RunResult]] = None,
                 failures: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.completed = dict(completed or {})
        self.failures = dict(failures or {})


@dataclass
class SweepResult:
    """All runs of one sweep, keyed by variant label.

    ``meta`` holds execution metadata — per-variant wall time, store-hit
    flags, attempt counts, batch wall time — and is excluded from
    equality: a stored re-run compares equal to the run that populated
    the store. :func:`run_sweep` always sets it.
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


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Content hash of every ``.py`` file in the installed ``repro`` package.

    Used as the cell key's code component: any source change invalidates
    all stored results (conservative, but sweeps are cheap to re-run next
    to the cost of trusting a stale model). Computed once per process.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def workload_fingerprint(workload: Workload) -> str:
    """Cell-key component identifying a workload instance: class,
    ``describe()``, seed, and a hash of every instance attribute, where
    each constructor argument (or the layout built from it) lands."""
    cls = type(workload)
    state = hashlib.sha256(
        repr(sorted(vars(workload).items())).encode("utf-8")).hexdigest()
    return (f"{cls.__module__}.{cls.__qualname__}"
            f"|{workload.describe()}|seed={workload.seed}|{state}")


@dataclass(frozen=True)
class Cell:
    """One independent sweep cell: run ``workload`` under ``config``.

    A plain value that pickles, so a fleet worker is sent the cell itself.
    Running a workload never changes it, so one instance may back many
    cells. With ``trace_dir`` set, the cell runs traced and writes its
    trace artifacts (``<label>.trace.json`` Chrome trace +
    ``<label>.jsonl`` raw events) into that directory where it runs —
    events never travel through the result pipe or the store, and
    ``trace_dir`` is not part of :attr:`key`.
    """

    label: str                                # RunResult.config_label
    config: SystemConfig
    workload: Workload
    seed: int = DEFAULT_SEED
    cycle_limit: int = DEFAULT_CYCLE_LIMIT
    #: ``run_workload``'s ``verify`` argument (False / True / "strict").
    verify: object = False
    trace_dir: Optional[str] = None

    @property
    def key(self) -> str:
        """Content address of this cell: the result store's key.

        The SHA-256 of the canonical ``(code version, config repr,
        workload fingerprint, seed, label, cycle limit, verify mode)``
        tuple, so the CLI sweep and the service agree on it.
        """
        return self.key_with(workload_fingerprint(self.workload))

    def key_with(self, fingerprint: str) -> str:
        """:attr:`key`, given ``workload_fingerprint(self.workload)``.

        Cells that share one workload instance (a spec's grid) fingerprint
        it once instead of once per cell.
        """
        payload = "\n".join([code_version(), repr(self.config), fingerprint,
                             str(self.seed), self.label,
                             str(self.cycle_limit),
                             f"verify={self.verify!r}"])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def run(self) -> RunResult:
        """Run this cell and return a result that is safe to pickle.

        The in-process loop and every fleet worker, the service's
        included, run their cells here.
        """
        # perfbench/tracer.py::install_coarse wraps this global to time cells.
        result = run_workload(self.config, self.workload, seed=self.seed,
                              cycle_limit=self.cycle_limit,
                              config_label=self.label,
                              trace=self.trace_dir is not None,
                              verify=self.verify)
        # The report object holds live references into the simulated
        # system; the JSON-safe fields (checks_run, violations) already
        # carry the findings, so drop it before pickling into a pipe.
        result.verify_report = None
        if self.trace_dir is not None and result.events is not None:
            from repro.obs.export import export_chrome_trace, export_jsonl
            out = Path(self.trace_dir)
            out.mkdir(parents=True, exist_ok=True)
            stem = "".join(c if c.isalnum() or c in "-_." else "_"
                           for c in self.label)
            export_chrome_trace(result.events,
                                str(out / f"{stem}.trace.json"),
                                label=f"{result.workload} [{self.label}]")
            export_jsonl(result.events, str(out / f"{stem}.jsonl"))
            # Events stay on disk; shipping them through the result pipe
            # would cost far more than the run.
            result.events = None
        return result


@dataclass
class TaskOutcome:
    """How one cell finished: its result plus execution metadata."""

    key: str                   # the cell's name in its batch
    result: RunResult
    wall_time: float = 0.0     # seconds spent executing (0.0 for store hits)
    cached: bool = False
    attempts: int = 1          # worker dispatches consumed (0 for store hits)
    retries: int = 0           # relaunches after a worker crash (attempts-1)


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------

def resolve_jobs(jobs: Optional[int]) -> int:
    """``None``/``0`` means one worker per CPU; negative is rejected."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def execute_tasks(cells: Iterable[Tuple[str, Cell]],
                  jobs: Optional[int] = 1,
                  timeout: Optional[float] = None,
                  retries: int = 1,
                  cache: Optional[RunRepository] = None
                  ) -> Dict[str, TaskOutcome]:
    """Run every ``(name, cell)``; return outcomes by name, in batch order.

    * ``cache`` is the result store, used through ``load_run`` and
      ``store_run`` under each :attr:`Cell.key`. Store hits never reach a
      worker; when every cell is a hit, no worker process starts.
    * With ``jobs=1`` and no ``timeout`` the cells run in-process, one
      after another. Otherwise one :class:`WorkerFleet` of
      ``min(jobs, pending)`` workers runs the batch and is stopped when
      it ends.
    * A worker that dies without reporting (crash, OOM-kill) is replaced
      and its cell re-dispatched up to ``retries`` extra times. A cell
      exceeding ``timeout`` seconds is terminated and fails: a
      deterministic simulation that timed out once will time out again.
    * Failures do not abort the batch: remaining cells still run, then one
      :class:`SweepExecutionError` summarises every failure and carries the
      completed sibling results.
    """
    cells = list(cells)
    names = [name for name, _cell in cells]
    if len(set(names)) != len(names):
        raise ValueError("duplicate cell names in batch")
    jobs = resolve_jobs(jobs)
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")

    outcomes: Dict[str, TaskOutcome] = {}
    failures: Dict[str, str] = {}
    pending: List[Tuple[str, Cell, Optional[str]]] = []  # name, cell, key
    for name, cell in cells:
        store_key = None
        if cache is not None:
            store_key = cell.key
            result = cache.load_run(store_key)
            if result is not None:
                outcomes[name] = TaskOutcome(name, result, wall_time=0.0,
                                             cached=True, attempts=0)
                continue
        pending.append((name, cell, store_key))

    if pending:
        if jobs == 1 and timeout is None:
            _execute_inline(pending, cache, outcomes, failures)
        else:
            _execute_on_fleet(pending, jobs, timeout, retries, cache,
                              outcomes, failures)

    if failures:
        done = {name: out.result for name, out in outcomes.items()}
        detail = "; ".join(f"{name}: {reason.strip().splitlines()[-1]}"
                           for name, reason in failures.items())
        raise SweepExecutionError(
            f"{len(failures)} of {len(cells)} sweep cell(s) failed "
            f"({len(done)} completed): {detail}",
            completed=done, failures=failures)
    return {name: outcomes[name] for name in names}


def _execute_inline(pending, cache, outcomes, failures) -> None:
    """jobs=1 with no timeout: run in-process (no worker overhead)."""
    for name, cell, store_key in pending:
        start = time.perf_counter()
        try:
            result = cell.run()
        except Exception:
            failures[name] = traceback.format_exc()
            continue
        wall = time.perf_counter() - start
        outcomes[name] = TaskOutcome(name, result, wall_time=wall)
        if store_key is not None:
            cache.store_run(store_key, result)


def _execute_on_fleet(pending, jobs, timeout, retries, cache,
                      outcomes, failures) -> None:
    """Run the batch on its own fleet; retries and timeouts are decided here.

    Workers are sent the cells themselves, and each report is mapped back
    to its cell through the worker that ran it.
    """
    queue = list(pending)
    running: Dict[int, tuple] = {}        # worker id -> its pending entry
    attempts: Dict[str, int] = {}
    fleet = WorkerFleet(min(jobs, len(queue)))
    fleet.start()
    try:
        while queue or running:
            while queue:
                worker_id = fleet.dispatch(queue[0][1], timeout=timeout)
                if worker_id is None:
                    break
                entry = running[worker_id] = queue.pop(0)
                attempts[entry[0]] = attempts.get(entry[0], 0) + 1
            for message in fleet.poll(wait=0.05):
                entry = running.pop(message.worker_id)
                name, cell, store_key = entry
                tried = attempts[name]
                if message.kind == "done":
                    outcomes[name] = TaskOutcome(
                        name, message.result, wall_time=message.wall_time,
                        attempts=tried, retries=tried - 1)
                    if store_key is not None:
                        cache.store_run(store_key, message.result)
                elif message.kind == "error":
                    failures[name] = (f"variant {cell.label!r} raised in "
                                      f"worker:\n{message.error}")
                elif message.kind == "crashed":
                    if tried <= retries:
                        queue.append(entry)
                    else:
                        failures[name] = (
                            f"variant {cell.label!r}: worker crashed with "
                            f"exit code {message.exitcode} "
                            f"({tried} attempt(s))")
                else:  # timeout
                    failures[name] = (
                        f"variant {cell.label!r}: timed out after "
                        f"{timeout:g}s ({tried} attempt(s))")
    finally:
        fleet.stop()


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def run_sweep(variants: Iterable[Variant],
              workload_factory: Callable[[], Workload],
              seed: int = DEFAULT_SEED,
              baseline_label: Optional[str] = None,
              jobs: Optional[int] = 1,
              cache: Optional[RunRepository] = None,
              timeout: Optional[float] = None,
              retries: int = 1,
              trace_dir: Optional[str] = None,
              verify: object = False) -> SweepResult:
    """Run the factory's workload under every variant configuration.

    Duplicate labels and an unknown ``baseline_label`` raise
    ``ValueError`` before any cell runs. Each variant is one
    :class:`Cell`, with its own ``workload_factory()`` instance, of one
    :func:`execute_tasks` batch, so ``jobs``
    (``None``/``0``: one worker per CPU), ``timeout``, ``retries`` and
    ``cache`` (the result store, a
    :class:`repro.svc.repository.RunRepository`) mean what they mean
    there. Results are stored in variant order whatever the completion
    order, and ``SweepResult.meta`` records the execution: per-variant
    wall time, store-hit flags and attempt/retry counts, plus batch
    totals.
    ``trace_dir`` writes per-variant observability artifacts (Chrome trace
    JSON + JSONL) into that directory and disables the store (stored hits
    produce no artifacts).
    ``verify`` attaches the correctness checkers to every cell (see
    :func:`repro.harness.runner.run_workload`); findings land on each
    cell's ``RunResult.verify_violations`` and are part of the stored
    record (the cell key includes the verify mode).
    """
    variants = list(variants)
    labels = [label for label, _ in variants]
    duplicates = sorted(x for x, n in Counter(labels).items() if n > 1)
    if duplicates:
        raise ValueError(f"duplicate variant label {duplicates[0]!r}")
    if baseline_label is not None and baseline_label not in labels:
        raise ValueError(f"baseline {baseline_label!r} not in sweep")
    if trace_dir is not None:
        cache = None

    started = time.perf_counter()
    cells = [(label, Cell(label, cfg, workload_factory(), seed=seed,
                          verify=verify, trace_dir=trace_dir))
             for label, cfg in variants]
    outcomes = execute_tasks(cells, jobs=jobs, timeout=timeout,
                             retries=retries, cache=cache)
    wall = time.perf_counter() - started

    hits = sum(1 for o in outcomes.values() if o.cached)
    meta = {
        "jobs": resolve_jobs(jobs),
        "wall_time": wall,
        "cache": {"hits": hits, "misses": len(outcomes) - hits,
                  "enabled": cache is not None},
        "retries": sum(o.retries for o in outcomes.values()),
        "variants": {label: {"cached": outcomes[label].cached,
                             "wall_time": outcomes[label].wall_time,
                             "attempts": outcomes[label].attempts,
                             "retries": outcomes[label].retries}
                     for label in labels},
    }
    return SweepResult(
        results={label: outcomes[label].result for label in labels},
        baseline_label=baseline_label, meta=meta)


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
