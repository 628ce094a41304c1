"""Parallel sweep execution over the worker fleet, with a result store.

The paper's evaluation artifacts are all "one workload x many configs"
grids, and every cell is an independent, deterministic function of
``(config, workload, seed)``. This module exploits both properties:

* :func:`execute_tasks` fans :class:`RunTask` cells out over a
  :class:`~repro.harness.fleet.WorkerFleet` (``jobs`` workers), with a
  per-task wall-clock ``timeout`` and retry-on-worker-crash. A task that
  fails is recorded and its siblings keep running; the error raised at
  the end (:class:`SweepExecutionError`) carries every completed result.
  The fleet owns the worker processes; the retry and timeout policy
  lives here, above it.
* :func:`cell_key` is a cell's content address, over ``(code version,
  config, workload, seed, label, cycle limit, verify mode)``. Given a
  result store (``cache=``, a :class:`~repro.svc.repository.RunRepository`),
  re-running a sweep — or resuming one that was interrupted — only
  executes the missing cells. Any change to the ``repro`` sources
  invalidates every stored result (the key embeds a hash of the package).

``run_parallel_sweep`` is the engine behind ``run_sweep(..., jobs=N)``;
see :mod:`repro.harness.sweep` for the serial semantics it preserves.

Worker processes are started with the ``fork`` method where available
(Linux/macOS-with-fork), so workload factories may be arbitrary closures.
On spawn-only platforms the factory must be picklable.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Tuple)

from repro.common.config import SystemConfig
from repro.common.errors import ReproError
from repro.common.rng import DEFAULT_SEED
from repro.harness.fleet import WorkerFleet
from repro.harness.runner import (DEFAULT_CYCLE_LIMIT, RunResult,
                                  run_workload)
from repro.workloads.base import Workload

if TYPE_CHECKING:  # the store lives in repro.svc, which pulls in sqlite3
    from repro.svc.repository import RunRepository


class SweepExecutionError(ReproError):
    """One or more sweep cells failed; sibling results are preserved.

    ``completed`` maps task key -> :class:`RunResult` for every cell that
    did finish; ``failures`` maps task key -> human-readable reason.
    """

    def __init__(self, message: str,
                 completed: Optional[Dict[str, RunResult]] = None,
                 failures: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.completed = dict(completed or {})
        self.failures = dict(failures or {})


# ---------------------------------------------------------------------------
# Cell keys
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
    """Cell-key component identifying a workload instance.

    ``describe()`` covers the thread/unit geometry; class identity and the
    construction seed cover the generated layout (workload generators are
    deterministic functions of their constructor arguments).
    """
    cls = type(workload)
    return (f"{cls.__module__}.{cls.__qualname__}"
            f"|{workload.describe()}|seed={workload.seed}")


def cell_key(cfg: SystemConfig, fingerprint: str, seed: int, label: str,
             cycle_limit: int = DEFAULT_CYCLE_LIMIT,
             verify: object = False) -> str:
    """Content address of one sweep cell: the result store's key.

    The SHA-256 of the canonical ``(code version, config repr, workload
    fingerprint, seed, label, cycle limit, verify mode)`` tuple, so the
    CLI sweep and the service agree on it (see
    :meth:`repro.svc.spec.SweepSpec.cache_keys`).
    """
    payload = "\n".join([code_version(), repr(cfg), fingerprint,
                         str(seed), label, str(cycle_limit),
                         f"verify={verify!r}"])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Task execution
# ---------------------------------------------------------------------------

@dataclass
class RunTask:
    """One independent sweep cell: run ``make_workload()`` under ``cfg``.

    With ``trace_dir`` set, the cell runs traced and writes its trace
    artifacts (``<key>.trace.json`` Chrome trace + ``<key>.jsonl`` raw
    events) into that directory *inside the worker* — events never travel
    through the result pipe or the store.
    """

    key: str                                  # unique id within the batch
    label: str                                # RunResult.config_label
    cfg: SystemConfig
    make_workload: Callable[[], Workload]
    seed: int = DEFAULT_SEED
    cycle_limit: int = DEFAULT_CYCLE_LIMIT
    trace_dir: Optional[str] = None
    #: ``run_workload``'s ``verify`` argument (False / True / "strict").
    verify: object = False


def _artifact_stem(key: str) -> str:
    """Filesystem-safe artifact name for a task key."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in key)


@dataclass
class TaskOutcome:
    """How one task finished: its result plus execution metadata."""

    key: str
    result: RunResult
    wall_time: float = 0.0     # seconds spent executing (0.0 for store hits)
    cached: bool = False
    attempts: int = 1          # worker dispatches consumed (0 for store hits)
    retries: int = 0           # relaunches after a crash/timeout (attempts-1)
    timeouts: int = 0          # attempts that hit the wall-clock timeout


def _run_task(task: RunTask) -> RunResult:
    result = run_workload(task.cfg, task.make_workload(), seed=task.seed,
                          cycle_limit=task.cycle_limit,
                          config_label=task.label,
                          trace=task.trace_dir is not None,
                          verify=task.verify)
    # The report object holds live references into the simulated system;
    # the JSON-safe fields (checks_run, violations) already carry the
    # findings, so drop it before pickling into a pipe.
    result.verify_report = None
    if task.trace_dir is not None and result.events is not None:
        from repro.obs.export import export_chrome_trace, export_jsonl
        out = Path(task.trace_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = _artifact_stem(task.key)
        label = f"{result.workload} [{task.label}]"
        export_chrome_trace(result.events, str(out / f"{stem}.trace.json"),
                            label=label)
        export_jsonl(result.events, str(out / f"{stem}.jsonl"))
        # Events stay on disk; shipping them through the result pipe
        # would cost far more than the run.
        result.events = None
    return result


def _run_keyed(tasks: Dict[str, RunTask], key: str) -> RunResult:
    """Fleet ``run``: workers are sent task keys and look the task up."""
    return _run_task(tasks[key])


def resolve_jobs(jobs: Optional[int]) -> int:
    """``None``/``0`` means one worker per CPU; negative is rejected."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def execute_tasks(tasks: Iterable[RunTask],
                  jobs: Optional[int] = 1,
                  timeout: Optional[float] = None,
                  retries: int = 1,
                  cache: Optional[RunRepository] = None,
                  retry_timeouts: bool = False
                  ) -> Dict[str, TaskOutcome]:
    """Execute every task; return outcomes keyed by task key, in task order.

    * ``cache`` is the result store, used through ``load_run`` and
      ``store_run``. Store hits never reach a worker; when every task is
      a hit, no worker process starts.
    * With ``jobs=1`` and no ``timeout`` the tasks run in-process.
      Otherwise one :class:`WorkerFleet` of ``min(jobs, pending)``
      workers runs the batch and is stopped when it ends.
    * A worker that dies without reporting (crash, OOM-kill) is replaced
      and its task re-dispatched up to ``retries`` extra times; a task
      exceeding ``timeout`` seconds is terminated and by default not
      retried (a deterministic simulation that timed out once will time
      out again). ``retry_timeouts=True`` re-dispatches timed-out tasks
      against the same ``retries`` budget, for callers that know their
      wall-clock timeouts are *not* deterministic (a loaded box).
    * Failures do not abort the batch: remaining tasks still run, then one
      :class:`SweepExecutionError` summarises every failure and carries the
      completed sibling results.
    * Each :class:`TaskOutcome` carries the execution metadata — wall
      time, store-hit flag, ``attempts``/``retries``/``timeouts`` — that
      ``run_parallel_sweep`` surfaces in ``SweepResult.meta``.
    """
    tasks = list(tasks)
    if len({t.key for t in tasks}) != len(tasks):
        raise ValueError("duplicate task keys in batch")
    jobs = resolve_jobs(jobs)
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")

    outcomes: Dict[str, TaskOutcome] = {}
    failures: Dict[str, str] = {}
    pending: List[Tuple[RunTask, Optional[str]]] = []
    for task in tasks:
        cache_key = None
        if cache is not None:
            cache_key = cell_key(task.cfg,
                                 workload_fingerprint(task.make_workload()),
                                 task.seed, task.label, task.cycle_limit,
                                 verify=task.verify)
            result = cache.load_run(cache_key)
            if result is not None:
                outcomes[task.key] = TaskOutcome(task.key, result,
                                                 wall_time=0.0, cached=True,
                                                 attempts=0)
                continue
        pending.append((task, cache_key))

    if pending:
        if jobs == 1 and timeout is None:
            _execute_inline(pending, cache, outcomes, failures)
        else:
            _execute_on_fleet(pending, jobs, timeout, retries, cache,
                              outcomes, failures,
                              retry_timeouts=retry_timeouts)

    if failures:
        done = {key: out.result for key, out in outcomes.items()}
        detail = "; ".join(f"{key}: {reason.strip().splitlines()[-1]}"
                           for key, reason in failures.items())
        raise SweepExecutionError(
            f"{len(failures)} of {len(tasks)} sweep cell(s) failed "
            f"({len(done)} completed): {detail}",
            completed=done, failures=failures)
    return {task.key: outcomes[task.key] for task in tasks}


def _execute_inline(pending, cache, outcomes, failures) -> None:
    """jobs=1 with no timeout: run in-process (no worker overhead)."""
    for task, cache_key in pending:
        start = time.perf_counter()
        try:
            result = _run_task(task)
        except Exception:
            failures[task.key] = traceback.format_exc()
            continue
        wall = time.perf_counter() - start
        outcomes[task.key] = TaskOutcome(task.key, result, wall_time=wall)
        if cache is not None and cache_key is not None:
            cache.store_run(cache_key, result)


def _execute_on_fleet(pending, jobs, timeout, retries, cache,
                      outcomes, failures,
                      retry_timeouts: bool = False) -> None:
    """Run the batch on its own fleet; retries and timeouts are decided here.

    Workers are forked after ``tasks`` is built, so they inherit it (and
    every workload closure in it); only task keys cross the pipes.
    """
    tasks = {task.key: task for task, _cache_key in pending}
    store_keys = {task.key: cache_key for task, cache_key in pending}
    queue: List[str] = list(tasks)
    attempts: Dict[str, int] = {}
    timeout_counts: Dict[str, int] = {}
    inflight = 0
    fleet = WorkerFleet(min(jobs, len(tasks)),
                        run=functools.partial(_run_keyed, tasks))
    fleet.start()
    try:
        while queue or inflight:
            while queue and fleet.dispatch(queue[0],
                                           timeout=timeout) is not None:
                key = queue.pop(0)
                attempts[key] = attempts.get(key, 0) + 1
                inflight += 1
            for message in fleet.poll(wait=0.05):
                key = message.item
                label = tasks[key].label
                inflight -= 1
                if message.kind == "done":
                    outcomes[key] = TaskOutcome(
                        key, message.result, wall_time=message.wall_time,
                        attempts=attempts[key], retries=attempts[key] - 1,
                        timeouts=timeout_counts.get(key, 0))
                    if cache is not None and store_keys[key]:
                        cache.store_run(store_keys[key], message.result)
                elif message.kind == "error":
                    failures[key] = (f"variant {label!r} raised in "
                                     f"worker:\n{message.error}")
                elif message.kind == "crashed":
                    if attempts[key] <= retries:
                        queue.append(key)
                    else:
                        failures[key] = (
                            f"variant {label!r}: worker crashed with "
                            f"exit code {message.exitcode} "
                            f"({attempts[key]} attempt(s))")
                else:  # timeout
                    timeout_counts[key] = timeout_counts.get(key, 0) + 1
                    if retry_timeouts and attempts[key] <= retries:
                        queue.append(key)
                    else:
                        failures[key] = (
                            f"variant {label!r}: timed out after "
                            f"{timeout:g}s ({attempts[key]} attempt(s))")
    finally:
        fleet.stop()


# ---------------------------------------------------------------------------
# Sweep front end
# ---------------------------------------------------------------------------

def run_parallel_sweep(variants, workload_factory,
                       seed: int = DEFAULT_SEED,
                       baseline_label: Optional[str] = None,
                       jobs: Optional[int] = None,
                       cache: Optional[RunRepository] = None,
                       timeout: Optional[float] = None,
                       retries: int = 1,
                       trace_dir: Optional[str] = None,
                       verify: object = False,
                       retry_timeouts: bool = False):
    """Parallel/cached engine behind ``run_sweep(..., jobs=N)``.

    Produces a ``SweepResult`` equal to the serial one (results are stored
    in variant order regardless of completion order), with execution
    metadata in ``SweepResult.meta``: per-variant wall time, store-hit
    flags, attempt/retry/timeout counts, plus batch totals.

    ``trace_dir`` writes per-variant trace artifacts (Chrome trace JSON +
    JSONL) into that directory and disables the store for the batch — a
    store hit would skip the run that produces the artifacts.
    """
    from repro.harness.sweep import SweepResult  # circular at import time

    variants = list(variants)
    labels = [label for label, _ in variants]
    if len(set(labels)) != len(labels):
        dup = sorted({x for x in labels if labels.count(x) > 1})[0]
        raise ValueError(f"duplicate variant label {dup!r}")
    if baseline_label is not None and baseline_label not in labels:
        raise ValueError(f"baseline {baseline_label!r} not in sweep")
    if trace_dir is not None:
        cache = None

    tasks = [RunTask(key=label, label=label, cfg=cfg,
                     make_workload=workload_factory, seed=seed,
                     trace_dir=trace_dir, verify=verify)
             for label, cfg in variants]
    started = time.perf_counter()
    outcomes = execute_tasks(tasks, jobs=jobs, timeout=timeout,
                             retries=retries, cache=cache,
                             retry_timeouts=retry_timeouts)
    wall = time.perf_counter() - started

    sweep = SweepResult(baseline_label=baseline_label)
    for label in labels:
        sweep.results[label] = outcomes[label].result
    hits = sum(1 for o in outcomes.values() if o.cached)
    sweep.meta = {
        "jobs": resolve_jobs(jobs),
        "wall_time": wall,
        "cache": {"hits": hits, "misses": len(outcomes) - hits,
                  "enabled": cache is not None},
        "retries": sum(o.retries for o in outcomes.values()),
        "timeouts": sum(o.timeouts for o in outcomes.values()),
        "variants": {label: {"cached": outcomes[label].cached,
                             "wall_time": outcomes[label].wall_time,
                             "attempts": outcomes[label].attempts,
                             "retries": outcomes[label].retries,
                             "timeouts": outcomes[label].timeouts}
                     for label in labels},
    }
    return sweep
