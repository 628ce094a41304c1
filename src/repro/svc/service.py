"""The sweep service: job table + fleet + repository, orchestrated.

:class:`SweepService` is the hub every other ``repro.svc`` module plugs
into. A submission flows through it as::

    POST /sweeps ──> SweepSpec ──> cells + keys ──> create_job (queued)
                                        │
                 jobs table (the queue: priority, then FIFO)
                                        │
                scheduler thread: claim_next_job (queued ──> running)
                    for each cell built at submission
                    repository hit? ──────────────> cell done (repo)
                    else ─> WorkerFleet.dispatch(cell) ─> run ─> store+done
                                        │
                    crash/timeout ─> re-queue (retry budget) or failed

A submission is expanded once: the cells and keys built when it is
accepted are the ones the scheduler runs. Only a job recovered after a
restart is expanded again from its stored spec. A cell outcome is one
repository transaction: a repository hit refreshes the run's recency
with the cell's ledger row, and an executed cell's result is stored
with its ledger row ("store+done"), so a crash keeps both or neither.

The repository's ``jobs`` table is the only queue and the only place a
job's state changes: the scheduler claims the next job in one
compare-and-set, and cancellation, completion and failure are
:meth:`~repro.svc.repository.RunRepository.transition` calls, so an API
thread and the scheduler never both move one job.

Progress is published on a :class:`repro.obs.bus.EventBus` (``svc.*``
events, wall-clock milliseconds since service start) with one
subscriber: it keeps each job's events (the ``/events`` NDJSON
endpoint) and counts every event by kind. ``/metrics`` is computed from
those counts (:data:`EVENT_COUNTERS`), the job table (queue depth) and
the fleet (workers alive, restarts).

The :class:`~repro.harness.fleet.WorkerFleet` only runs cells and
reports crashes and timeouts. A cell is the same
:class:`~repro.harness.sweep.Cell` the sweep engine runs and carries no
job id: the service maps each report back through its own in-flight
table, by the worker that ran the cell. The policy is decided here,
with the sweep engine's semantics: per-cell timeout and retry budgets
(``SweepSpec.timeout`` / ``retries``), crashes re-queued, worker
exceptions terminal (a deterministic model error will not heal on
retry). Timeouts *are* retried here, against the same budget — unlike
:func:`~repro.harness.sweep.execute_tasks`, where a timed-out cell
fails — because a long-lived server's wall-clock deadlines depend on
the load of a shared box, not only on the cell.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.harness.fleet import WorkerFleet
from repro.harness.sweep import Cell
from repro.obs.bus import EventBus
from repro.obs.events import Event
from repro.svc.repository import RunRepository
from repro.svc.spec import SweepSpec

#: Events kept per job for the ``/events`` endpoint.
MAX_JOB_EVENTS = 10_000

#: ``/metrics`` counter -> the event kind it counts, and the ``source``
#: field the event must carry (None: any).
EVENT_COUNTERS: Dict[str, Tuple[str, Optional[str]]] = {
    "svc.jobs.submitted": ("svc.job.submitted", None),
    "svc.jobs.done": ("svc.job.done", None),
    "svc.jobs.failed": ("svc.job.failed", None),
    "svc.jobs.cancelled": ("svc.job.cancelled", None),
    "svc.cells.executed": ("svc.cell.done", "executed"),
    "svc.cells.repo_hits": ("svc.cell.done", "repository"),
    "svc.cells.failed": ("svc.cell.failed", None),
    "svc.cells.requeued": ("svc.cell.requeued", None),
    "svc.worker.timeouts": ("svc.worker.timeout", None),
}


class ServiceError(ReproError):
    """A request the service cannot honour (unknown job, bad state...)."""


class SweepService:
    """A persistent sweep job server over the sweep engine's cells."""

    def __init__(self, db_path: object,
                 workers: int = 2,
                 drain_timeout: float = 10.0) -> None:
        self.repository = RunRepository(db_path)
        self.drain_timeout = drain_timeout
        self._t0 = time.monotonic()
        self.bus = EventBus(clock=self._clock, strict=True)
        self.bus.subscribe(self._record_event)
        self.fleet = WorkerFleet(workers, emit=self._emit)
        # Guards both: written by the bus's one subscriber, read by API
        # threads.
        self._events_lock = threading.Lock()
        self._job_events: Dict[str, List[Event]] = {}
        self._event_counts: Counter = Counter()  # (kind, source) -> n
        self._cancel_requested: set = set()
        self._cancel_lock = threading.Lock()
        # job id -> (spec, cells) built at submission, taken by the
        # scheduler when it runs the job or by a cancel while queued.
        self._expansions: Dict[str, Tuple[SweepSpec, List[Cell]]] = {}
        self._expansions_lock = threading.Lock()
        self._stop = threading.Event()
        # Set when a job may be waiting: a submission, or shutdown.
        self._wake = threading.Event()
        self._scheduler: Optional[threading.Thread] = None
        # Guards _current_job: written by the scheduler thread, read by
        # health() on API threads.
        self._state_lock = threading.Lock()
        self._current_job: Optional[str] = None

    # -- observability plumbing -------------------------------------------

    def _clock(self) -> int:
        return int((time.monotonic() - self._t0) * 1000)

    def _emit(self, kind: str, **fields: Any) -> None:
        fields.setdefault("ts", round(time.time(), 3))
        self.bus.record(kind, **fields)

    def _record_event(self, event: Event) -> None:
        """The bus's subscriber: count every event, keep each job's."""
        job_id = event.fields.get("job")
        with self._events_lock:
            self._event_counts[event.kind, event.fields.get("source")] += 1
            if job_id is None:
                return
            events = self._job_events.setdefault(job_id, [])
            if len(events) < MAX_JOB_EVENTS:
                events.append(event)

    def job_events(self, job_id: str, since: int = 0) -> List[Event]:
        """The job's recorded events from index ``since`` onward."""
        with self._events_lock:
            return list(self._job_events.get(job_id, [])[since:])

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Recover unfinished jobs, start the fleet and scheduler."""
        self.repository.recover()
        self.fleet.start()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="svc-scheduler", daemon=True)
        self._scheduler.start()

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the service; with ``drain``, let in-flight cells finish.

        Queued jobs stay queued in the repository, and the interrupted
        job (if any) is normalized back to ``queued`` with its finished
        cells kept — a restarted service resumes exactly where this one
        stopped. The repository is closed last, so the service answers
        no call after this one returns.
        """
        timeout = self.drain_timeout if timeout is None else timeout
        self._emit("svc.drain", busy=self.fleet.busy_count())
        self._stop.set()
        self._wake.set()
        if self._scheduler is not None:
            self._scheduler.join(timeout=timeout + 5.0)
        if drain:
            for message in self.fleet.drain(timeout=timeout):
                if message.kind == "done":
                    self._store_late_result(message.item.label,
                                            message.result)
        else:
            self.fleet.stop()
        self.repository.recover()  # normalize interrupted state to queued
        self.repository.close()

    def _store_late_result(self, label: str, result) -> None:
        """Persist a result that arrived while draining: a cell of the job
        the scheduler is still running, stored under that job's key."""
        with self._state_lock:
            job_id = self._current_job
        if job_id is None:
            return
        for cell in self.repository.get_job(job_id)["cells"]:
            if cell["label"] == label:
                self.repository.store_cell_result(
                    job_id, label, cell["cache_key"], result,
                    state="done", source="executed")

    # -- client surface ----------------------------------------------------

    def submit(self, spec_data: Dict[str, Any],
               priority: int = 0) -> Dict[str, Any]:
        """Validate, persist, and enqueue one sweep; returns the job."""
        spec = (spec_data if isinstance(spec_data, SweepSpec)
                else SweepSpec.from_dict(spec_data))
        cells = spec.cells()
        keys = spec.cache_keys(cells)
        # Held until the expansion is filed: the scheduler can claim the
        # job as soon as it is committed, and takes this lock to find it.
        with self._expansions_lock:
            job = self.repository.create_job(spec, priority=priority,
                                             cache_keys=keys)
            self._expansions[job["id"]] = (spec, cells)
        # Emitted before the scheduler is woken, so a job's event stream
        # starts with it.
        self._emit("svc.job.submitted", job=job["id"],
                   cells=len(job["cells"]), priority=priority)
        self._wake.set()
        return job

    def job(self, job_id: str) -> Dict[str, Any]:
        job = self.repository.get_job(job_id)
        if job is None:
            raise ServiceError(f"no such job: {job_id}")
        return job

    def jobs(self, state: Optional[str] = None,
             limit: int = 50) -> List[Dict[str, Any]]:
        return self.repository.list_jobs(state=state, limit=limit)

    def results(self, job_id: str,
                labels: Optional[Iterable[str]] = None
                ) -> Dict[str, Dict[str, Any]]:
        self.job(job_id)  # raises on unknown id
        return self.repository.results_for_job(job_id, labels=labels)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a queued or running job; terminal jobs are an error."""
        job = self.job(job_id)
        if job["state"] in ("done", "failed", "cancelled"):
            raise ServiceError(
                f"job {job_id} is already {job['state']}")
        with self._cancel_lock:
            self._cancel_requested.add(job_id)
        if self.repository.transition(job_id, "queued", "cancelled"):
            # It was still queued, so the scheduler can no longer claim
            # it; a running job is stopped by the scheduler instead.
            self._take_expansion(job_id)
            self._finalize_cancel(job_id)
        return self.job(job_id)

    def _finalize_cancel(self, job_id: str) -> None:
        """Announce a job the repository moved to ``cancelled`` (with its
        unfinished cells) and forget its cancel request."""
        self._emit("svc.job.cancelled", job=job_id)
        with self._cancel_lock:
            self._cancel_requested.discard(job_id)

    def _cancelled(self, job_id: str) -> bool:
        with self._cancel_lock:
            return job_id in self._cancel_requested

    def _take_expansion(self, job_id: str
                        ) -> Optional[Tuple[SweepSpec, List[Cell]]]:
        """The job's submit-time expansion, once; None for a job this
        process did not accept (recovered after a restart)."""
        with self._expansions_lock:
            return self._expansions.pop(job_id, None)

    # -- health / metrics --------------------------------------------------

    def health(self) -> Dict[str, Any]:
        with self._state_lock:
            current = self._current_job
        return {
            "status": "ok",
            "uptime_seconds": round(time.monotonic() - self._t0, 3),
            "workers_alive": self.fleet.alive_count(),
            "queue_depth": self.repository.queued_count(),
            "current_job": current,
            "runs_stored": self.repository.run_count(),
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """``events.<kind>`` and :data:`EVENT_COUNTERS` from the counted
        events, plus the queue depth, fleet state and derived rates."""
        with self._events_lock:
            counts = list(self._event_counts.items())
        snapshot: Dict[str, Any] = {}
        for (kind, _source), n in counts:
            key = f"events.{kind}"
            snapshot[key] = snapshot.get(key, 0) + n
        for name, (kind, source) in EVENT_COUNTERS.items():
            snapshot[name] = sum(n for (k, s), n in counts
                                 if k == kind and source in (None, s))
        snapshot["svc.queue.depth"] = self.repository.queued_count()
        snapshot = dict(sorted(snapshot.items()))
        uptime = max(time.monotonic() - self._t0, 1e-9)
        executed = snapshot["svc.cells.executed"]
        repo_hits = snapshot["svc.cells.repo_hits"]
        resolved = executed + repo_hits
        snapshot["svc.uptime_seconds"] = round(uptime, 3)
        snapshot["svc.cells.per_second"] = round(resolved / uptime, 6)
        snapshot["svc.cache.hit_rate"] = (
            round(repo_hits / resolved, 6) if resolved else 0.0)
        snapshot["svc.workers.alive"] = self.fleet.alive_count()
        snapshot["svc.workers.restarts"] = self.fleet.restart_count()
        return snapshot

    # -- the scheduler loop ------------------------------------------------

    def _scheduler_loop(self) -> None:
        while not self._stop.is_set():
            # Cleared before the claim: a submission landing between an
            # empty claim and the wait still wakes it.
            self._wake.clear()
            job = self.repository.claim_next_job()
            if job is None:
                self._wake.wait(timeout=0.2)
                continue
            job_id = job["id"]
            with self._state_lock:
                self._current_job = job_id
            try:
                self._run_job(job)
            except Exception as exc:  # defensive: keep the loop alive
                if self.repository.transition(job_id, "running", "failed",
                                              error=repr(exc)):
                    self._emit("svc.job.failed", job=job_id, failed=-1)
            finally:
                with self._state_lock:
                    self._current_job = None

    def _run_job(self, job: Dict[str, Any]) -> None:
        """Resolve every cell of a job this scheduler claimed."""
        job_id = job["id"]
        self._emit("svc.job.started", job=job_id)
        expansion = self._take_expansion(job_id)
        if expansion is None:
            spec, grid = SweepSpec.from_dict(job["spec"]), None
        else:
            spec, grid = expansion
        keys = {cell["label"]: cell["cache_key"] for cell in job["cells"]}

        # Serve what the repository already holds (cross-submission
        # dedupe) without running anything. Cells a previous incarnation
        # already finished (restart recovery) are skipped outright.
        pending: List[str] = []
        for cell in job["cells"]:
            if cell["state"] != "pending":
                continue
            label = cell["label"]
            if not self._resolve_from_repository(job_id, label,
                                                 keys[label]):
                pending.append(label)
        # A recovered job is expanded again only when something must run:
        # a job served wholly from the repository needs no workload.
        if pending and grid is None:
            grid = spec.cells()
        cells = {cell.label: cell for cell in grid or ()}

        attempts: Dict[str, int] = {}
        timeouts: Dict[str, int] = {}
        # The in-flight table: worker id -> label of the cell it runs.
        inflight: Dict[int, str] = {}
        interrupted = False

        while pending or inflight:
            if self._cancelled(job_id):
                self.fleet.terminate([cells[label]
                                      for label in inflight.values()])
                self.repository.transition(job_id, "running", "cancelled")
                self._finalize_cancel(job_id)
                return
            if self._stop.is_set():
                interrupted = True
                if not inflight:
                    break
            else:
                while pending and self.fleet.idle_count() > 0:
                    label = pending.pop(0)
                    worker_id = self.fleet.dispatch(cells[label],
                                                    timeout=spec.timeout)
                    if worker_id is None:
                        pending.insert(0, label)
                        break
                    attempts[label] = attempts.get(label, 0) + 1
                    inflight[worker_id] = label
                    self.repository.update_cell(
                        job_id, label, state="running",
                        attempts=attempts[label],
                        retries=attempts[label] - 1,
                        timeouts=timeouts.get(label, 0))
                    self._emit("svc.cell.dispatch", job=job_id,
                               label=label, worker=worker_id)
            for message in self.fleet.poll(wait=0.05):
                # A cancelled job's workers were terminated with their
                # cells, so every report is for a cell of this job.
                label = inflight.pop(message.worker_id)
                if message.kind == "done":
                    self._record_done(job_id, label, keys[label],
                                      message.result,
                                      wall_time=message.wall_time,
                                      cpu_time=message.cpu_time,
                                      attempts=attempts.get(label, 1),
                                      timeouts=timeouts.get(label, 0))
                elif message.kind == "error":
                    self._record_failed(job_id, label, message.error)
                elif message.kind in ("crashed", "timeout"):
                    if message.kind == "timeout":
                        timeouts[label] = timeouts.get(label, 0) + 1
                        self._emit("svc.worker.timeout",
                                   worker=message.worker_id, job=job_id,
                                   label=label)
                    if attempts.get(label, 0) <= spec.retries:
                        pending.append(label)
                        self._emit("svc.cell.requeued", job=job_id,
                                   label=label, cause=message.kind,
                                   attempts=attempts.get(label, 0))
                    else:
                        reason = (
                            f"worker {message.kind} after "
                            f"{attempts.get(label, 0)} attempt(s)"
                            + (f" (exit code {message.exitcode})"
                               if message.exitcode is not None else ""))
                        self._record_failed(job_id, label, reason)

        if interrupted:
            return  # shutdown(): recover() will re-queue this job
        ledger = self.repository.get_job(job_id)
        failed = ledger["cell_counts"].get("failed", 0)
        if failed:
            self.repository.transition(job_id, "running", "failed",
                                       error=f"{failed} cell(s) failed")
            self._emit("svc.job.failed", job=job_id, failed=failed)
        else:
            self.repository.transition(job_id, "running", "done")
            self._emit(
                "svc.job.done", job=job_id,
                executed=sum(1 for c in ledger["cells"]
                             if c["source"] == "executed"),
                repo_hits=sum(1 for c in ledger["cells"]
                              if c["source"] == "repository"))

    # -- cell resolution ---------------------------------------------------

    def _resolve_from_repository(self, job_id: str, label: str,
                                 cache_key: str) -> bool:
        """Serve a cell from the repository; True if it was stored."""
        if not self.repository.serve_cell_from_store(job_id, label,
                                                     cache_key):
            return False
        self._emit("svc.cell.done", job=job_id, label=label,
                   source="repository", wall_time=0.0, cpu_time=0.0,
                   attempts=0)
        return True

    def _record_done(self, job_id: str, label: str, key: str, result,
                     wall_time: float, cpu_time: float, attempts: int,
                     timeouts: int) -> None:
        self.repository.store_cell_result(
            job_id, label, key, result, state="done", source="executed",
            attempts=attempts, retries=max(attempts - 1, 0),
            timeouts=timeouts, wall_time=wall_time)
        self._emit("svc.cell.done", job=job_id, label=label,
                   source="executed", wall_time=round(wall_time, 6),
                   cpu_time=round(cpu_time, 6), attempts=attempts)

    def _record_failed(self, job_id: str, label: str,
                       reason: Optional[str]) -> None:
        reason = reason or "unknown failure"
        self.repository.update_cell(job_id, label, state="failed",
                                    error=reason)
        self._emit("svc.cell.failed", job=job_id, label=label,
                   reason=reason.strip().splitlines()[-1])
