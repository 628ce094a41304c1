"""Worker fleet: the one pool of worker processes.

:class:`WorkerFleet` keeps a fixed pool of worker processes alive, each
connected to the parent by a duplex pipe. A worker is sent items,
pickled, and calls ``item.run()`` on each; it sends back only the result
(or the traceback) and the CPU time the run took, and the fleet reports
the parent's own item with them. Both process-pool users drive a fleet
with the same items, :class:`repro.harness.sweep.Cell` values: the sweep
engine (:func:`repro.harness.sweep.execute_tasks`, one fleet per batch)
and the sweep service (:mod:`repro.svc.service`, one long-lived fleet).
An item carries everything its run needs, so the fleet works the same
whether workers are forked or spawned.

* **dispatch** — the parent assigns an item to an idle worker;
* **liveness** — the parent watches each worker's process liveness and
  item deadline; each worker watches its parent's process sentinel and
  exits when the parent dies (a busy worker once its item finishes), so
  a killed parent leaves no orphans;
* **reap** — a worker that dies mid-item is detected (``is_alive`` +
  broken pipe), its item reported back as *crashed* so the caller can
  re-queue it, and a replacement worker is spawned to keep the fleet at
  strength; a worker past its deadline is terminated the same way and
  reported as *timeout*;
* **drain** — graceful shutdown: idle workers get a sentinel and exit
  cleanly, busy workers get until ``timeout`` to finish their item
  (results are still delivered), stragglers are terminated.

The fleet is deliberately policy-free: *what* to do with a crash or
timeout (retry budgets, failure records) is the caller's decision; the
fleet only detects and reports.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, Iterable, List, Optional


def _fleet_worker(conn) -> None:  # pragma: no cover
    """Worker main loop: run items; exit on None or when the parent dies.

    The pipe alone cannot tell that the parent died: a forked worker
    inherits the parent's end of its own pipe, so it never reads EOF.
    The parent's process sentinel becomes ready when the parent exits.
    """
    parent = multiprocessing.parent_process().sentinel
    try:
        while True:
            if parent in mp_connection.wait([conn, parent]):
                return  # parent went away; nothing useful left to do
            item = conn.recv()
            if item is None:
                conn.send(("bye", None, 0.0))
                return
            started = time.process_time()
            try:
                result = item.run()
            except BaseException:
                conn.send(("error", traceback.format_exc(),
                           time.process_time() - started))
            else:
                conn.send(("done", result, time.process_time() - started))
    except (EOFError, OSError, BrokenPipeError):
        return  # parent went away; nothing useful left to do
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


@dataclass
class FleetMessage:
    """One caller-relevant fleet occurrence (see ``kind``).

    kinds: ``done`` (result attached), ``error`` (worker raised;
    traceback in ``error``), ``crashed`` (worker died mid-item),
    ``timeout`` (worker terminated past its item's deadline). ``item`` is
    the parent's own dispatched object, not a copy from the worker.
    ``wall_time`` runs from dispatch to report in the parent;
    ``cpu_time`` is the worker's ``time.process_time()`` around
    ``item.run()`` (0.0 when the worker did not report).
    """

    kind: str
    item: Any
    worker_id: int
    result: Optional[object] = None
    error: Optional[str] = None
    exitcode: Optional[int] = None
    wall_time: float = 0.0
    cpu_time: float = 0.0


class _Worker:
    """Parent-side record of one fleet worker process."""

    __slots__ = ("worker_id", "proc", "conn", "item", "started",
                 "deadline", "draining")

    def __init__(self, worker_id: int, proc, conn) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.conn = conn
        self.item: Optional[Any] = None
        self.started = 0.0
        self.deadline: Optional[float] = None
        self.draining = False


class WorkerFleet:
    """Spawn/monitor/reap a pool of worker processes running items."""

    def __init__(self, size: int,
                 emit: Optional[Callable[..., None]] = None) -> None:
        if size < 1:
            raise ValueError(f"fleet size must be >= 1, got {size}")
        self.size = size
        self._emit = emit or (lambda kind, **fields: None)
        self._ctx = _mp_context()
        # Guards _workers / _next_id / restarts / _started: the API
        # methods run on the caller's thread while the scheduler thread
        # polls. Worker *records* (item/deadline/...) are only touched
        # by whoever holds the worker, so the lock covers membership and
        # counters, not per-worker fields.
        self._lock = threading.Lock()
        self._workers: Dict[int, _Worker] = {}
        self._next_id = 0
        self.restarts = 0
        self._started = False

    def _snapshot(self) -> List[_Worker]:
        with self._lock:
            return list(self._workers.values())

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            self._started = True
            need = self.size - len(self._workers)
        for _ in range(need):
            self._spawn()

    def _spawn(self) -> _Worker:
        with self._lock:
            worker_id = self._next_id
            self._next_id += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(target=_fleet_worker,
                                 args=(child_conn,),
                                 name=f"fleet-worker-{worker_id}")
        proc.daemon = True
        proc.start()
        child_conn.close()
        worker = _Worker(worker_id, proc, parent_conn)
        with self._lock:
            self._workers[worker_id] = worker
        self._emit("svc.worker.spawn", worker=worker_id)
        return worker

    def _reap(self, worker: _Worker) -> None:
        with self._lock:
            self._workers.pop(worker.worker_id, None)
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join()

    def alive_count(self) -> int:
        return sum(1 for w in self._snapshot() if w.proc.is_alive())

    def idle_count(self) -> int:
        return sum(1 for w in self._snapshot()
                   if w.item is None and not w.draining
                   and w.proc.is_alive())

    def busy_count(self) -> int:
        return sum(1 for w in self._snapshot() if w.item is not None)

    def restart_count(self) -> int:
        with self._lock:
            return self.restarts

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, item: Any,
                 timeout: Optional[float] = None) -> Optional[int]:
        """Hand an item to an idle worker; its id, or None if saturated.

        ``timeout`` is the item's wall-clock budget in seconds; the
        worker is terminated (and the item reported as ``timeout``) if
        it is still running past it.
        """
        for worker in self._snapshot():
            if worker.item is None and not worker.draining \
                    and worker.proc.is_alive():
                worker.item = item
                worker.started = time.monotonic()
                worker.deadline = (worker.started + timeout
                                   if timeout is not None else None)
                try:
                    worker.conn.send(item)
                except (OSError, BrokenPipeError):
                    worker.item = None
                    continue  # dying worker; the next poll reaps it
                return worker.worker_id
        return None

    # -- monitoring --------------------------------------------------------

    def poll(self, wait: float = 0.05) -> List[FleetMessage]:
        """Collect finished items, crashes, and timeouts; keep strength.

        Blocks up to ``wait`` seconds for worker traffic, then performs
        one sweep of message draining, liveness checks, deadline
        enforcement, and respawning (unless draining).
        """
        conns = [w.conn for w in self._snapshot()]
        if conns:
            try:
                mp_connection.wait(conns, timeout=wait)
            except OSError:
                pass
        messages: List[FleetMessage] = []
        for worker in self._snapshot():
            messages.extend(self._poll_worker(worker))
        with self._lock:
            respawn = 0
            if self._started:
                live = sum(1 for w in self._workers.values()
                           if w.proc.is_alive() or w.draining)
                respawn = max(0, self.size - live)
                self.restarts += respawn
        for _ in range(respawn):
            self._spawn()
        return messages

    def _poll_worker(self, worker: _Worker) -> List[FleetMessage]:
        messages: List[FleetMessage] = []
        # Drain everything the worker has sent.
        while True:
            try:
                if not worker.conn.poll():
                    break
                kind, tail, cpu_time = worker.conn.recv()
            except (EOFError, OSError):
                break  # died mid-send; the liveness check below handles it
            if kind == "bye":
                worker.draining = True
                continue
            messages.append(FleetMessage(
                kind, worker.item, worker.worker_id,
                result=tail if kind == "done" else None,
                error=tail if kind == "error" else None,
                wall_time=time.monotonic() - worker.started,
                cpu_time=cpu_time))
            worker.item = None
            worker.deadline = None
        if not worker.proc.is_alive():
            exitcode = worker.proc.exitcode
            item = worker.item
            self._reap(worker)
            if worker.draining and item is None:
                self._emit("svc.worker.exit", worker=worker.worker_id)
            else:
                self._emit("svc.worker.crash", worker=worker.worker_id,
                           exitcode=exitcode)
                if item is not None:
                    messages.append(FleetMessage(
                        "crashed", item, worker.worker_id,
                        exitcode=exitcode,
                        wall_time=time.monotonic() - worker.started))
            return messages
        if (worker.deadline is not None and worker.item is not None
                and time.monotonic() > worker.deadline):
            item = worker.item
            self._reap(worker)
            messages.append(FleetMessage(
                "timeout", item, worker.worker_id,
                wall_time=time.monotonic() - worker.started))
        return messages

    # -- cancellation / shutdown ------------------------------------------

    def terminate(self, items: Iterable[Any]) -> List[Any]:
        """Kill workers running any of ``items``; return the killed items.

        Replacement workers are spawned on the next :meth:`poll`, so
        cancelling work does not shrink the fleet.
        """
        doomed = list(items)
        killed: List[Any] = []
        for worker in self._snapshot():
            if worker.item is not None and worker.item in doomed:
                killed.append(worker.item)
                worker.item = None
                self._reap(worker)
        return killed

    def drain(self, timeout: float = 10.0) -> List[FleetMessage]:
        """Graceful shutdown: finish in-flight items, then stop everyone.

        Returns any messages (completions included) collected while
        draining, so the caller can persist late results.
        """
        with self._lock:
            self._started = False  # no respawns from here on
        deadline = time.monotonic() + timeout
        messages: List[FleetMessage] = []
        for worker in self._snapshot():
            if worker.item is None and not worker.draining:
                worker.draining = True
                try:
                    worker.conn.send(None)
                except (OSError, BrokenPipeError):
                    pass
        while self._snapshot() and time.monotonic() < deadline:
            messages.extend(self.poll(wait=0.05))
            for worker in self._snapshot():
                if worker.item is None and not worker.draining:
                    worker.draining = True
                    try:
                        worker.conn.send(None)
                    except (OSError, BrokenPipeError):
                        pass
            if all(w.draining and w.item is None
                   for w in self._snapshot()):
                # Everyone acknowledged; give them a moment to exit.
                for worker in self._snapshot():
                    worker.proc.join(timeout=max(
                        0.0, deadline - time.monotonic()))
                    if not worker.proc.is_alive():
                        self._emit("svc.worker.exit",
                                   worker=worker.worker_id)
                    self._reap(worker)
        self.stop()
        return messages

    def stop(self) -> None:
        """Hard stop: terminate every remaining worker immediately."""
        with self._lock:
            self._started = False
        for worker in self._snapshot():
            self._reap(worker)
