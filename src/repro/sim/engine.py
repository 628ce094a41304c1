"""Discrete-event simulation engine.

The engine owns virtual time (an integer cycle count) and a priority queue of
scheduled actions. Model components are *processes*: plain Python generators
that ``yield`` either

* a non-negative ``int`` — advance virtual time by that many cycles, or
* a :class:`~repro.sim.future.Future` — block until it resolves; the
  resolved value is sent back into the generator.

Processes compose with ``yield from``, which is how a CPU access "calls into"
the cache hierarchy while accumulating latency.

Pending actions live in one binary heap of ``(when, seq, action)``. Every
schedule draws a fresh sequence number, so the heap's tuple order is the
global ``(when, seq)`` order that makes each run a deterministic function
of its inputs: actions due in the same cycle run FIFO. Zero-delay actions
(process starts and future wake-ups; no model process yields 0) are
0.5-3% of a benchmark run's events, and a queue of their own sped up no
benchmark workload, so they share the heap. See ``docs/performance.md``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.common.errors import DeadlockError, SimulationError
from repro.sim.future import Future

#: What a process generator may yield.
ProcessGen = Generator[Any, Any, Any]


class Process:
    """A generator the simulator advances one yield per event."""

    __slots__ = ("gen", "name", "done", "sim",
                 "_resume", "_on_resolved", "_next_value")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str) -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        #: Resolves with the generator's return value when it finishes.
        self.done = Future(f"{name}.done")
        # Prebound continuations: scheduling a step reuses these callables
        # instead of allocating a closure per yield. A process waits on at
        # most one future at a time, so a single ``_next_value`` cell is
        # enough to carry the resolved value into the next step.
        self._next_value: Any = None
        self._resume = self._step_next
        self._on_resolved = self._future_resolved

    def _step_next(self) -> None:
        """Advance the generator one yield and reschedule accordingly.

        This is the scheduled continuation for every event — one call per
        event, with the send/reschedule logic inline (a separate ``_step``
        helper would double the per-event call count).
        """
        send_value, self._next_value = self._next_value, None
        try:
            yielded = self.gen.send(send_value)
        except StopIteration as stop:
            if self.sim.tracer is not None:
                self.sim.tracer.record("sim.process_done", process=self.name)
            self.done.resolve(stop.value)
            return
        if type(yielded) is int or isinstance(yielded, int):
            if yielded < 0:
                raise SimulationError(
                    f"process {self.name} yielded negative delay {yielded}")
            sim = self.sim
            sim._seq += 1
            heapq.heappush(sim._queue,
                           (sim.now + yielded, sim._seq, self._resume))
        elif isinstance(yielded, Future):
            yielded.add_callback(self._on_resolved)
        else:
            raise SimulationError(
                f"process {self.name} yielded {type(yielded).__name__}; "
                "only int delays and Futures are allowed")

    def _future_resolved(self, value: Any) -> None:
        self._next_value = value
        sim = self.sim
        sim._seq += 1
        heapq.heappush(sim._queue, (sim.now, sim._seq, self._resume))

    def __repr__(self) -> str:
        state = "done" if self.done.done else "running"
        return f"Process({self.name}, {state})"


class Simulator:
    """The event loop: integer virtual time plus a heap of pending actions."""

    def __init__(self) -> None:
        self.now = 0
        self._seq = 0
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self.events_executed = 0
        #: Optional observability sink with a ``record(kind, **fields)``
        #: method (an :class:`repro.obs.bus.EventBus` or recorder). The
        #: kernel reports process spawn/finish on it; None means untraced.
        self.tracer = None

    def schedule(self, delay: int, action: Callable[[], None]) -> None:
        """Run ``action`` after ``delay`` cycles (FIFO among equal times)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, action))

    def run(self, until: Optional[int] = None) -> int:
        """Drain the event queue.

        Stops when the queue is empty or virtual time would pass ``until``.
        Returns the final virtual time.
        """
        queue = self._queue
        while queue:
            when = queue[0][0]
            if until is not None and when > until:
                self.now = until
                break
            _when, _seq, action = heapq.heappop(queue)
            self.now = when
            self.events_executed += 1
            action()
        return self.now

    def run_until_done(self, procs: List[Process],
                       limit: Optional[int] = None) -> int:
        """Run until every process in ``procs`` finished.

        Raises :class:`DeadlockError` if the event queue drains first (some
        process is blocked on a future nobody will resolve) or if ``limit``
        cycles elapse.
        """
        remaining = 0
        for p in procs:
            if not p.done.done:
                remaining += 1

                def _finished(_value):
                    nonlocal remaining
                    remaining -= 1

                p.done.add_callback(_finished)
        queue = self._queue
        heappop = heapq.heappop
        while remaining:
            if not queue:
                stuck = [p.name for p in procs if not p.done.done]
                raise DeadlockError(
                    f"no pending events but processes blocked: {stuck}")
            if limit is not None and queue[0][0] > limit:
                stuck = [p.name for p in procs if not p.done.done]
                raise DeadlockError(
                    f"cycle limit {limit} exceeded; still running: {stuck}")
            when, _seq, action = heappop(queue)
            self.now = when
            self.events_executed += 1
            action()
        return self.now

    def spawn(self, gen: ProcessGen, name: str = "proc") -> Process:
        """Start a generator as a process at the current time."""
        proc = Process(self, gen, name)
        if self.tracer is not None:
            self.tracer.record("sim.spawn", process=name)
        self.schedule(0, proc._resume)
        return proc
