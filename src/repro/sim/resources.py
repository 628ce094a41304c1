"""Shared-resource primitives built on the process/future model.

These model *simulation-level* mutual exclusion (e.g. one coherence
transaction holding a directory entry), not the locks that workloads use —
those are simulated through memory operations in :mod:`repro.core.locks`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.common.errors import SimulationError
from repro.sim.future import Future


class SimLock:
    """FIFO mutex for processes.

    Usage inside a process generator::

        yield from lock.acquire()
        try:
            ...
        finally:
            lock.release()
    """

    __slots__ = ("_held", "_waiters", "name")

    def __init__(self, name: str = "lock") -> None:
        self._held = False
        self._waiters: Deque[Future] = deque()
        self.name = name

    @property
    def held(self) -> bool:
        return self._held

    def acquire(self):
        """Process sub-generator that returns once the lock is owned."""
        if not self._held:
            self._held = True
            return
        fut = Future(f"{self.name}.acquire")
        self._waiters.append(fut)
        yield fut
        # Ownership was transferred to us by release(); _held stays True.

    def release(self) -> None:
        if not self._held:
            raise SimulationError(f"release of unheld lock {self.name}")
        if self._waiters:
            # Hand the lock directly to the next waiter (no barging).
            self._waiters.popleft().resolve(None)
        else:
            self._held = False
