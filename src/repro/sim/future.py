"""One-shot synchronization cells for simulation processes.

A :class:`Future` is resolved exactly once with a value; processes that
``yield`` it are resumed with that value. This is the only blocking primitive
in the kernel — conditions, queues, and locks in the model are built from it.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.common.errors import SimulationError


class Future:
    """A single-assignment value that processes can wait on."""

    __slots__ = ("_done", "_value", "_callbacks", "name")

    def __init__(self, name: str = "") -> None:
        self._done = False
        self._value: Any = None
        self._callbacks: List[Callable[[Any], None]] = []
        self.name = name

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError(f"future {self.name!r} read before resolve")
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Set the value and wake every waiter (exactly once)."""
        if self._done:
            raise SimulationError(f"future {self.name!r} resolved twice")
        self._done = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(value)

    def add_callback(self, cb: Callable[[Any], None]) -> None:
        """Run ``cb(value)`` when resolved (immediately if already done)."""
        if self._done:
            cb(self._value)
        else:
            self._callbacks.append(cb)

    def __repr__(self) -> str:
        state = f"done={self._value!r}" if self._done else "pending"
        return f"Future({self.name!r}, {state})"


class Signal:
    """A reusable broadcast event: each ``wait()`` returns a fresh Future.

    Components that fire repeatedly (e.g. "a transaction committed on this
    core") hand out futures from a Signal; ``fire()`` resolves the current
    batch of waiters.
    """

    __slots__ = ("_waiters", "name")

    def __init__(self, name: str = "") -> None:
        self._waiters: List[Future] = []
        self.name = name

    def wait(self) -> Future:
        fut = Future(f"{self.name}.wait")
        self._waiters.append(fut)
        return fut

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            fut.resolve(value)
        return len(waiters)
