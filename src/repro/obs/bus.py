"""The event bus and its in-memory sink.

:class:`EventBus` is the fan-out point between emitters (every model
component that calls ``stats.emit(...)``) and consumers (ring-buffer logs,
the sweep service's event counts, streaming exporters). It is attached to
a system through :meth:`repro.harness.system.System.attach_bus`; the
registry's ``emit`` is one attribute check when nothing is attached, so
instrumentation is zero-cost in ordinary (untraced) runs.

:class:`RingBufferLog` is the standard sink: a bounded deque of events with
query helpers. Transaction lifecycles are rebuilt from its events by
:func:`repro.obs.analysis.reconstruct`.
"""

from __future__ import annotations

from collections import Counter as _Counter
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Set

from repro.obs.events import Event, namespace_of, validate_kind

#: A subscriber: any callable taking one :class:`Event`.
Subscriber = Callable[[Event], None]


class EventBus:
    """Dispatches typed events to subscribers.

    ``clock`` supplies the virtual timestamp (usually ``lambda:
    system.sim.now``). Subscribers may restrict themselves to exact kinds
    and/or namespaces; with no restriction they receive everything.
    ``strict=True`` validates every emitted kind against the documented
    taxonomy — useful in tests to catch typo'd instrumentation.
    """

    def __init__(self, clock: Callable[[], int],
                 strict: bool = False) -> None:
        self._clock = clock
        self.strict = strict
        #: (subscriber, exact kinds or None, namespaces or None)
        self._subs: List[tuple] = []
        self.emitted = 0

    # -- subscription ------------------------------------------------------

    def subscribe(self, subscriber: Subscriber,
                  kinds: Optional[Iterable[str]] = None,
                  namespaces: Optional[Iterable[str]] = None) -> Subscriber:
        """Register a subscriber; returns it (handy for chaining)."""
        kind_set: Optional[Set[str]] = set(kinds) if kinds else None
        ns_set: Optional[Set[str]] = set(namespaces) if namespaces else None
        self._subs.append((subscriber, kind_set, ns_set))
        return subscriber

    # -- emission ----------------------------------------------------------

    def record(self, kind: str, **fields: Any) -> None:
        """Build an event at the current virtual time and dispatch it.

        This is the signature ``StatsRegistry.emit`` calls, so a bus can
        sit directly behind ``StatsRegistry.recorder``.
        """
        if self.strict:
            validate_kind(kind)
        self.publish(Event(self._clock(), kind, fields))

    def publish(self, event: Event) -> None:
        """Dispatch a pre-built event to every matching subscriber."""
        # Advisory counter, baselined in ANALYSIS_BASELINE.json: a lost
        # increment under concurrent publishes skews a debugging stat,
        # never a result; locking the publish fast path isn't worth it.
        self.emitted += 1
        for sub, kind_set, ns_set in self._subs:
            if kind_set is None and ns_set is None:
                sub(event)
            elif ((kind_set is not None and event.kind in kind_set)
                  or (ns_set is not None
                      and namespace_of(event.kind) in ns_set)):
                sub(event)


class RingBufferLog:
    """Bounded in-memory event log with query helpers.

    Subscribes to a bus (it is callable) or receives events directly via
    :meth:`append`. ``kinds`` filters what is kept: an entry matches an
    exact kind (``"tm.commit"``) or a whole namespace (``"tm"``).
    """

    def __init__(self, max_events: int = 100_000,
                 kinds: Optional[Iterable[str]] = None) -> None:
        if max_events < 1:
            raise ValueError("max_events must be positive")
        self._events: Deque[Event] = deque(maxlen=max_events)
        self._kinds = set(kinds) if kinds is not None else None
        self.dropped = 0

    def _wanted(self, kind: str) -> bool:
        if self._kinds is None:
            return True
        return kind in self._kinds or namespace_of(kind) in self._kinds

    def __call__(self, event: Event) -> None:
        self.append(event)

    def append(self, event: Event) -> None:
        if not self._wanted(event.kind):
            return
        if len(self._events) == self._events.maxlen:
            # Advisory counter: the deque append itself is GIL-atomic; an
            # under-count of drops under concurrent appends is acceptable
            # for a debug stat.
            self.dropped += 1
        self._events.append(event)

    # -- queries -----------------------------------------------------------

    def events(self, kind: Optional[str] = None,
               thread: Optional[int] = None) -> List[Event]:
        out = []
        for event in self._events:
            if kind is not None and event.kind != kind:
                continue
            if thread is not None and event.fields.get("thread") != thread:
                continue
            out.append(event)
        return out

    def __len__(self) -> int:
        return len(self._events)

    def counts(self) -> Dict[str, int]:
        return dict(_Counter(e.kind for e in self._events))

    def render(self, limit: int = 50) -> str:
        """Human-readable tail of the log."""
        tail = list(self._events)[-limit:]
        return "\n".join(str(e) for e in tail)
