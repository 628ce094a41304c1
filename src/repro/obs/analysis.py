"""Analyzers over observability event streams.

Three lenses on a recorded run:

* :func:`reconstruct` — per-transaction lifecycle records
  (:class:`TxAttempt`): when each outer attempt started, how it ended, how
  often it stalled, and (for aborts) why.
* :class:`ConflictGraph` — who-blocked-whom over NACK edges, built from
  ``tm.conflict`` events. Hot spots in the graph are the contended data.
* abort/stall **attribution** — :func:`classify_abort` maps an abort's
  recorded cause to one of :data:`CATEGORIES`; :class:`AbortAttribution`
  tallies a run either from events (:func:`attribute_aborts`) or, with no
  trace attached, from the ``tm.aborts.*`` counters
  (:meth:`AbortAttribution.from_counters`).

The attribution taxonomy mirrors the paper's discussion of conflict
sources: a *true conflict* is a data race the programmer wrote; a
*false positive* is signature aliasing (Section 3 of the paper — the cost
of imprecise read/write sets); *sticky* aborts arrive through stale sticky
directory states after victimization (Section 4); *capacity* aborts come
from lost-info broadcasts when the directory itself victimized the block;
*summary* aborts are hits on a descheduled transaction's summary signature
(Section 5). Everything non-conflicting (preemption, squash, explicit
user abort) is *other*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.events import Event

#: Attribution categories, in reporting order.
CATEGORIES: Tuple[str, ...] = ("true_conflict", "false_positive", "sticky",
                               "capacity", "summary", "other")

#: Abort causes that represent a conflict with another thread (everything
#: else — preemption, squash, explicit — classifies as "other").
_CONFLICT_CAUSES = frozenset({"conflict", "remote", "summary"})


def classify_abort(cause: Optional[str], fp: bool = False,
                   via: str = "targeted") -> str:
    """Map an abort's recorded (cause, fp, via) to an attribution category.

    Precedence: summary hits first (they are a distinct mechanism even when
    the underlying address would have aliased), then signature false
    positives (``fp`` means *every* blocker matched only by aliasing —
    regardless of the path the conflict arrived on), then the arrival path
    (sticky forwarding / lost-info broadcast), and only then true conflict.
    """
    if cause not in _CONFLICT_CAUSES:
        return "other"
    if cause == "summary":
        return "summary"
    if fp:
        return "false_positive"
    if via == "sticky":
        return "sticky"
    if via == "broadcast":
        return "capacity"
    return "true_conflict"


def dominant_via(vias: Iterable[str]) -> str:
    """Collapse several blockers' arrival paths to the one to report.

    A single sticky or broadcast edge is enough to taint the conflict with
    that mechanism; sticky outranks broadcast (it is the more specific
    decoupling artifact).
    """
    dominant = "targeted"
    for via in vias:
        if via == "sticky":
            return "sticky"
        if via == "broadcast":
            dominant = "broadcast"
    return dominant


# ---------------------------------------------------------------------------
# transaction lifecycle reconstruction
# ---------------------------------------------------------------------------

@dataclass
class TxAttempt:
    """One outer transaction attempt, reconstructed from ``tm.*`` events."""

    thread: int
    start: int
    end: Optional[int] = None
    outcome: str = "open"          # "commit" | "abort" | "open"
    stalls: int = 0
    conflicts: int = 0
    inner_aborts: int = 0
    cause: Optional[str] = None    # recorded abort cause, if aborted
    category: Optional[str] = None  # attribution category, if aborted

    @property
    def duration(self) -> Optional[int]:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {"thread": self.thread, "start": self.start, "end": self.end,
                "outcome": self.outcome, "stalls": self.stalls,
                "conflicts": self.conflicts,
                "inner_aborts": self.inner_aborts,
                "cause": self.cause, "category": self.category}


def reconstruct(events: Iterable[Event],
                thread: Optional[int] = None) -> List[TxAttempt]:
    """Rebuild outer transaction attempts from a ``tm.*`` event stream.

    Events for other namespaces are ignored; pass ``thread`` to restrict to
    one thread. Attempts still open when the stream ends keep
    ``outcome="open"``.
    """
    open_attempts: Dict[int, TxAttempt] = {}
    attempts: List[TxAttempt] = []
    for event in events:
        tid = event.fields.get("thread")
        if tid is None or (thread is not None and tid != thread):
            continue
        current = open_attempts.get(tid)
        if event.kind == "tm.begin" and event.fields.get("depth") == 1:
            current = TxAttempt(thread=tid, start=event.time)
            open_attempts[tid] = current
            attempts.append(current)
        elif current is None:
            continue
        elif event.kind == "tm.stall":
            current.stalls += 1
        elif event.kind == "tm.conflict":
            current.conflicts += 1
        elif event.kind == "tm.commit" and event.fields.get("outer"):
            current.end = event.time
            current.outcome = "commit"
            del open_attempts[tid]
        elif event.kind == "tm.abort":
            if event.fields.get("outer", True):
                current.end = event.time
                current.outcome = "abort"
                current.cause = event.fields.get("cause")
                current.category = event.fields.get("category") or \
                    classify_abort(event.fields.get("cause"),
                                   bool(event.fields.get("fp", False)),
                                   str(event.fields.get("via", "targeted")))
                del open_attempts[tid]
            else:
                current.inner_aborts += 1
    return attempts


# ---------------------------------------------------------------------------
# conflict graph
# ---------------------------------------------------------------------------

@dataclass
class ConflictEdge:
    """Aggregated NACK edge: ``src`` (blocker) held off ``dst`` (requester)."""

    src: int
    dst: int
    count: int = 0
    false_positives: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"src": self.src, "dst": self.dst, "count": self.count,
                "false_positives": self.false_positives}


class ConflictGraph:
    """Directed multigraph of conflicts, aggregated per (blocker, victim).

    Built from ``tm.conflict`` events, whose ``blockers`` field is a
    sequence of ``(thread, fp, via)`` triples (bare thread ids are also
    accepted). An edge src → dst means src's signature NACKed dst's
    request.
    """

    def __init__(self) -> None:
        self._edges: Dict[Tuple[int, int], ConflictEdge] = {}

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "ConflictGraph":
        graph = cls()
        for event in events:
            if event.kind != "tm.conflict":
                continue
            victim = event.fields.get("thread")
            if victim is None:
                continue
            for blocker in event.fields.get("blockers", ()):
                if isinstance(blocker, (tuple, list)):
                    src = int(blocker[0])
                    fp = bool(blocker[1]) if len(blocker) > 1 else False
                else:
                    src, fp = int(blocker), False
                graph.add(src, int(victim), fp=fp)
        return graph

    def add(self, src: int, dst: int, fp: bool = False) -> None:
        edge = self._edges.get((src, dst))
        if edge is None:
            edge = self._edges[(src, dst)] = ConflictEdge(src, dst)
        edge.count += 1
        if fp:
            edge.false_positives += 1

    def edges(self) -> List[ConflictEdge]:
        """All edges, heaviest first (ties broken by endpoint ids)."""
        return sorted(self._edges.values(),
                      key=lambda e: (-e.count, e.src, e.dst))

    def nodes(self) -> List[int]:
        out = set()
        for src, dst in self._edges:
            out.add(src)
            out.add(dst)
        return sorted(out)

    def to_dict(self) -> Dict[str, Any]:
        return {"nodes": self.nodes(),
                "edges": [e.to_dict() for e in self.edges()]}


# ---------------------------------------------------------------------------
# abort / stall attribution
# ---------------------------------------------------------------------------

@dataclass
class AbortAttribution:
    """Per-category tallies of one run's aborts (or stalls)."""

    counts: Dict[str, int] = field(
        default_factory=lambda: {cat: 0 for cat in CATEGORIES})

    def add(self, category: str, n: int = 1) -> None:
        if category not in self.counts:
            category = "other"
        self.counts[category] += n

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def to_dict(self) -> Dict[str, int]:
        return {cat: self.counts[cat] for cat in CATEGORIES}

    @classmethod
    def from_counters(cls, counters: Dict[str, int]) -> "AbortAttribution":
        """Rebuild attribution from ``tm.aborts.<category>`` counters.

        This is the traceless path: the manager keeps per-category counters
        even when no bus is attached, so ``RunResult.counters`` always
        carries the split.
        """
        attribution = cls()
        for cat in CATEGORIES:
            attribution.counts[cat] = int(
                counters.get(f"tm.aborts.{cat}", 0))
        return attribution

    def __str__(self) -> str:
        parts = [f"{cat}={self.counts[cat]}" for cat in CATEGORIES
                 if self.counts[cat]]
        return f"AbortAttribution({', '.join(parts) or 'empty'})"


def attribute_aborts(events: Iterable[Event]) -> AbortAttribution:
    """Tally outer aborts in an event stream per attribution category."""
    attribution = AbortAttribution()
    for event in events:
        if event.kind != "tm.abort" or not event.fields.get("outer", True):
            continue
        category = event.fields.get("category") or classify_abort(
            event.fields.get("cause"),
            bool(event.fields.get("fp", False)),
            str(event.fields.get("via", "targeted")))
        attribution.add(category)
    return attribution


def attribute_stalls(events: Iterable[Event]) -> AbortAttribution:
    """Tally ``tm.stall`` events per category (a stall is by definition a
    conflict that was resolved by waiting, so ``cause="conflict"``)."""
    attribution = AbortAttribution()
    for event in events:
        if event.kind != "tm.stall":
            continue
        attribution.add(classify_abort(
            "conflict", bool(event.fields.get("fp", False)),
            str(event.fields.get("via", "targeted"))))
    return attribution


def render_attribution(attribution: AbortAttribution,
                       title: str = "Abort attribution") -> str:
    """Small fixed-width table of the category split."""
    lines = [title, "-" * len(title)]
    total = attribution.total
    for cat in CATEGORIES:
        count = attribution.counts[cat]
        pct = 100.0 * count / total if total else 0.0
        lines.append(f"{cat:<16} {count:>8} {pct:>6.1f}%")
    lines.append(f"{'total':<16} {total:>8}")
    return "\n".join(lines)
