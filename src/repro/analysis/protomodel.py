"""Data model for extracted coherence-protocol transition tables.

The protocol extractor (:mod:`repro.analysis.protocol`) walks a fabric
class's handler methods and produces, per handler path, one
:class:`TransitionPath`: the *stimulus* that entered the handler (a
GETS/GETM request, an L1/L2 victimization, an OS scrub or relocation),
the *guard atoms* the path branched on, the ordered *effects* it
performs, and the *outcome* it returns. Paths aggregate into
:class:`Transition` records keyed by ``(stimulus, variant, outcome)``
— the same keys the model-checker coverage pass
(:mod:`repro.mc.coverage`) produces dynamically, which is what makes
the static table and the bounded exploration comparable.

Effect vocabulary (strings, so tables serialize trivially):

``msg:<NAME>``
    a network message send with payload tag ``NAME`` (``GETM``,
    ``NACK``, ``DATA``, ``fwd``, ``rebuild``, ``snoop``, ...);
``ctr:<attr>``
    a statistics counter bump (``ctr:_c_nacks``);
``call:<method>``
    a conflict-port consultation (``check_conflicts``,
    ``holds_transactional``, ``invalidate_block``,
    ``downgrade_block``);
``set:/clear:/add:/sub:<attr>``
    a mutation of directory/line state: ``owner``, ``sharers``,
    ``sticky``, ``lost_info``, ``must_check_all``, ``rights``,
    ``owner_chip``, ``sharer_chips``, ``sticky_chips``;
``grant:<MESI>``
    the MESI state a granted request installs (from the grant
    applier's ``return MESI.X``).

The JSON schema emitted by :meth:`TransitionTable.to_json_dict` is
documented in ``docs/analysis.md`` ("Protocol conformance") and the
committed per-fabric tables live under ``docs/protocol_tables/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

#: Directory/line state attributes whose mutations are tracked.
STATE_ATTRS = frozenset({
    "owner", "sharers", "sticky", "lost_info", "must_check_all",
    "rights", "owner_chip", "sharer_chips", "sticky_chips",
})

#: Conflict-port methods whose calls are recorded as consultations.
PORT_METHODS = frozenset({
    "check_conflicts", "holds_transactional", "invalidate_block",
    "downgrade_block", "mark_abort",
})

#: Network primitives whose string payload becomes a ``msg:`` effect.
NETWORK_METHODS = frozenset({
    "core_to_bank", "bank_to_core", "core_to_core",
    "broadcast_from_bank",
})

#: Effects that set or convert a sticky/conservative-check obligation
#: (the LogTM-SE decoupling bookkeeping PC004 audits).
STICKY_OBLIGATION_EFFECTS = frozenset({
    "add:sticky", "sub:sticky", "set:lost_info", "set:must_check_all",
    "add:sticky_chips", "sub:sticky_chips",
})

#: Effects that destroy line/ownership state (who caches what).
DESTRUCTIVE_EFFECTS = frozenset({
    "clear:owner", "clear:sharers", "clear:rights",
    "call:invalidate_block",
})


@dataclass(frozen=True)
class GuardAtom:
    """One branch condition a path took.

    ``text`` is the normalized (whitespace-collapsed) source of the
    test, after substituting simple local bindings and resolving
    conditional expressions under the handler's stimulus bindings.
    ``stable`` is cleared once a later effect on the same path mutates
    a name the test mentions, which is what keeps the PC002 dead-arm
    check sound under intervening state updates.
    """

    text: str
    polarity: bool
    line: int
    stable: bool = True
    #: identifier tokens the test mentions (drives invalidation).
    tokens: FrozenSet[str] = field(default=frozenset(), compare=False,
                                   repr=False)

    def to_dict(self) -> Dict[str, object]:
        return {"text": self.text, "polarity": self.polarity,
                "line": self.line, "stable": self.stable}

    def describe(self) -> str:
        return ("" if self.polarity else "!") + f"({self.text})"


@dataclass
class TransitionPath:
    """One feasible handler path under one stimulus binding."""

    stimulus: str
    variant: str
    outcome: str                  # "grant" | "nack" | "done"
    guards: Tuple[GuardAtom, ...]
    effects: Tuple[str, ...]
    handlers: Tuple[str, ...]     # call trail, entry handler first
    line: int                     # entry handler's definition line

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.stimulus, self.variant, self.outcome)


@dataclass
class Transition:
    """All paths sharing one ``(stimulus, variant, outcome)`` key."""

    stimulus: str
    variant: str
    outcome: str
    paths: List[TransitionPath] = field(default_factory=list)

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.stimulus, self.variant, self.outcome)

    @property
    def effect_union(self) -> Set[str]:
        out: Set[str] = set()
        for path in self.paths:
            out.update(path.effects)
        return out

    @property
    def handlers(self) -> List[str]:
        seen: Dict[str, None] = {}
        for path in self.paths:
            for name in path.handlers:
                seen.setdefault(name)
        return list(seen)

    @property
    def line(self) -> int:
        return min(path.line for path in self.paths)

    def grant_states(self) -> Set[str]:
        """MESI states any path of this transition can install."""
        return {eff.split(":", 1)[1] for eff in self.effect_union
                if eff.startswith("grant:")}

    def to_dict(self) -> Dict[str, object]:
        return {
            "stimulus": self.stimulus,
            "variant": self.variant,
            "outcome": self.outcome,
            "paths": len(self.paths),
            "effects": sorted(self.effect_union),
            "handlers": self.handlers,
        }


class TransitionTable:
    """The extracted transition relation of one fabric class."""

    #: Bump when the JSON layout changes (docs/analysis.md documents it).
    SCHEMA = 1

    def __init__(self, fabric_kind: str, class_name: str, path: str,
                 class_line: int = 1) -> None:
        self.fabric_kind = fabric_kind
        self.class_name = class_name
        self.path = path
        self.class_line = class_line
        self.transitions: Dict[Tuple[str, str, str], Transition] = {}
        #: Handlers whose path enumeration hit the cap; PC001 is
        #: suppressed for a truncated table (missing keys may simply
        #: not have been enumerated).
        self.truncated_handlers: List[str] = []

    def add_path(self, path: TransitionPath) -> None:
        transition = self.transitions.get(path.key)
        if transition is None:
            transition = Transition(path.stimulus, path.variant,
                                    path.outcome)
            self.transitions[path.key] = transition
        transition.paths.append(path)

    def keys(self) -> Set[Tuple[str, str, str]]:
        return set(self.transitions)

    def get(self, key: Tuple[str, str, str]) -> Optional[Transition]:
        return self.transitions.get(key)

    def sorted_transitions(self) -> List[Transition]:
        return [self.transitions[key]
                for key in sorted(self.transitions)]

    @property
    def truncated(self) -> bool:
        return bool(self.truncated_handlers)

    def to_json_dict(self, canonical_path: Optional[str] = None
                     ) -> Dict[str, object]:
        """Stable JSON form (sorted keys, no line numbers: the committed
        tables must not churn when unrelated code above them moves)."""
        return {
            "schema": self.SCHEMA,
            "fabric": self.fabric_kind,
            "class": self.class_name,
            "module": canonical_path if canonical_path is not None
            else self.path,
            "truncated_handlers": sorted(self.truncated_handlers),
            "transitions": [t.to_dict()
                            for t in self.sorted_transitions()],
        }


def render_tables(tables: Sequence[TransitionTable]) -> str:
    """Human-readable multi-table summary for ``--protocol`` text mode."""
    lines: List[str] = []
    for table in tables:
        lines.append(f"{table.fabric_kind} ({table.class_name}, "
                     f"{table.path}): "
                     f"{len(table.transitions)} transition(s)")
        for transition in table.sorted_transitions():
            grants = transition.grant_states()
            suffix = f" -> {{{', '.join(sorted(grants))}}}" if grants \
                else ""
            lines.append(
                f"  {transition.stimulus:<9} {transition.variant:<9} "
                f"{transition.outcome:<5} "
                f"[{len(transition.paths)} path(s)]{suffix}")
        if table.truncated:
            lines.append("  (truncated: "
                         f"{', '.join(sorted(table.truncated_handlers))})")
    return "\n".join(lines)


__all__ = [
    "DESTRUCTIVE_EFFECTS", "GuardAtom", "NETWORK_METHODS",
    "PORT_METHODS", "STATE_ATTRS", "STICKY_OBLIGATION_EFFECTS",
    "Transition", "TransitionPath", "TransitionTable", "render_tables",
]
