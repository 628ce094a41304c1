"""Fuse static transition tables with bounded-exploration reachability.

The protocol extractor (:mod:`repro.analysis.protocol`) claims a fabric
*has* a transition; the model checker (:mod:`repro.mc.checker`) proves a
transition is *reachable*. This module compares the two over the shared
``(stimulus, variant, outcome)`` key space:

* :class:`TransitionCoverage` is a checker observer: attached to
  :func:`repro.mc.check` via its ``observer`` parameter, it classifies
  every explored transition — including NACK self-loops, which the BFS
  itself discards — into a static table key and accumulates the set of
  keys the exploration exercised.
* :func:`compare_coverage` diffs that set against an extracted table and
  reports both directions:

  - **exercised-but-unextracted** — the model checker drove the real
    fabric through a transition the static table does not contain. The
    extractor missed real behavior; this direction gates CI.
  - **extracted-but-unexercised** — statically declared, never reached
    under the explored bound. Expected for stimuli the model never
    generates (``RELOCATE``) or under small state caps; reported for
    eyeballs, not gated.

Key classification is deliberately event-driven: the observer decodes
the ``coh.*`` events each ``model.apply`` emitted rather than guessing
from the action alone, so an access that hit in L1 (no coherence
request) records nothing and a request that cascaded an L2
victimization records both keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.mc.model import Action, ProtocolModel

#: The static/dynamic rendezvous key: (stimulus, variant, outcome).
CoverageKey = Tuple[str, str, str]


class TransitionCoverage:
    """Observer accumulating the static-table keys an exploration hits.

    One instance covers one :func:`repro.mc.check` run. ``fabric_kind``
    must match the model's fabric ("directory" | "snooping" |
    "multichip"); it picks the request-variant classifier.
    """

    def __init__(self, fabric_kind: str) -> None:
        self.fabric_kind = fabric_kind
        self.exercised: Set[CoverageKey] = set()
        #: Transitions observed (including self-loops); a health signal
        #: that the observer actually saw the exploration.
        self.observed = 0
        # The multichip escalation counter monotonically increases and is
        # not part of the encoded state, so a delta across one apply()
        # tells whether that request escalated to the memory directory.
        self._interchip_seen: Optional[int] = None

    # -- checker observer interface -----------------------------------

    def __call__(self, model: ProtocolModel, action: Action,
                 events: List[Tuple[str, Dict[str, object]]],
                 changed: bool) -> None:
        self.observed += 1
        inter = self._interchip_delta(model)
        op = action[0]
        if op in ("read", "write"):
            self._classify_access(model, events, inter)
        elif op == "evict":
            # The fabrics' l1_evicted handlers do not all emit an event;
            # recompute the tx flag the model passed (eviction leaves
            # signatures untouched, so post-apply equals pre-apply).
            addr = model.block_addrs[action[2]]
            tx = model.cores[action[1]].holds_transactional(addr)
            self.exercised.add(("L1_EVICT", "tx" if tx else "plain",
                                "done"))
        elif op == "l2_evict":
            self.exercised.add(("L2_EVICT", "-", "done"))
        elif op == "reuse":
            self.exercised.add(("SCRUB", "-", "done"))
        # begin/commit/abort touch no fabric state: nothing to record.

    # -- classification helpers ---------------------------------------

    def _classify_access(self, model: ProtocolModel,
                         events: List[Tuple[str, Dict[str, object]]],
                         inter: bool) -> None:
        kinds = [kind for kind, _fields in events]
        if "coh.l2_victim" in kinds:
            # A request-path L2 insert victimized a resident block.
            self.exercised.add(("L2_EVICT", "-", "done"))
        # Directory/multichip announce a request with ``coh.request``;
        # the snooping fabric's address-phase marker is ``coh.snoop``.
        request = next((fields for kind, fields in events
                        if kind in ("coh.request", "coh.snoop")), None)
        if request is None:
            return      # L1 hit or sibling block: no coherence request
        stimulus = "GETM" if request["write"] else "GETS"
        if "coh.grant" in kinds:
            outcome = "grant"
        elif "coh.nack" in kinds:
            outcome = "nack"
        else:
            return      # request with neither verdict: not classifiable
        if self.fabric_kind == "directory":
            variant = "broadcast" if "coh.broadcast" in kinds \
                else "targeted"
        elif self.fabric_kind == "multichip":
            variant = "inter" if inter else "intra"
        else:
            variant = "snoop"
        self.exercised.add((stimulus, variant, outcome))

    def _interchip_delta(self, model: ProtocolModel) -> bool:
        """True when the last apply bumped the escalation counter."""
        if self.fabric_kind != "multichip":
            return False
        current = model.stats.value("coherence.interchip_requests")
        previous = self._interchip_seen
        self._interchip_seen = current
        return previous is not None and current != previous


@dataclass
class CoverageReport:
    """Two-way diff of one static table against one exploration."""

    fabric_kind: str
    extracted: Set[CoverageKey] = field(default_factory=set)
    exercised: Set[CoverageKey] = field(default_factory=set)

    @property
    def unextracted(self) -> List[CoverageKey]:
        """MC-exercised but missing from the static table (gates CI)."""
        return sorted(self.exercised - self.extracted)

    @property
    def unexercised(self) -> List[CoverageKey]:
        """Statically declared but never reached under the bound."""
        return sorted(self.extracted - self.exercised)

    @property
    def covered(self) -> List[CoverageKey]:
        return sorted(self.extracted & self.exercised)

    @property
    def clean(self) -> bool:
        """No evidence the extractor missed real fabric behavior."""
        return not self.unextracted

    def to_dict(self) -> Dict[str, object]:
        return {
            "fabric": self.fabric_kind,
            "extracted": len(self.extracted),
            "exercised": len(self.exercised),
            "covered": [list(k) for k in self.covered],
            "unextracted": [list(k) for k in self.unextracted],
            "unexercised": [list(k) for k in self.unexercised],
            "clean": self.clean,
        }

    def render(self) -> str:
        lines = [f"{self.fabric_kind}: {len(self.covered)}/"
                 f"{len(self.extracted)} extracted transition(s) "
                 f"exercised by the model checker"]
        for key in self.unextracted:
            lines.append("  UNEXTRACTED (checker exercised, table "
                         f"missing): {'/'.join(key)}")
        for key in self.unexercised:
            lines.append(f"  unexercised: {'/'.join(key)}")
        return "\n".join(lines)


def compare_coverage(fabric_kind: str, table_keys: Set[CoverageKey],
                     coverage: TransitionCoverage) -> CoverageReport:
    """Diff an extracted table's key set against an exploration's."""
    return CoverageReport(fabric_kind=fabric_kind,
                          extracted=set(table_keys),
                          exercised=set(coverage.exercised))


__all__ = ["CoverageKey", "CoverageReport", "TransitionCoverage",
           "compare_coverage"]
