"""Declarative protocol-conformance spec for the three fabrics.

This module is the *table of record* the PC rules check extracted
transition tables against. It encodes, per fabric kind:

* which handler methods carry protocol transitions and under which
  stimulus bindings they are enumerated (``HANDLERS``);
* which ``(stimulus, variant, outcome)`` transitions MUST exist, with
  any effects they must perform (``REQUIRED`` — rule PC001);
* the expected sticky/discharge profile of each transition
  (``STICKY_PROFILES`` — rule PC003): the per-fabric bookkeeping the
  LogTM-SE decoupling demands. The profiles *legitimize* cross-fabric
  divergence where the paper does (broadcast snooping needs no sticky
  states because every request reaches every signature; the multichip
  fabric keeps obligations at two levels), and convict it everywhere
  else;
* whether the fabric is exempt from PC004 (``PC004_EXEMPT`` — a
  broadcast-conflict fabric tracks no obligations, so a
  signature-consulting transition that mutates residency state has
  nothing to discharge).

Semantics derive from ``coherence/invariants.py`` (quiescent-point
audit) and the paper's Table 1: a request either NACKs against a
standing signature or is granted with every compatible-but-covering
signature still reachable by later conflict checks — via sticky cores
and sticky chips, lost-info broadcasts, or check-all states.

The spec deliberately names handlers and helpers by *method name*
(``request``, ``_broadcast_check``, ...), so seeded-defect corpus
variants mirror the real fabrics without importing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

#: Rule id -> one-line description (merged into the analyze catalog).
PROTOCOL_RULES: Dict[str, str] = {
    "PC001": "non-exhaustive protocol table: a required (state, "
             "message) transition has no handling path (or omits a "
             "required action)",
    "PC002": "dead transition: handling code guarded by a statically "
             "unsatisfiable condition",
    "PC003": "cross-fabric divergence: a stimulus is handled with "
             "sticky/discharge effects different from the fabric's "
             "declared decoupling profile",
    "PC004": "signature-consulting transition mutates line state "
             "without discharging or converting the sticky obligation",
}

#: Helper methods spliced (path-sensitively inlined) into handler
#: paths; everything else resolvable is flattened to an effect summary.
SPLICE_HELPERS = frozenset({
    "_request_locked", "_broadcast_check", "_targeted_check",
    "_intra_chip", "_inter_chip", "_apply_grant",
})

#: Guard tests that never fork a path (pure observability).
NONFORKING_TESTS = frozenset({
    "self.stats.recorder is not None",
})


@dataclass(frozen=True)
class StimulusBinding:
    """One enumeration of a handler: fixed stimulus + parameter values.

    ``variant`` of ``None`` means the variant is derived from the call
    trail by :func:`variant_of` (request handlers); otherwise it is
    fixed (notification handlers).
    """

    stimulus: str
    variant: Optional[str]
    bindings: Mapping[str, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class HandlerSpec:
    """One protocol-carrying handler method of a fabric class."""

    name: str
    kind: str                       # "request" | "notify"
    stimuli: Tuple[StimulusBinding, ...]


_REQUEST_STIMULI = (
    StimulusBinding("GETS", None, {"is_write": False}),
    StimulusBinding("GETM", None, {"is_write": True}),
)
_L1_EVICT_STIMULI = (
    StimulusBinding("L1_EVICT", "tx", {"transactional": True}),
    StimulusBinding("L1_EVICT", "plain", {"transactional": False}),
)

#: fabric kind -> protocol handlers (method name keyed).
HANDLERS: Dict[str, Tuple[HandlerSpec, ...]] = {
    "directory": (
        HandlerSpec("request", "request", _REQUEST_STIMULI),
        HandlerSpec("l1_evicted", "notify", _L1_EVICT_STIMULI),
        HandlerSpec("_l2_victimized", "notify",
                    (StimulusBinding("L2_EVICT", "-"),)),
        HandlerSpec("scrub_block", "notify",
                    (StimulusBinding("SCRUB", "-"),)),
        HandlerSpec("note_relocated_block", "notify",
                    (StimulusBinding("RELOCATE", "-"),)),
    ),
    "snooping": (
        HandlerSpec("request", "request", _REQUEST_STIMULI),
        HandlerSpec("l1_evicted", "notify", _L1_EVICT_STIMULI),
        HandlerSpec("scrub_block", "notify",
                    (StimulusBinding("SCRUB", "-"),)),
    ),
    "multichip": (
        HandlerSpec("request", "request", _REQUEST_STIMULI),
        HandlerSpec("l1_evicted", "notify", _L1_EVICT_STIMULI),
        HandlerSpec("_chip_l2_victimized", "notify",
                    (StimulusBinding("L2_EVICT", "-"),)),
        HandlerSpec("scrub_block", "notify",
                    (StimulusBinding("SCRUB", "-"),)),
        HandlerSpec("note_relocated_block", "notify",
                    (StimulusBinding("RELOCATE", "-"),)),
    ),
}


def variant_of(fabric_kind: str, trail: Tuple[str, ...]) -> str:
    """Request variant from the handler call trail."""
    if fabric_kind == "directory":
        return "broadcast" if "_broadcast_check" in trail else "targeted"
    if fabric_kind == "multichip":
        return "inter" if "_inter_chip" in trail else "intra"
    return "snoop"


# ---------------------------------------------------------------------------
# PC001: required transitions (and required effects within them)
# ---------------------------------------------------------------------------

#: fabric kind -> {(stimulus, variant, outcome): required effect set}.
#: A key missing from the extracted table, or present without every
#: required effect in its union, is a PC001 conviction.
REQUIRED: Dict[str, Dict[Tuple[str, str, str], FrozenSet[str]]] = {
    "directory": {
        ("GETS", "targeted", "grant"): frozenset({"msg:DATA"}),
        ("GETS", "targeted", "nack"): frozenset({"msg:NACK"}),
        ("GETM", "targeted", "grant"): frozenset({"msg:DATA"}),
        ("GETM", "targeted", "nack"): frozenset({"msg:NACK"}),
        ("GETS", "broadcast", "grant"): frozenset({"msg:rebuild"}),
        ("GETS", "broadcast", "nack"): frozenset({"msg:NACK"}),
        ("GETM", "broadcast", "grant"): frozenset({"msg:rebuild"}),
        ("GETM", "broadcast", "nack"): frozenset({"msg:NACK"}),
        ("L1_EVICT", "tx", "done"): frozenset(),
        ("L1_EVICT", "plain", "done"): frozenset(),
        ("L2_EVICT", "-", "done"): frozenset(),
        ("SCRUB", "-", "done"): frozenset({"call:invalidate_block"}),
        ("RELOCATE", "-", "done"): frozenset(),
    },
    "snooping": {
        ("GETS", "snoop", "grant"): frozenset({"msg:snoop"}),
        ("GETS", "snoop", "nack"): frozenset({"msg:snoop"}),
        ("GETM", "snoop", "grant"): frozenset({"msg:snoop"}),
        ("GETM", "snoop", "nack"): frozenset({"msg:snoop"}),
        ("L1_EVICT", "tx", "done"): frozenset(),
        ("L1_EVICT", "plain", "done"): frozenset(),
        ("SCRUB", "-", "done"): frozenset({"call:invalidate_block"}),
    },
    "multichip": {
        ("GETS", "intra", "grant"): frozenset({"msg:DATA"}),
        ("GETS", "intra", "nack"): frozenset({"msg:NACK"}),
        ("GETM", "intra", "grant"): frozenset({"msg:DATA"}),
        ("GETM", "intra", "nack"): frozenset({"msg:NACK"}),
        ("GETS", "inter", "grant"): frozenset(),
        ("GETS", "inter", "nack"): frozenset(),
        ("GETM", "inter", "grant"): frozenset(),
        ("GETM", "inter", "nack"): frozenset(),
        ("L1_EVICT", "tx", "done"): frozenset(),
        ("L1_EVICT", "plain", "done"): frozenset(),
        ("L2_EVICT", "-", "done"): frozenset(),
        ("SCRUB", "-", "done"): frozenset({"call:invalidate_block"}),
        ("RELOCATE", "-", "done"): frozenset(),
    },
}


# ---------------------------------------------------------------------------
# PC003: sticky/discharge profiles
# ---------------------------------------------------------------------------

#: Profile markers (computed by ``repro.analysis.protocol.profile_of``):
#:
#: ``STICKY_SET`` / ``CHIP_STICKY_SET``      new per-core / per-chip
#:     sticky obligations are recorded;
#: ``STICKY_DISCHARGE_GUARDED``              per-core sticky state is
#:     discharged *and* the transition consults
#:     ``holds_transactional`` (selective discharge);
#: ``STICKY_DISCHARGE_UNGUARDED``            per-core sticky state is
#:     discharged with no signature consultation (always a
#:     divergence on the fabrics that declare the guarded form);
#: ``CHIP_STICKY_DISCHARGE``                 memory-level sticky chips
#:     are discharged;
#: ``LOST_INFO`` / ``CHECK_ALL``             the broadcast-rebuild
#:     obligations are set;
#: ``E_STICKY_GUARDED``                      every path that grants
#:     EXCLUSIVE branched on a sticky predicate;
#: ``E_SIG_GUARDED``                         every path that grants
#:     EXCLUSIVE branched on a ``holds_transactional`` consultation.
STICKY_PROFILES: Dict[str, Dict[Tuple[str, str, str], FrozenSet[str]]] = {
    "directory": {
        ("GETS", "targeted", "grant"): frozenset(
            {"STICKY_DISCHARGE_GUARDED", "E_STICKY_GUARDED"}),
        ("GETM", "targeted", "grant"): frozenset(
            {"STICKY_DISCHARGE_GUARDED"}),
        ("GETS", "targeted", "nack"): frozenset(),
        ("GETM", "targeted", "nack"): frozenset(),
        ("GETS", "broadcast", "grant"): frozenset(
            {"STICKY_SET", "CHECK_ALL", "STICKY_DISCHARGE_GUARDED",
             "E_STICKY_GUARDED"}),
        ("GETM", "broadcast", "grant"): frozenset(
            {"STICKY_SET", "CHECK_ALL", "STICKY_DISCHARGE_GUARDED"}),
        ("GETS", "broadcast", "nack"): frozenset(
            {"STICKY_SET", "CHECK_ALL"}),
        ("GETM", "broadcast", "nack"): frozenset(
            {"STICKY_SET", "CHECK_ALL"}),
        ("L1_EVICT", "tx", "done"): frozenset({"STICKY_SET"}),
        ("L1_EVICT", "plain", "done"): frozenset(),
        ("L2_EVICT", "-", "done"): frozenset(
            {"LOST_INFO", "STICKY_DISCHARGE_GUARDED"}),
        ("SCRUB", "-", "done"): frozenset({"STICKY_SET"}),
        ("RELOCATE", "-", "done"): frozenset({"CHECK_ALL"}),
    },
    "snooping": {
        # Broadcast conflict checks reach every signature on every
        # request: the legitimate profile is *no* sticky bookkeeping
        # anywhere, with E grants guarded by a live signature snoop.
        ("GETS", "snoop", "grant"): frozenset({"E_SIG_GUARDED"}),
        ("GETM", "snoop", "grant"): frozenset(),
        ("GETS", "snoop", "nack"): frozenset(),
        ("GETM", "snoop", "nack"): frozenset(),
        ("L1_EVICT", "tx", "done"): frozenset(),
        ("L1_EVICT", "plain", "done"): frozenset(),
        ("SCRUB", "-", "done"): frozenset(),
    },
    "multichip": {
        ("GETS", "intra", "grant"): frozenset(
            {"STICKY_DISCHARGE_GUARDED", "E_STICKY_GUARDED"}),
        ("GETM", "intra", "grant"): frozenset(
            {"STICKY_DISCHARGE_GUARDED"}),
        ("GETS", "intra", "nack"): frozenset(),
        ("GETM", "intra", "nack"): frozenset(),
        ("GETS", "inter", "grant"): frozenset(
            {"STICKY_DISCHARGE_GUARDED", "E_STICKY_GUARDED",
             "CHIP_STICKY_DISCHARGE"}),
        ("GETM", "inter", "grant"): frozenset(
            {"STICKY_DISCHARGE_GUARDED", "CHIP_STICKY_DISCHARGE"}),
        ("GETS", "inter", "nack"): frozenset(),
        ("GETM", "inter", "nack"): frozenset(),
        ("L1_EVICT", "tx", "done"): frozenset({"STICKY_SET"}),
        ("L1_EVICT", "plain", "done"): frozenset(),
        ("L2_EVICT", "-", "done"): frozenset(
            {"STICKY_SET", "CHIP_STICKY_SET",
             "STICKY_DISCHARGE_GUARDED"}),
        ("SCRUB", "-", "done"): frozenset(
            {"STICKY_SET", "CHIP_STICKY_SET"}),
        ("RELOCATE", "-", "done"): frozenset(
            {"STICKY_SET", "CHIP_STICKY_SET"}),
    },
}

#: Fabrics where PC004 does not apply: conflict checks are broadcast,
#: so there is no obligation to discharge or convert.
PC004_EXEMPT = frozenset({"snooping"})


# ---------------------------------------------------------------------------
# Fabric-kind detection
# ---------------------------------------------------------------------------

#: A class is treated as a fabric when it defines at least this many of
#: the handler names below (keeps ``DirectoryEntry``/shims out).
_FABRIC_MARKER_METHODS = frozenset({"request", "l1_evicted",
                                    "scrub_block"})
_FABRIC_MIN_MARKERS = 2

_KIND_PATTERNS: Tuple[Tuple[str, str], ...] = (
    ("multichip", "multichip"),
    ("chip", "multichip"),
    ("directory", "directory"),
    ("snoop", "snooping"),
)


def fabric_kind_of(class_name: str, method_names) -> Optional[str]:
    """The fabric kind a class implements, or None when it is not a
    fabric (or its kind cannot be identified)."""
    methods = set(method_names)
    if len(_FABRIC_MARKER_METHODS & methods) < _FABRIC_MIN_MARKERS:
        return None
    lowered = class_name.lower()
    for pattern, kind in _KIND_PATTERNS:
        if pattern in lowered:
            return kind
    return None


def handlers_for(kind: str) -> Tuple[HandlerSpec, ...]:
    return HANDLERS[kind]


def required_for(kind: str) -> Dict[Tuple[str, str, str],
                                    FrozenSet[str]]:
    return REQUIRED[kind]


def profiles_for(kind: str) -> Dict[Tuple[str, str, str],
                                    FrozenSet[str]]:
    return STICKY_PROFILES[kind]


__all__ = [
    "HANDLERS", "HandlerSpec", "NONFORKING_TESTS", "PC004_EXEMPT",
    "PROTOCOL_RULES", "REQUIRED", "SPLICE_HELPERS", "STICKY_PROFILES",
    "StimulusBinding", "fabric_kind_of", "handlers_for",
    "profiles_for", "required_for", "variant_of",
]
