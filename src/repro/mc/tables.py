"""Observed protocol tables: what each fabric transition did.

The model checker drives the real fabrics (:mod:`repro.mc.model`), so
the tables that document the protocol are recorded, not derived from
the fabrics' source. :class:`TransitionRecorder` is a checker observer
(:func:`repro.mc.check`'s ``observer``). It keys every applied action,
self-loops included, by ``(stimulus, variant, outcome)``:

* ``GETS``/``GETM`` for an access that reached the fabric, with variant
  ``targeted`` or ``broadcast`` (directory), ``intra`` or ``inter``
  (multichip) or ``snoop``, and outcome ``grant`` or ``nack``;
* ``L1_EVICT`` (variant ``tx`` or ``plain``), ``L2_EVICT`` and
  ``SCRUB``, each with outcome ``done``.

As that transition's effects it records

* the ``coh.*`` event kinds the action emitted, a grant with its MESI
  state (``coh.grant:EXCLUSIVE``);
* each fabric state field that differs between the checker's own
  encodings before and after the action: a holder added or removed at
  a directory level (``core.sticky+`` at a core's directory,
  ``chip.sticky+`` at the multichip memory directory), a flag set or
  cleared (``lost_info+``, ``check_all-``, ``l2+``), the chip rights
  (``rights:S->M``) and L1 line transitions (``l1:S->-``, where ``-``
  is an absent line).

An effect is the net change of one atomic transition: a field written
and restored within one action records nothing. A table maps each
observed key to the union of its effects over every action recorded.
``python -m repro.mc.matrix --tables DIR`` writes one per fabric as
``DIR/<fabric>.json``; :data:`CONTRACT` restates the paper's decoupling
argument as effects those tables must show (:func:`violations`).
"""

from __future__ import annotations

import json
import os
from functools import partial
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.mc.model import Action, ProtocolModel

#: One transition: (stimulus, variant, outcome).
Key = Tuple[str, str, str]

#: Observed key -> the effects recorded under it.
Table = Dict[Key, FrozenSet[str]]

#: Version of the JSON layout :func:`write_table` produces.
SCHEMA = 2

#: The name of each field of an encoded fabric cell, by model section
#: (``ProtocolModel.layout``) and, for directory entries, by fabric.
_HOLDER_FIELDS = {"holder": ("core.owner", "core.sharer", "core.sticky"),
                  "chip_holder": ("chip.owner", "chip.sharer",
                                  "chip.sticky")}
_ENTRY_FIELDS = {"directory": ("lost_info", "check_all", "l2"),
                 "multichip": ("rights", "l2")}


def _field_changes(names: Sequence[str], before: Tuple,
                   after: Tuple) -> FrozenSet[str]:
    """A flag as ``name+``/``name-``, any other value as ``name:b->a``."""
    out = set()
    for name, old, new in zip(names, before, after):
        if old == new:
            continue
        if isinstance(new, bool):
            out.add(f"{name}{'+' if new else '-'}")
        else:
            out.add(f"{name}:{old or '-'}->{new or '-'}")
    return frozenset(out)


def _line_change(before: Tuple, after: Tuple) -> FrozenSet[str]:
    """An L1 line's MESI letter, ``-`` when absent (the fill's tenancy
    generation is the model's, not the fabric's)."""
    old = before[0] if before else "-"
    new = after[0] if after else "-"
    return frozenset() if old == new else frozenset({f"l1:{old}->{new}"})


class TransitionRecorder:
    """Checker observer that records an observed table.

    One recorder may watch several explorations of one fabric, one after
    another; :attr:`table` is then their union.
    """

    def __init__(self) -> None:
        self._effects: Dict[Key, set] = {}
        self._model: Optional[ProtocolModel] = None
        #: (position in an encoded state, how a change of it reads).
        self._watched: List[Tuple[int, Callable[[Tuple, Tuple],
                                                 FrozenSet[str]]]] = []
        self._memo: Dict[Tuple, FrozenSet[str]] = {}
        self._interchip = 0

    @property
    def table(self) -> Table:
        return {key: frozenset(effects)
                for key, effects in self._effects.items()}

    def _attach(self, model: ProtocolModel) -> None:
        """Read the field positions of a newly explored model."""
        self._model = model
        self._interchip = 0
        fields = {"entry": _ENTRY_FIELDS.get(model.mcfg.fabric, ()),
                  **_HOLDER_FIELDS}
        describe = {section: partial(_field_changes, names)
                    for section, names in fields.items()}
        describe["line"] = _line_change
        self._watched = [(position, describe[section])
                         for position, (section, _ids)
                         in enumerate(model.layout) if section in describe]
        self._memo = {}

    # -- checker observer interface -------------------------------------

    def __call__(self, model: ProtocolModel, action: Action,
                 events: List[Tuple[str, Dict[str, object]]],
                 before: Tuple, after: Tuple) -> None:
        if model is not self._model:
            self._attach(model)
        key = self._key(model, action, events)
        if key is None:
            return
        effects = self._effects.setdefault(key, set())
        for kind, fields in events:
            if kind == "coh.grant":
                effects.add(f"coh.grant:{fields['state']}")
            elif kind.startswith("coh."):
                effects.add(kind)
        if before == after:
            return
        memo = self._memo
        for position, describe in self._watched:
            old, new = before[position], after[position]
            if old != new:
                change = memo.get((describe, old, new))
                if change is None:
                    change = memo[describe, old, new] = describe(old, new)
                effects |= change

    def _key(self, model: ProtocolModel, action: Action,
             events: List[Tuple[str, Dict[str, object]]]) -> Optional[Key]:
        """The transition an applied action ran, or None when it ran
        none (begin, commit, abort; an access that hit in its L1 or
        stalled before reaching the fabric)."""
        op = action[0]
        if op in ("read", "write"):
            return self._access_key(model, op, events)
        if op == "evict":
            # Eviction leaves signatures untouched: after the action,
            # the core still holds the block exactly as the model
            # passed it to the fabric.
            addr = model.block_addrs[action[2]]
            tx = model.cores[action[1]].holds_transactional(addr)
            return ("L1_EVICT", "tx" if tx else "plain", "done")
        if op == "l2_evict":
            return ("L2_EVICT", "-", "done")
        if op == "reuse":
            return ("SCRUB", "-", "done")
        return None

    def _access_key(self, model: ProtocolModel, op: str,
                    events: List[Tuple[str, Dict[str, object]]]
                    ) -> Optional[Key]:
        kinds = {kind for kind, _fields in events}
        fabric = model.mcfg.fabric
        if fabric == "multichip":
            # The escalation counter is not encoded state: a change
            # across one action says the request reached memory.
            count = model.stats.value("coherence.interchip_requests")
            variant = "inter" if count != self._interchip else "intra"
            self._interchip = count
        elif fabric == "directory":
            variant = "broadcast" if "coh.broadcast" in kinds \
                else "targeted"
        else:
            variant = "snoop"
        if not kinds & {"coh.request", "coh.snoop"}:
            return None
        outcome = ("grant" if "coh.grant" in kinds
                   else "nack" if "coh.nack" in kinds else None)
        if outcome is None:
            return None
        return ("GETM" if op == "write" else "GETS", variant, outcome)


# -- the paper's contract ----------------------------------------------------

#: Per fabric, every transition the paper's argument needs, with the
#: effects its observed table must show. The directory fabrics record a
#: core that may still cover a block it no longer caches as a sticky
#: holder (§3.1), set lost-info when the L2 drops a block and check-all
#: when a rebuild broadcast NACKs (§5), and every fabric invalidates L1
#: copies of a scrubbed frame (§4.2). A sticky holder that is
#: discharged too early, or an E grant past a covering signature, is a
#: state the checker's ``read-coverage`` and ``tm-isolation``
#: invariants convict (the ``sticky-discharge`` and ``eager-e-grant``
#: rows of :mod:`repro.mc.matrix`).
CONTRACT: Dict[str, Dict[Key, FrozenSet[str]]] = {
    "directory": {
        ("GETS", "targeted", "grant"): frozenset({"coh.grant:SHARED"}),
        ("GETS", "targeted", "nack"): frozenset({"coh.nack"}),
        ("GETM", "targeted", "grant"): frozenset({"coh.grant:MODIFIED"}),
        ("GETM", "targeted", "nack"): frozenset({"coh.nack"}),
        ("GETS", "broadcast", "grant"): frozenset(
            {"coh.broadcast", "coh.grant:SHARED", "core.sticky+"}),
        ("GETS", "broadcast", "nack"): frozenset(
            {"coh.broadcast", "coh.nack", "core.sticky+", "check_all+"}),
        ("GETM", "broadcast", "grant"): frozenset(
            {"coh.broadcast", "coh.grant:MODIFIED"}),
        ("GETM", "broadcast", "nack"): frozenset(
            {"coh.broadcast", "coh.nack", "core.sticky+", "check_all+"}),
        ("L1_EVICT", "tx", "done"): frozenset({"core.sticky+"}),
        ("L1_EVICT", "plain", "done"): frozenset(),
        ("L2_EVICT", "-", "done"): frozenset({"lost_info+"}),
        ("SCRUB", "-", "done"): frozenset({"l1:S->-", "core.sticky+"}),
    },
    "snooping": {
        ("GETS", "snoop", "grant"): frozenset(
            {"coh.snoop", "coh.grant:SHARED"}),
        ("GETS", "snoop", "nack"): frozenset({"coh.snoop", "coh.nack"}),
        ("GETM", "snoop", "grant"): frozenset(
            {"coh.snoop", "coh.grant:MODIFIED"}),
        ("GETM", "snoop", "nack"): frozenset({"coh.snoop", "coh.nack"}),
        ("L1_EVICT", "tx", "done"): frozenset(),
        ("L1_EVICT", "plain", "done"): frozenset(),
        ("SCRUB", "-", "done"): frozenset({"l1:S->-"}),
    },
    "multichip": {
        ("GETS", "intra", "grant"): frozenset({"coh.grant:SHARED"}),
        ("GETS", "intra", "nack"): frozenset({"coh.nack"}),
        ("GETM", "intra", "grant"): frozenset({"coh.grant:MODIFIED"}),
        ("GETM", "intra", "nack"): frozenset({"coh.nack"}),
        ("GETS", "inter", "grant"): frozenset({"coh.grant:SHARED"}),
        ("GETS", "inter", "nack"): frozenset({"coh.nack"}),
        ("GETM", "inter", "grant"): frozenset({"coh.grant:MODIFIED"}),
        ("GETM", "inter", "nack"): frozenset({"coh.nack"}),
        ("L1_EVICT", "tx", "done"): frozenset({"core.sticky+"}),
        ("L1_EVICT", "plain", "done"): frozenset(),
        ("L2_EVICT", "-", "done"): frozenset(
            {"core.sticky+", "chip.sticky+"}),
        ("SCRUB", "-", "done"): frozenset(
            {"l1:S->-", "core.sticky+", "chip.sticky+"}),
    },
}


def name(key: Key) -> str:
    """``GETS/targeted/grant``: a key as the JSON tables spell it."""
    return "/".join(key)


def violations(fabric: str, table: Table) -> List[str]:
    """Where ``table`` falls short of :data:`CONTRACT`: one line per
    transition never observed and per required effect it never showed."""
    out: List[str] = []
    for key, required in sorted(CONTRACT[fabric].items()):
        if key not in table:
            out.append(f"{name(key)}: never observed")
            continue
        out += [f"{name(key)}: never {effect}"
                for effect in sorted(required - table[key])]
    return out


def outside(observed: Table, committed: Table) -> List[str]:
    """Every key or effect of ``observed`` that ``committed`` lacks."""
    out: List[str] = []
    for key, effects in sorted(observed.items()):
        if key not in committed:
            out.append(f"{name(key)}: not in the table")
            continue
        out += [f"{name(key)}: {effect} not in the table"
                for effect in sorted(effects - committed[key])]
    return out


# -- the committed files -----------------------------------------------------

def write_table(directory: str, fabric: str, table: Table,
                rows: Iterable[str]) -> str:
    """Write ``DIR/<fabric>.json``; ``rows`` names the explorations
    ``table`` unions. Returns the path written."""
    os.makedirs(directory, exist_ok=True)
    payload = {"fabric": fabric, "rows": list(rows), "schema": SCHEMA,
               "transitions": {name(key): sorted(effects)
                               for key, effects in sorted(table.items())}}
    path = os.path.join(directory, f"{fabric}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def read_table(directory: str, fabric: str) -> Table:
    """The table :func:`write_table` wrote for ``fabric``."""
    path = os.path.join(directory, f"{fabric}.json")
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return {tuple(key.split("/")): frozenset(effects)
            for key, effects in payload["transitions"].items()}


__all__ = ["CONTRACT", "Key", "SCHEMA", "Table", "TransitionRecorder",
           "name", "outside", "read_table", "violations", "write_table"]
