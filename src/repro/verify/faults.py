"""Fault injection for exercising the verification suite.

A checker that has never caught a seeded bug is scenery. This module
provides the seeded bugs, at two levels:

* :class:`LossySignature` wraps a real signature and makes its *filter*
  lie by omission for selected blocks — the one failure mode the paper's
  signatures must never have (false negatives; Section 2). The exact
  shadow set stays truthful, so the
  :class:`~repro.verify.checkers.VerificationSuite`'s signature oracle
  can convict the filter with ground truth, and the downstream isolation
  and serializability checkers can demonstrate the actual data
  corruption the dropped NACK causes.

* :data:`MUTATIONS` records, once each, the three real protocol bugs
  that the dynamic-analysis suite exposed and that were then fixed
  (``sticky-discharge``, ``eager-e-grant``, ``no-scrub``): the paper
  mechanism each breaks, and per fabric class the method it replaces
  with a verbatim resurrection of the pre-fix logic. A mutation
  replaces one method on the class that defines it, so the grant the
  two directory fabrics share (``DirectoryLevel._apply_grant``) has one
  pre-fix copy per bug, listed for both.
  :func:`apply_protocol_mutation` monkeypatches a live fabric instance
  for the model checker (:mod:`repro.mc`), whose matrix holds one
  conviction row per (mutation, fabric) pair. A checker that convicts
  all three known-real defects has demonstrated it can see the class
  of bug it was built for.

Test-only: nothing in the simulator proper imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MethodType
from typing import (Any, Callable, Dict, FrozenSet, Iterable, Mapping,
                    Tuple)

from repro.cache.block import MESI
from repro.coherence.directory import (CoreEntry, DirectoryFabric,
                                      DirectoryLevel)
from repro.coherence.fabric import CoherenceFabric
from repro.coherence.multichip import MultiChipFabric
from repro.coherence.snooping import SnoopingFabric
from repro.common.errors import ConfigError
from repro.signatures.base import Signature, Snapshot
from repro.signatures.rwpair import ReadWriteSignature


class LossySignature:
    """A signature whose filter drops configured blocks (false negatives).

    Duck-types the :class:`repro.signatures.base.Signature` surface. The
    membership *test* is sabotaged — ``contains`` answers False for any
    block in ``drop_blocks`` even when it was inserted — while the exact
    shadow set keeps the truth. Inserts, snapshots and clears all pass
    through to the wrapped signature.

    Not for use in scenarios that union signatures into summaries: the
    real :meth:`Signature.union_update` type-checks its operand.
    """

    def __init__(self, inner: Signature,
                 drop_blocks: Iterable[int] = ()) -> None:
        self.inner = inner
        self.drop_blocks = set(drop_blocks)
        #: How many conflict tests the wrapper falsified.
        self.dropped = 0

    # -- hardware interface (sabotaged) ------------------------------------

    def insert(self, block_addr: int) -> None:
        self.inner.insert(block_addr)

    def contains(self, block_addr: int) -> bool:
        if block_addr in self.drop_blocks and \
                self.inner.contains_exact(block_addr):
            self.dropped += 1
            return False
        return self.inner.contains(block_addr)

    def clear(self) -> None:
        self.inner.clear()

    @property
    def is_empty(self) -> bool:
        return self.inner.is_empty

    # -- software accessibility --------------------------------------------

    def snapshot(self) -> Snapshot:
        return self.inner.snapshot()

    def restore(self, snap: Snapshot) -> None:
        self.inner.restore(snap)

    def union_update(self, other) -> None:
        self.inner.union_update(other)

    def union_snapshot(self, snap: Snapshot) -> None:
        self.inner.union_snapshot(snap)

    def spawn_empty(self) -> Signature:
        return self.inner.spawn_empty()

    # -- observability (stays truthful) ------------------------------------

    def contains_exact(self, block_addr: int) -> bool:
        return self.inner.contains_exact(block_addr)

    def exact_set(self) -> FrozenSet[int]:
        return self.inner.exact_set()

    @property
    def exact_size(self) -> int:
        return self.inner.exact_size

    def false_positive(self, block_addr: int) -> bool:
        return self.contains(block_addr) and \
            not self.contains_exact(block_addr)

    def __repr__(self) -> str:
        return (f"LossySignature({self.inner!r}, "
                f"drop={sorted(self.drop_blocks)})")


def make_lossy(pair: ReadWriteSignature,
               drop_blocks: Iterable[int]) -> ReadWriteSignature:
    """Wrap both halves of a thread's signature pair with lossy filters.

    Returns a new :class:`ReadWriteSignature` sharing the original
    filters underneath; install it with ``thread.ctx.signature = ...``
    *before* the thread begins its transaction.
    """
    drops = set(drop_blocks)
    # LossySignature duck-types Signature rather than subclassing it (the
    # sabotage must not inherit a working ``contains``).
    return ReadWriteSignature(
        LossySignature(pair.read, drops),       # type: ignore[arg-type]
        LossySignature(pair.write, drops))      # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Protocol mutations: the three pre-fix bugs, resurrected behind flags
# ---------------------------------------------------------------------------

def _mutant_sticky_discharge(
        self: DirectoryLevel, requester_core: int, block_addr: int,
        is_write: bool, entry: CoreEntry) -> MESI:
    """Pre-fix ``DirectoryLevel._apply_grant``: on any successful
    request, *all* sticky state is cleaned — including cores whose read
    sets still cover the block and which therefore must keep being
    checked by later writes."""
    if entry.sticky:
        self._c_sticky_clean.add(len(entry.sticky))
        self.stats.emit("coh.sticky_clean", block=block_addr,
                        cores=tuple(sorted(entry.sticky)))
        entry.sticky.clear()
    if is_write:
        entry.sharers.clear()
        entry.owner = requester_core
        return MESI.MODIFIED
    if entry.owner is not None and entry.owner != requester_core:
        entry.sharers.add(entry.owner)
        entry.owner = None
    if not entry.sharers and not entry.sticky and \
            self._exclusive_rights(entry):
        entry.owner = requester_core
        return MESI.EXCLUSIVE
    entry.sharers.add(requester_core)
    return MESI.SHARED


def _mutant_eager_e_grant(
        self: DirectoryLevel, requester_core: int, block_addr: int,
        is_write: bool, entry: CoreEntry) -> MESI:
    """Pre-fix ``DirectoryLevel._apply_grant``: the E-grant test checks
    only cache residency (``not entry.sharers``) and the level's rights,
    so a requester can be granted EXCLUSIVE while a sticky core's read
    set still covers the block — its later silent E->M upgrade writes
    with no signature check. The sticky-discharge rule itself is the
    fixed, selective one."""
    if entry.sticky:
        cleaned = {cid for cid in entry.sticky
                   if cid == requester_core
                   or not self._ports[cid].holds_transactional(block_addr)}
        if cleaned:
            self._c_sticky_clean.add(len(cleaned))
            self.stats.emit("coh.sticky_clean", block=block_addr,
                            cores=tuple(sorted(cleaned)))
            entry.sticky -= cleaned
    if is_write:
        entry.sharers.clear()
        entry.owner = requester_core
        return MESI.MODIFIED
    if entry.owner is not None and entry.owner != requester_core:
        entry.sharers.add(entry.owner)
        entry.owner = None
    if not entry.sharers and self._exclusive_rights(entry):
        entry.owner = requester_core
        return MESI.EXCLUSIVE
    entry.sharers.add(requester_core)
    return MESI.SHARED


def _mutant_snoop_eager_e_grant(
        self: SnoopingFabric, requester_core: int,
        block_addr: int, is_write: bool) -> MESI:
    """Pre-fix ``SnoopingFabric._apply_grant``: E is granted on residency
    exclusivity alone, without scanning other cores' signatures for
    uncached (e.g. post-scrub) coverage."""
    owner = self._owner.get(block_addr)
    sharers = self._sharers.setdefault(block_addr, set())
    if is_write:
        sharers.clear()
        self._owner[block_addr] = requester_core
        return MESI.MODIFIED
    if owner is not None and owner != requester_core:
        sharers.add(owner)
        self._owner[block_addr] = None
    if not sharers:
        self._owner[block_addr] = requester_core
        return MESI.EXCLUSIVE
    sharers.add(requester_core)
    return MESI.SHARED


def _mutant_no_scrub(self: CoherenceFabric, block_addr: int) -> None:
    """Pre-fix behavior: the fabric had no scrub hook at all, so frame
    free/reuse left stale copies in every cache and stale pointers in
    every directory."""


@dataclass(frozen=True)
class Mutation:
    """One known protocol bug, written once.

    ``mutants`` maps each fabric class the bug applies to onto the
    method it replaces and the pre-fix function that replaces it; the
    method may be inherited.
    """

    description: str
    #: The paper mechanism the bug breaks (docs/verification.md's matrix).
    mechanism: str
    mutants: Mapping[type, Tuple[str, Callable[..., Any]]]


#: Mutation name -> the bug. Validates ``repro mc --mutate``;
#: :func:`apply_protocol_mutation` installs it.
MUTATIONS: Dict[str, Mutation] = {
    "sticky-discharge": Mutation(
        "a successful request discharges every sticky obligation on its "
        "block, including cores whose signatures still cover it",
        "victimization and sticky state (§3.1)",
        {DirectoryFabric: ("_apply_grant", _mutant_sticky_discharge),
         MultiChipFabric: ("_apply_grant", _mutant_sticky_discharge)}),
    "eager-e-grant": Mutation(
        "GETS grants EXCLUSIVE whenever no cache holds the block, "
        "ignoring standing sticky obligations / uncached signatures",
        "victimization and sticky state (§3.1)",
        {DirectoryFabric: ("_apply_grant", _mutant_eager_e_grant),
         SnoopingFabric: ("_apply_grant", _mutant_snoop_eager_e_grant),
         MultiChipFabric: ("_apply_grant", _mutant_eager_e_grant)}),
    "no-scrub": Mutation(
        "freeing or reusing a physical frame does not invalidate cached "
        "copies of its previous tenant",
        "paging: frame scrub before reuse (§4.2)",
        {DirectoryFabric: ("scrub_block", _mutant_no_scrub),
         SnoopingFabric: ("scrub_block", _mutant_no_scrub),
         MultiChipFabric: ("scrub_block", _mutant_no_scrub)}),
}


def apply_protocol_mutation(fabric: CoherenceFabric, name: str) -> None:
    """Install one named pre-fix bug on a live fabric instance.

    Raises :class:`ConfigError` for an unknown mutation or one that has
    no meaning on this fabric (sticky states do not exist under
    snooping). Instance-level monkeypatching keeps the sabotage scoped
    to the one fabric under test.
    """
    mutation = MUTATIONS.get(name)
    if mutation is None:
        raise ConfigError(
            f"unknown mutation {name!r}; choose from "
            f"{sorted(MUTATIONS)}")
    if type(fabric) not in mutation.mutants:
        raise ConfigError(
            f"mutation {name!r} does not apply to "
            f"{type(fabric).__name__}; it applies to "
            f"{', '.join(sorted(c.__name__ for c in mutation.mutants))}")
    method, mutant = mutation.mutants[type(fabric)]
    setattr(fabric, method, MethodType(mutant, fabric))
