"""Coherence request/response vocabulary.

The protocol layer talks to cores through :class:`ConflictPort`: the
directory (or snooping bus) forwards a request to a core, which checks the
signatures of its thread contexts and answers with zero or more
:class:`Blocker` records (a non-empty list means NACK). Results carry
enough provenance — blocker timestamps, false-positive flags — for LogTM's
conflict-resolution policy and for Table 3's accounting.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cache.block import MESI
from repro.common.config import SystemConfig

#: Transaction timestamp: (begin cycle, global thread id). Lower is older.
Timestamp = Tuple[int, int]


class Blocker:
    """One thread context whose signature NACKed a request.

    A slotted value object (constructed once per NACKing context on the
    protocol hot path, hence not a dataclass): treat instances as frozen.
    """

    __slots__ = ("core_id", "thread_id", "timestamp", "false_positive", "via")

    def __init__(self, core_id: int, thread_id: int,
                 timestamp: Optional[Timestamp], false_positive: bool,
                 via: str = "targeted") -> None:
        self.core_id = core_id
        #: Global thread-context id.
        self.thread_id = thread_id
        #: None for a non-transactional blocker.
        self.timestamp = timestamp
        #: The signature hit had no real overlap.
        self.false_positive = false_positive
        #: How the conflict check reached this blocker: a "targeted" forward
        #: from precise directory state, a "sticky" forward from a stale
        #: post-victimization state, or a lost-info "broadcast". Feeds abort
        #: attribution (sticky/capacity categories).
        self.via = via

    def older_than(self, ts: Optional[Timestamp]) -> bool:
        """Whether this blocker's transaction began before ``ts``."""
        if self.timestamp is None:
            return False
        if ts is None:
            return True
        return self.timestamp < ts

    def _key(self):
        return (self.core_id, self.thread_id, self.timestamp,
                self.false_positive, self.via)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Blocker):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Blocker(core_id={self.core_id}, "
                f"thread_id={self.thread_id}, timestamp={self.timestamp}, "
                f"false_positive={self.false_positive}, via={self.via!r})")


def all_false_positive(blockers: List[Blocker]) -> bool:
    """Whether a NACK by ``blockers`` was all signature aliasing: there are
    blockers and none of their signatures really holds the block."""
    for blocker in blockers:
        if not blocker.false_positive:
            return False
    return bool(blockers)


class CoherenceResult:
    """Outcome of one coherence request attempt.

    Slotted plain class: one is built per request attempt, which makes it
    the second-hottest allocation in the machine after Blocker.
    """

    __slots__ = ("granted", "grant_state", "blockers")

    def __init__(self, granted: bool, grant_state: MESI = MESI.INVALID,
                 blockers: Optional[List[Blocker]] = None) -> None:
        self.granted = granted
        #: State the requester may install.
        self.grant_state = grant_state
        self.blockers = [] if blockers is None else blockers

    @property
    def all_false_positive(self) -> bool:
        """The whole NACK was due to signature aliasing (no real conflict)."""
        return all_false_positive(self.blockers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoherenceResult):
            return NotImplemented
        return (self.granted == other.granted
                and self.grant_state == other.grant_state
                and self.blockers == other.blockers)

    def __repr__(self) -> str:
        return (f"CoherenceResult(granted={self.granted}, "
                f"grant_state={self.grant_state}, blockers={self.blockers})")


class ConflictPort:
    """One core as the protocol sees it: an L1 and its SMT thread contexts.

    This is the one conflict check in the machine. A fabric forwards a
    request here and the signatures of the core's scheduled contexts
    answer; the core runs the same check for its own SMT siblings before
    it issues a miss (same-core conflicts generate no coherence traffic).
    :class:`~repro.cpu.core.Core` is the one subclass; the model checker
    runs real cores over a tags-only L1.

    ``l1`` needs ``peek`` and ``invalidate``; each of ``slots`` holds a
    ``thread`` (or None) with ``tid``, ``page_table`` (for its ASID) and
    ``ctx``.
    """

    __slots__ = ("core_id", "l1", "slots", "_lazy", "_use_asid_filter")

    def __init__(self, core_id: int, l1, slots: list,
                 cfg: SystemConfig) -> None:
        self.core_id = core_id
        self.l1 = l1
        self.slots = slots
        self._lazy = cfg.tm.lazy
        self._use_asid_filter = cfg.tm.use_asid_filter

    def check_conflicts(self, block_addr: int, is_write: bool,
                        exclude_thread: Optional[int], asid: int,
                        requester_ts: Optional[Timestamp]) -> List[Blocker]:
        """Signature-check a request against the local thread contexts.

        ``exclude_thread`` is the requesting context (never conflicts with
        itself). A blocker that NACKs an older requester sets its
        transaction's ``possible_cycle`` flag (LogTM's policy). An empty
        list means the request may proceed here.
        """
        if self._lazy:
            # Lazy (Bulk-style) mode detects conflicts at commit time, not
            # on coherence requests: execution is never NACKed.
            return []
        blockers: List[Blocker] = []
        use_asid_filter = self._use_asid_filter
        for slot in self.slots:
            thread = slot.thread
            if thread is None or thread.tid == exclude_thread:
                continue
            # ASID filter: signatures never NACK another address space
            # (prevents cross-process interference, Section 2). The
            # ablation knob re-creates the interference for measurement.
            # (The page table holds the ASID; ``thread.asid`` is a property
            # over it, and this runs once per context per forwarded check.)
            if use_asid_filter and thread.page_table.asid != asid:
                continue
            ctx = thread.ctx
            signature = ctx.signature
            if signature.conflicts(is_write, block_addr):
                fp = signature.conflict_is_false_positive(is_write,
                                                          block_addr)
                ctx.note_nacked_older(requester_ts)
                blockers.append(Blocker(self.core_id, thread.tid,
                                        ctx.timestamp, fp))
        return blockers

    def invalidate_block(self, block_addr: int) -> bool:
        """Drop the block from this core's L1; True if it was resident."""
        return self.l1.invalidate(block_addr) is not None

    def downgrade_block(self, block_addr: int) -> bool:
        """M/E -> S on this core's L1; True if it was resident exclusive."""
        block = self.l1.peek(block_addr)
        if block is not None and block.state.is_exclusive:
            block.state = MESI.SHARED
            return True
        return False

    def holds_transactional(self, block_addr: int) -> bool:
        """Conservative test: may this block be in a local signature?

        This is the check the evicting L1 performs to decide whether a
        replacement must leave a *sticky* directory state. It consults the
        (possibly aliasing) signatures, exactly as hardware would.
        """
        if self._lazy:
            # No sticky states under lazy detection (Bulk has no need:
            # commit-time broadcasts reach every signature).
            return False
        for slot in self.slots:
            if slot.thread is None:
                continue
            sig = slot.thread.ctx.signature
            if sig.read.contains(block_addr) or sig.write.contains(block_addr):
                return True
        return False
