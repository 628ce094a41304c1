"""MESI directory protocol with LogTM sticky states (Section 5).

The directory lives logically beside the (inclusive) shared L2: each entry
records an exclusive-owner pointer, a sharer bit-vector, and the LogTM-SE
extensions — a *sticky* set of cores that replaced the block while it was
(possibly) in a local transaction's signature, and the lost-directory-info /
check-all flags used after L2 victimization.

The per-core part of an entry (:class:`CoreEntry`) and the rules that
move it, the grant and the sticky L1 eviction, live in
:class:`DirectoryLevel`, which each multiple-CMP chip directory
(:mod:`repro.coherence.multichip`) shares.

Protocol simplification (see DESIGN.md §5): each coherence transaction holds
a per-entry lock from request arrival to completion, so there are no
transient-state races. NACKed requesters release the entry and retry later,
exactly like LogTM's stall-and-retry.

Request walkthrough (GETM from core R):

1. R -> home bank (grid hops), directory access latency.
2. L2 tag lookup; on a miss, memory latency and an L2 refill whose victim may
   lose directory info (Section 5's broadcast-rebuild case).
3. If the entry lost info or is in check-all state: broadcast, every core
   checks its signatures; otherwise forward only to the owner, sharers, and
   sticky cores.
4. Any signature hit with a matching ASID -> NACK (the result names the
   blockers so the requester can run LogTM's deadlock-avoidance policy).
5. Otherwise invalidate sharers/owner, clean satisfied sticky state, record
   R as owner, and grant M (E/S for GETS as appropriate).
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Set, Tuple

from repro.cache.array import CacheArray
from repro.cache.block import MESI
from repro.common.config import SystemConfig
from repro.common.stats import StatsRegistry
from repro.coherence.fabric import CoherenceFabric
from repro.coherence.msgs import CoherenceResult, Timestamp
from repro.interconnect.network import Network
from repro.mem.address import AddressMap
from repro.sim.resources import SimLock


class CoreEntry:
    """One directory level's state for one block, per core: the
    exclusive owner, the sharers and the cores with sticky obligations.
    The single-CMP directory and each multiple-CMP chip directory keep
    one of these per block."""

    __slots__ = ("owner", "sharers", "sticky")

    def __init__(self) -> None:
        self.owner: Optional[int] = None   # core with M/E
        self.sharers: Set[int] = set()     # cores with S
        self.sticky: Set[int] = set()      # cores with sticky obligations

    def state(self) -> Tuple:
        """(owner, sharers, sticky), the sets frozen; a subclass appends
        its own fields, which :meth:`set_state` leaves to it."""
        return (self.owner, frozenset(self.sharers), frozenset(self.sticky))

    def set_state(self, state: Tuple) -> None:
        self.owner, sharers, sticky = state[:3]
        self.sharers, self.sticky = set(sharers), set(sticky)

    def forward_targets(self, is_write: bool) -> Set[int]:
        """Cores whose signatures must be checked for this request."""
        targets = set(self.sticky)
        if self.owner is not None:
            targets.add(self.owner)
        if is_write:
            # Invalidations reach every sharer; each checks read+write sets.
            targets |= self.sharers
        return targets


class DirectoryEntry(CoreEntry):
    """Single-CMP directory state for one block."""

    __slots__ = ("lost_info", "must_check_all", "lock")

    def __init__(self, block_addr: int) -> None:
        super().__init__()
        self.lost_info = False
        self.must_check_all = False
        self.lock = SimLock(f"dir[{block_addr:#x}]")

    def state(self) -> Tuple:
        return super().state() + (self.lost_info, self.must_check_all)

    def set_state(self, state: Tuple) -> None:
        super().set_state(state)
        self.lost_info, self.must_check_all = state[3:]

    @property
    def present_anywhere(self) -> bool:
        return self.owner is not None or bool(self.sharers) or bool(self.sticky)


class DirectoryLevel(CoherenceFabric):
    """What the single-CMP directory and the multiple-CMP chip
    directories share (Sections 3.1, 5 and 7): per-core entries, their
    counters, and the two rules that move per-core sticky state, the
    grant and the L1 eviction.

    A subclass says where a core's entry lives (:meth:`_entry_for`) and
    whether its level may grant E (:meth:`_exclusive_rights`).
    """

    def __init__(self, cfg: SystemConfig, stats: StatsRegistry) -> None:
        super().__init__()
        self.cfg = cfg
        self.stats = stats
        self.amap = AddressMap(block_bytes=cfg.block_bytes,
                               page_bytes=cfg.page_bytes,
                               num_banks=cfg.l2_banks)
        self._use_sticky = cfg.tm.use_sticky_states
        # Counters surfaced in the tables.
        self._c_requests = stats.counter("coherence.requests")
        self._c_nacks = stats.counter("coherence.nacks")
        self._c_fwd = stats.counter("coherence.forwards")
        self._c_sticky_set = stats.counter("coherence.sticky_created")
        self._c_sticky_clean = stats.counter("coherence.sticky_cleaned")
        self._c_l2_evict_tx = stats.counter("victimization.l2_tx")
        self._c_l1_evict_tx = stats.counter("victimization.l1_tx")
        self._c_mem = stats.counter("coherence.memory_fetches")

    @abc.abstractmethod
    def _entry_for(self, core_id: int, block_addr: int) -> CoreEntry:
        """The entry of the directory that tracks ``core_id``'s copy."""

    def _exclusive_rights(self, entry: CoreEntry) -> bool:
        """May this level grant E, as far as levels above it go?"""
        return True

    def _apply_grant(self, requester_core: int, block_addr: int,
                     is_write: bool, entry: CoreEntry) -> MESI:
        """Commit the directory-state transition for a granted request.

        Pure bookkeeping: the L1 invalidations/downgrades were applied
        atomically with each target's signature check in ``_check``.
        """
        if entry.sticky:
            # The request succeeded, so sticky forwarding obligations are
            # discharged ("a block leaves this state when the request
            # finally succeeds") — but only for cores whose signatures no
            # longer cover the block. A core whose *read* set still holds
            # it did not NACK this (compatible) read, yet must keep being
            # checked: a later write has to reach it.
            cleaned = {cid for cid in entry.sticky
                       if cid == requester_core
                       or not self._ports[cid].holds_transactional(
                           block_addr)}
            if cleaned:
                self._c_sticky_clean.add(len(cleaned))
                self.stats.emit("coh.sticky_clean", block=block_addr,
                                cores=tuple(sorted(cleaned)))
                entry.sticky -= cleaned
        if is_write:
            entry.sharers.clear()
            entry.owner = requester_core
            return MESI.MODIFIED
        # GETS
        if entry.owner is not None and entry.owner != requester_core:
            entry.sharers.add(entry.owner)
            entry.owner = None
        if not entry.sharers and not entry.sticky and \
                self._exclusive_rights(entry):
            # E needs true exclusivity: a surviving sticky core may hold
            # the block in its read set, and a silent E->M upgrade here
            # would write without that signature ever being checked.
            entry.owner = requester_core
            return MESI.EXCLUSIVE
        entry.sharers.add(requester_core)
        return MESI.SHARED

    def l1_evicted(self, core_id: int, block_addr: int, state: MESI,
                   transactional: bool) -> None:
        entry = self._entry_for(core_id, block_addr)
        if self.stats.recorder is not None:
            self.stats.emit("coh.l1_victim", block=block_addr, core=core_id,
                            transactional=transactional,
                            sticky=transactional and self._use_sticky)
        if transactional:
            self._c_l1_evict_tx.add()
            if self._use_sticky:
                # Sticky replacement: leave the directory state unchanged
                # so conflicting requests keep being forwarded to this
                # core, and remember the obligation. (With sticky states
                # disabled — an ablation — the eviction is handled like a
                # non-transactional one, which loses isolation for
                # overflowed data; the ablation benchmark quantifies how
                # often that would bite.)
                entry.sticky.add(core_id)
                self._c_sticky_set.add()
                return
        # An M writeback or an E replacement notice clears the owner
        # pointer; data is functional, so only directory state moves. S
        # replacements are completely silent (Section 5): the directory
        # may retain a stale sharer, and a later invalidation to a
        # non-resident block is harmless.
        if state in (MESI.MODIFIED, MESI.EXCLUSIVE) and \
                entry.owner == core_id:
            entry.owner = None


class DirectoryFabric(DirectoryLevel):
    """Banked L2 + MESI directory + sticky states."""

    def __init__(self, cfg: SystemConfig, network: Network,
                 stats: StatsRegistry) -> None:
        super().__init__(cfg, stats)
        self.network = network
        self.l2 = CacheArray(cfg.l2, name="L2")
        self._entries: Dict[int, DirectoryEntry] = {}
        self._c_bcast = stats.counter("coherence.broadcast_rebuilds")
        # Fixed latencies, hoisted off the per-request path (SystemConfig
        # is immutable for the lifetime of the fabric).
        self._dir_latency = cfg.directory_latency
        self._l2_latency = cfg.l2.latency
        self._mem_latency = cfg.memory_latency

    def _entry(self, block_addr: int) -> DirectoryEntry:
        entry = self._entries.get(block_addr)
        if entry is None:
            entry = DirectoryEntry(block_addr)
            self._entries[block_addr] = entry
        return entry

    def entry_view(self, block_addr: int) -> DirectoryEntry:
        """Inspection hook for tests (creates the entry if absent)."""
        return self._entry(block_addr)

    def _entry_for(self, core_id: int, block_addr: int) -> DirectoryEntry:
        return self._entry(block_addr)

    # ------------------------------------------------------------------
    # L2 / memory access
    # ------------------------------------------------------------------

    def _l2_victimized(self, victim_addr: int) -> None:
        """An L2 replacement dropped this block's directory information.

        Inclusion forces L1 copies out; if the block was covered by any
        signature the information loss matters and subsequent requests must
        broadcast (Section 5). Sticky cores also become invisible, which the
        lost-info broadcast compensates for.
        """
        entry = self._entries.get(victim_addr)
        if entry is None or not entry.present_anywhere:
            return
        transactional = bool(entry.sticky)
        holders = set(entry.sharers)
        if entry.owner is not None:
            holders.add(entry.owner)
        for core_id in holders:
            port = self._ports.get(core_id)
            if port is None:
                continue
            if port.holds_transactional(victim_addr):
                transactional = True
            port.invalidate_block(victim_addr)
        entry.owner = None
        entry.sharers.clear()
        entry.sticky.clear()
        entry.lost_info = True
        if transactional:
            self._c_l2_evict_tx.add()
        self.stats.emit("coh.l2_victim", block=victim_addr,
                        transactional=transactional)

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    def request(self, requester_core: int, requester_thread: int,
                requester_ts: Optional[Timestamp], block_addr: int,
                is_write: bool, asid: int):
        # The locked request body is inlined here rather than delegated to a
        # helper generator: this frame is resumed for every yield of every
        # coherence transaction, and each extra frame in the ``yield from``
        # chain is traversed on every resume.
        entry = self._entry(block_addr)
        yield from entry.lock.acquire()
        try:
            self._c_requests.value += 1
            if self.stats.recorder is not None:
                self.stats.emit("coh.request", block=block_addr,
                                core=requester_core, thread=requester_thread,
                                write=is_write)
            bank = self.amap.bank_of(block_addr)
            msg = "GETM" if is_write else "GETS"
            yield self.network.core_to_bank(requester_core, bank, msg)
            yield self._dir_latency

            if entry.lost_info or entry.must_check_all:
                blockers = yield from self._broadcast_check(
                    requester_core, requester_thread, requester_ts,
                    block_addr, is_write, asid, entry, bank)
            else:
                blockers = yield from self._targeted_check(
                    requester_core, requester_thread, requester_ts,
                    block_addr, is_write, asid, entry, bank)

            if blockers:
                # NACK determination needs only directory state and remote
                # signature checks — no L2 data-array or DRAM access — so a
                # NACKed request occupies the directory entry only briefly.
                self._c_nacks.value += 1
                if self.stats.recorder is not None:
                    self.stats.emit(
                        "coh.nack", block=block_addr, core=requester_core,
                        thread=requester_thread,
                        blockers=tuple((b.thread_id, b.false_positive, b.via)
                                       for b in blockers))
                yield self.network.bank_to_core(bank, requester_core, "NACK")
                return CoherenceResult(granted=False, blockers=blockers)

            # L2 / memory access, inlined from ``_l2_access`` for the same
            # frame-depth reason.
            if self.l2.lookup(block_addr) is not None:
                yield self._l2_latency
            else:
                self._c_mem.value += 1
                yield self._mem_latency
                _block, victim = self.l2.insert(block_addr, MESI.SHARED)
                if victim is not None:
                    self._l2_victimized(victim.addr)
            yield self.network.bank_to_core(bank, requester_core, "DATA")
            # Apply the grant *after* the final yield: the requester resumes
            # in the same simulation event, so its L1 install is atomic with
            # this directory-state update (no window for a competing
            # request).
            entry.must_check_all = False
            grant_state = self._apply_grant(requester_core, block_addr,
                                            is_write, entry)
            if self.stats.recorder is not None:
                self.stats.emit("coh.grant", block=block_addr,
                                core=requester_core, thread=requester_thread,
                                write=is_write, state=grant_state.name)
            return CoherenceResult(granted=True, grant_state=grant_state)
        finally:
            entry.lock.release()

    def _broadcast_check(self, requester_core: int, requester_thread: int,
                         requester_ts: Optional[Timestamp], block_addr: int,
                         is_write: bool, asid: int, entry: DirectoryEntry,
                         bank: int):
        """Rebuild path after L2 victimization: check every L1's signatures."""
        self._c_bcast.add()
        self.stats.emit("coh.broadcast", block=block_addr)
        yield self.network.broadcast_from_bank(bank, "rebuild")
        all_cores = list(self._ports)
        blockers = self._check(all_cores, requester_core, requester_thread,
                               block_addr, is_write, asid, requester_ts,
                               owner=entry.owner, broadcast=True)
        # The broadcast responses rebuild the directory state. After the L2
        # eviction invalidated L1 copies, nobody caches the block; what can
        # remain is signature coverage. An *incompatible* covering
        # signature NACKs above, but a compatible one (a standing read set
        # met by this GETS) stays silent — and must not become invisible:
        # a later write has to keep reaching it. Those cores convert to
        # sticky forwarding obligations, the same rule as a transactional
        # eviction; the model checker found the variant that dropped them
        # (4 steps: tx read, L2 victimization, then any remote read
        # discharged all coverage and even granted E).
        entry.lost_info = False
        entry.must_check_all = bool(blockers)
        if self._use_sticky:
            for port in self.ports:
                if port.core_id != requester_core and \
                        port.holds_transactional(block_addr):
                    entry.sticky.add(port.core_id)
                    self._c_sticky_set.add()
        return blockers

    def _targeted_check(self, requester_core: int, requester_thread: int,
                        requester_ts: Optional[Timestamp], block_addr: int,
                        is_write: bool, asid: int, entry: DirectoryEntry,
                        bank: int):
        """Normal path: forward only where the directory points."""
        targets = entry.forward_targets(is_write)
        targets.discard(requester_core)
        if targets:
            # Forwards fan out in parallel: latency is the worst
            # bank->target->requester path; counters record each message.
            fwd = max(self.network.bank_to_core(bank, t, "fwd")
                      for t in targets)
            yield fwd
        blockers = self._check(targets, requester_core, requester_thread,
                               block_addr, is_write, asid, requester_ts,
                               owner=entry.owner, sticky_cores=entry.sticky)
        if not blockers and targets:
            resp = max(self.network.core_to_core(t, requester_core, "resp")
                       for t in targets)
            yield resp
        return blockers

    def note_relocated_block(self, block_addr: int) -> None:
        """Force signature checks for a block relocated by paging."""
        self._entry(block_addr).must_check_all = True

    def scrub_block(self, block_addr: int) -> None:
        """Frame freed or reallocated: drop every cached copy and every
        directory pointer. A core whose signatures still cover the block
        keeps a sticky forwarding obligation — the same rule as a
        transactional L1 eviction — so conflict checks keep reaching it
        even though it no longer caches the line."""
        entry = self._entry(block_addr)
        for port in self.ports:
            port.invalidate_block(block_addr)
            if self._use_sticky and port.holds_transactional(block_addr):
                entry.sticky.add(port.core_id)
        self.l2.invalidate(block_addr)
        entry.owner = None
        entry.sharers.clear()

    # ``perfbench/tracer.py`` wraps ``request`` and ``l1_evicted`` in
    # each fabric class's own ``__dict__``.
    l1_evicted = DirectoryLevel.l1_evicted
