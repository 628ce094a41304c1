"""Multiple-CMP coherence (Section 7, "Multiple CMPs").

Several CMPs, each with its own shared L2 and intra-chip directory, are
connected by a reliable point-to-point network; inter-chip coherence uses a
full-map directory at memory ("a few state bits and [one] sharer bit per
chip", storable in ECC-freed bits [23]). LogTM-SE extends it with NACKs on
transaction conflicts and sticky states at *both* levels:

* a core that evicts a transactional block leaves a sticky entry in its
  chip's directory (as in the single-CMP system);
* a chip whose L2 victimizes a transactionally-covered block writes it back
  to memory and the memory directory enters **sticky-M** for that chip —
  subsequent remote requests are still forwarded there for signature
  checks.

Protocol hierarchy (two-level MESI):

1. A request first consults its chip's state. If the chip holds sufficient
   *chip-level rights* (M for writes; M or S for reads), the request is
   satisfied entirely on-chip, exactly like the single-CMP directory —
   including intra-chip signature NACKs.
2. Otherwise it travels to the memory directory, which forwards conflict
   checks to the owner/sharer/sticky chips; each chip checks the
   signatures of all its cores (its own wired-OR of per-core results).
   Any hit NACKs the request; otherwise chip-level rights migrate and the
   requester's chip completes the fill.

The fabric shares :class:`~repro.coherence.directory.DirectoryLevel` with
the single-CMP directory, so each chip directory keeps the same per-core
entries, forward targets, grant rule and sticky L1-eviction rule. It
differs in two places: an E grant also needs chip-level M rights, and a
chip-L2 victimization of a covered block becomes sticky-M at memory plus
per-core sticky state.

The same blocking-transaction simplification as the single-CMP directory
applies: one global lock per block serializes same-block transactions, so
no transient-state races exist (DESIGN.md §5).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.cache.array import CacheArray
from repro.cache.block import MESI
from repro.coherence.directory import CoreEntry, DirectoryLevel
from repro.coherence.msgs import Blocker, CoherenceResult, Timestamp
from repro.common.config import SystemConfig
from repro.common.stats import StatsRegistry
from repro.interconnect.network import Network
from repro.sim.resources import SimLock


class ChipEntry(CoreEntry):
    """Intra-chip directory state for one block on one chip (per-core
    pointers are global core ids)."""

    __slots__ = ("rights",)

    def __init__(self) -> None:
        super().__init__()
        #: Chip-level rights: 'M' (exclusive chip), 'S' (shared), or None.
        self.rights: Optional[str] = None

    def state(self) -> Tuple:
        return super().state() + (self.rights,)

    def set_state(self, state: Tuple) -> None:
        super().set_state(state)
        self.rights = state[3]

    @property
    def present(self) -> bool:
        return (self.rights is not None or self.owner is not None
                or bool(self.sharers) or bool(self.sticky))


class MemDirEntry:
    """Full-map memory-directory state for one block."""

    __slots__ = ("owner_chip", "sharer_chips", "sticky_chips", "lock")

    def __init__(self, block_addr: int) -> None:
        self.owner_chip: Optional[int] = None
        self.sharer_chips: Set[int] = set()
        #: Chips whose L2 victimized the block while transactionally
        #: covered: memory holds the data ("sticky M"), but requests are
        #: still forwarded for signature checks.
        self.sticky_chips: Set[int] = set()
        self.lock = SimLock(f"memdir[{block_addr:#x}]")

    def state(self) -> Tuple:
        """(owner chip, sharer chips, sticky chips), the sets frozen."""
        return (self.owner_chip, frozenset(self.sharer_chips),
                frozenset(self.sticky_chips))

    def set_state(self, state: Tuple) -> None:
        self.owner_chip, sharers, sticky = state
        self.sharer_chips, self.sticky_chips = set(sharers), set(sticky)


class MultiChipFabric(DirectoryLevel):
    """Two-level directory coherence for a multiple-CMP system."""

    def __init__(self, cfg: SystemConfig, networks: List[Network],
                 stats: StatsRegistry) -> None:
        if cfg.num_chips < 2:
            raise ValueError("MultiChipFabric needs at least two chips")
        super().__init__(cfg, stats)
        self.networks = networks  # one intra-chip network per chip
        self.l2s = [CacheArray(cfg.l2, name=f"L2[chip{c}]")
                    for c in range(cfg.num_chips)]
        self._chip_entries: List[Dict[int, ChipEntry]] = [
            {} for _ in range(cfg.num_chips)]
        self._mem_entries: Dict[int, MemDirEntry] = {}
        self._c_interchip = stats.counter("coherence.interchip_requests")
        self._c_chip_sticky = stats.counter("coherence.chip_sticky_created")

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------

    def chip_of(self, core_id: int) -> int:
        return core_id // self.cfg.num_cores

    def _local_core(self, core_id: int) -> int:
        """Core index within its chip (for the per-chip network)."""
        return core_id % self.cfg.num_cores

    def _chip_entry(self, chip: int, block_addr: int) -> ChipEntry:
        entry = self._chip_entries[chip].get(block_addr)
        if entry is None:
            entry = ChipEntry()
            self._chip_entries[chip][block_addr] = entry
        return entry

    def _mem_entry(self, block_addr: int) -> MemDirEntry:
        entry = self._mem_entries.get(block_addr)
        if entry is None:
            entry = MemDirEntry(block_addr)
            self._mem_entries[block_addr] = entry
        return entry

    def chip_entry_view(self, chip: int, block_addr: int) -> ChipEntry:
        return self._chip_entry(chip, block_addr)

    def _entry_for(self, core_id: int, block_addr: int) -> ChipEntry:
        return self._chip_entry(self.chip_of(core_id), block_addr)

    def mem_entry_view(self, block_addr: int) -> MemDirEntry:
        return self._mem_entry(block_addr)

    # ------------------------------------------------------------------
    # Conflict checks
    # ------------------------------------------------------------------

    def _chip_covers(self, chip: int, block_addr: int,
                     exclude: int) -> bool:
        """May any core on this chip still hold the block in a signature?"""
        first = chip * self.cfg.num_cores
        for core_id in range(first, first + self.cfg.num_cores):
            if core_id == exclude:
                continue
            port = self._ports.get(core_id)
            if port is not None and port.holds_transactional(block_addr):
                return True
        return False

    def _chip_check(self, chip: int, sticky: bool, requester_core: int,
                    requester_thread: int, block_addr: int, is_write: bool,
                    asid: int, requester_ts: Optional[Timestamp]
                    ) -> List[Blocker]:
        """A chip's wired-OR signature check across all its cores.

        Inter-chip forwards cannot rely on the remote chip's (possibly
        stale) intra-chip pointers for conflict coverage, so the whole
        chip answers — this is the chip-level NACK of Section 7. The
        chip's sticky cores answer as sticky, and so does every core of a
        chip the memory directory holds ``sticky`` (sticky-M).
        """
        first = chip * self.cfg.num_cores
        cores = range(first, first + self.cfg.num_cores)
        entry = self._chip_entry(chip, block_addr)
        return self._check(cores, requester_core, requester_thread,
                           block_addr, is_write, asid, requester_ts,
                           owner=entry.owner,
                           sticky_cores=cores if sticky else entry.sticky)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def request(self, requester_core: int, requester_thread: int,
                requester_ts: Optional[Timestamp], block_addr: int,
                is_write: bool, asid: int):
        mem_entry = self._mem_entry(block_addr)
        yield from mem_entry.lock.acquire()
        try:
            result = yield from self._request_locked(
                requester_core, requester_thread, requester_ts,
                block_addr, is_write, asid, mem_entry)
            return result
        finally:
            mem_entry.lock.release()

    def _request_locked(self, requester_core: int, requester_thread: int,
                        requester_ts: Optional[Timestamp], block_addr: int,
                        is_write: bool, asid: int, mem_entry: MemDirEntry):
        self._c_requests.add()
        if self.stats.recorder is not None:
            self.stats.emit("coh.request", block=block_addr,
                            core=requester_core, thread=requester_thread,
                            write=is_write)
        chip = self.chip_of(requester_core)
        net = self.networks[chip]
        bank = self.amap.bank_of(block_addr)
        entry = self._chip_entry(chip, block_addr)
        yield net.core_to_bank(self._local_core(requester_core), bank,
                               "GETM" if is_write else "GETS")
        yield self.cfg.directory_latency

        sufficient = (entry.rights == "M" if is_write
                      else entry.rights in ("M", "S"))
        if sufficient:
            result = yield from self._intra_chip(
                chip, requester_core, requester_thread, requester_ts,
                block_addr, is_write, asid, entry, bank)
            return result
        result = yield from self._inter_chip(
            chip, requester_core, requester_thread, requester_ts,
            block_addr, is_write, asid, entry, mem_entry, bank)
        return result

    def _intra_chip(self, chip: int, requester_core: int,
                    requester_thread: int,
                    requester_ts: Optional[Timestamp], block_addr: int,
                    is_write: bool, asid: int, entry: ChipEntry, bank: int):
        """The chip already holds sufficient rights: single-CMP behaviour."""
        net = self.networks[chip]
        targets = entry.forward_targets(is_write)
        targets.discard(requester_core)
        if targets:
            yield max(net.bank_to_core(bank, self._local_core(t), "fwd")
                      for t in targets)
        blockers = self._check(targets, requester_core, requester_thread,
                               block_addr, is_write, asid, requester_ts,
                               owner=entry.owner, sticky_cores=entry.sticky)
        if blockers:
            self._c_nacks.add()
            if self.stats.recorder is not None:
                self.stats.emit(
                    "coh.nack", block=block_addr, core=requester_core,
                    thread=requester_thread,
                    blockers=tuple((b.thread_id, b.false_positive, b.via)
                                   for b in blockers))
            yield net.bank_to_core(bank, self._local_core(requester_core),
                                   "NACK")
            return CoherenceResult(granted=False, blockers=blockers)
        if self.l2s[chip].lookup(block_addr) is not None:
            yield self.cfg.l2.latency
        elif entry.owner is not None:
            yield net.core_to_core(self._local_core(entry.owner),
                                   self._local_core(requester_core), "data")
        else:
            self._c_mem.add()
            yield self.cfg.memory_latency
            self._l2_fill(chip, block_addr)
        yield net.bank_to_core(bank, self._local_core(requester_core),
                               "DATA")
        grant = self._apply_grant(requester_core, block_addr, is_write,
                                  entry)
        if self.stats.recorder is not None:
            self.stats.emit("coh.grant", block=block_addr,
                            core=requester_core, thread=requester_thread,
                            write=is_write, state=grant.name)
        return CoherenceResult(granted=True, grant_state=grant)

    def _inter_chip(self, chip: int, requester_core: int,
                    requester_thread: int,
                    requester_ts: Optional[Timestamp], block_addr: int,
                    is_write: bool, asid: int, entry: ChipEntry,
                    mem_entry: MemDirEntry, bank: int):
        """Escalate to the full-map memory directory."""
        self._c_interchip.add()
        net = self.networks[chip]
        yield self.cfg.interchip_latency
        yield self.cfg.memory_directory_latency

        # Chips to check: the owner chip, sharer chips (for writes), and
        # any sticky chips — but never the requester's own chip's *remote*
        # role (its local conflicts were checked intra-chip or by SMT).
        target_chips = set(mem_entry.sticky_chips)
        if mem_entry.owner_chip is not None:
            target_chips.add(mem_entry.owner_chip)
        if is_write:
            target_chips |= mem_entry.sharer_chips
        target_chips.discard(chip)

        blockers: List[Blocker] = []
        for remote in sorted(target_chips):
            yield self.cfg.interchip_latency
            blockers.extend(self._chip_check(
                remote, remote in mem_entry.sticky_chips, requester_core,
                requester_thread, block_addr, is_write, asid, requester_ts))
        # The requester's own chip may still hold intra-chip conflicts
        # (e.g. another local core's signature) even without chip rights.
        local_targets = entry.forward_targets(is_write)
        local_targets.discard(requester_core)
        blockers.extend(self._check(
            local_targets, requester_core, requester_thread, block_addr,
            is_write, asid, requester_ts, owner=entry.owner,
            sticky_cores=entry.sticky))

        if blockers:
            self._c_nacks.add()
            if self.stats.recorder is not None:
                self.stats.emit(
                    "coh.nack", block=block_addr, core=requester_core,
                    thread=requester_thread,
                    blockers=tuple((b.thread_id, b.false_positive, b.via)
                                   for b in blockers))
            yield self.cfg.interchip_latency
            return CoherenceResult(granted=False, blockers=blockers)

        # Migrate chip-level rights.
        if is_write:
            losers = set(mem_entry.sharer_chips)
            if mem_entry.owner_chip is not None:
                losers.add(mem_entry.owner_chip)
            losers.discard(chip)
            for remote in sorted(losers):
                self._strip_chip(remote, block_addr)
            mem_entry.sharer_chips.clear()
            mem_entry.owner_chip = chip
            entry.rights = "M"
        else:
            if mem_entry.owner_chip is not None and \
                    mem_entry.owner_chip != chip:
                self._demote_chip(mem_entry.owner_chip, block_addr)
                mem_entry.sharer_chips.add(mem_entry.owner_chip)
                mem_entry.owner_chip = None
            # A sticky chip whose cores still cover the block counts as
            # a sharer: a read grant past it must not carry E rights.
            covered = any(
                remote != chip and self._chip_covers(
                    remote, block_addr, exclude=requester_core)
                for remote in mem_entry.sticky_chips)
            if mem_entry.sharer_chips or mem_entry.owner_chip == chip or \
                    covered:
                mem_entry.sharer_chips.add(chip)
                entry.rights = "S"
            else:
                mem_entry.owner_chip = chip
                entry.rights = "M"
        if mem_entry.sticky_chips:
            # Discharge sticky chips only when no core there still covers
            # the block with a signature (a read-set entry is compatible
            # with this request but must keep being checked on writes).
            cleaned = {c for c in mem_entry.sticky_chips
                       if not self._chip_covers(c, block_addr,
                                                exclude=requester_core)}
            if cleaned:
                self._c_sticky_clean.add(len(cleaned))
                self.stats.emit("coh.sticky_clean", block=block_addr,
                                chips=tuple(sorted(cleaned)))
                mem_entry.sticky_chips -= cleaned

        self._c_mem.add()
        yield self.cfg.memory_latency  # data from memory / remote L2
        yield self.cfg.interchip_latency
        self._l2_fill(chip, block_addr)
        grant = self._apply_grant(requester_core, block_addr, is_write,
                                  entry)
        if self.stats.recorder is not None:
            self.stats.emit("coh.grant", block=block_addr,
                            core=requester_core, thread=requester_thread,
                            write=is_write, state=grant.name)
        return CoherenceResult(granted=True, grant_state=grant)

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------

    def _exclusive_rights(self, entry: ChipEntry) -> bool:
        # An E grant needs *chip-level* exclusivity: with only S rights
        # another chip may hold copies, and a silent E->M upgrade here
        # would write without global permission.
        return entry.rights == "M"

    def _strip_chip(self, chip: Optional[int], block_addr: int) -> None:
        """Remove all of a chip's copies (remote GETM invalidation)."""
        if chip is None:
            return
        entry = self._chip_entry(chip, block_addr)
        for core_id in list(entry.sharers):
            self._ports[core_id].invalidate_block(block_addr)
        if entry.owner is not None:
            self._ports[entry.owner].invalidate_block(block_addr)
        entry.sharers.clear()
        entry.owner = None
        entry.rights = None
        self.l2s[chip].invalidate(block_addr)

    def _demote_chip(self, chip: int, block_addr: int) -> None:
        """Chip-level M -> S (remote GETS)."""
        entry = self._chip_entry(chip, block_addr)
        if entry.owner is not None:
            self._ports[entry.owner].downgrade_block(block_addr)
            entry.sharers.add(entry.owner)
            entry.owner = None
        entry.rights = "S"

    def _l2_fill(self, chip: int, block_addr: int) -> None:
        _blk, victim = self.l2s[chip].insert(block_addr, MESI.SHARED)
        if victim is not None:
            self._chip_l2_victimized(chip, victim.addr)

    def _chip_l2_victimized(self, chip: int, victim_addr: int) -> None:
        """An L2 eviction: transactionally-covered blocks go sticky-M at
        the memory directory (Section 7's writeback-to-sticky-M)."""
        entry = self._chip_entries[chip].get(victim_addr)
        transactional = False
        if entry is not None and entry.present:
            holders = set(entry.sharers)
            if entry.owner is not None:
                holders.add(entry.owner)
            transactional = bool(entry.sticky)
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
            entry.rights = None
            # Memory-level sticky-M routes *remote* chips' requests back
            # here for whole-chip signature checks, but an intra-chip
            # request from a sibling core consults only this entry's
            # pointers — so cores whose signatures still cover the block
            # must keep per-core sticky obligations, exactly as for an
            # L1 eviction. (Model-checker finding: without this, a
            # 3-step trace — tx read, chip-L2 victimization, sibling
            # access — bypasses the surviving read set entirely.)
            if self._use_sticky:
                first = chip * self.cfg.num_cores
                for core_id in range(first, first + self.cfg.num_cores):
                    port = self._ports.get(core_id)
                    if port is not None and \
                            port.holds_transactional(victim_addr):
                        entry.sticky.add(core_id)
                        self._c_sticky_set.add()
        mem_entry = self._mem_entry(victim_addr)
        mem_entry.sharer_chips.discard(chip)
        if mem_entry.owner_chip == chip:
            mem_entry.owner_chip = None
        if transactional:
            self._c_l2_evict_tx.add()
            if self._use_sticky:
                mem_entry.sticky_chips.add(chip)
                self._c_chip_sticky.add()
        self.stats.emit("coh.l2_victim", block=victim_addr,
                        transactional=transactional)

    # ------------------------------------------------------------------
    # Paging hooks
    # ------------------------------------------------------------------

    def note_relocated_block(self, block_addr: int) -> None:
        """Force signature checks everywhere for a relocated block.

        Neither the memory directory nor any chip directory has pointers
        for the fresh frame, so without help the first request would be
        granted unchecked. Marking every chip sticky at the memory level
        (and every core sticky at the chip level) routes the next request
        through full conflict checks; the stickies clean up on the first
        grant, exactly like victimization stickies.
        """
        self._mem_entry(block_addr).sticky_chips.update(
            range(self.cfg.num_chips))
        for chip in range(self.cfg.num_chips):
            first = chip * self.cfg.num_cores
            self._chip_entry(chip, block_addr).sticky.update(
                range(first, first + self.cfg.num_cores))

    def scrub_block(self, block_addr: int) -> None:
        """Frame freed or reallocated: drop copies and pointers everywhere.

        Cores whose signatures still cover the block keep per-chip sticky
        obligations (and their chips stay sticky at the memory directory),
        mirroring the transactional-eviction rule, so conflict checks
        still reach them.
        """
        mem = self._mem_entry(block_addr)
        mem.owner_chip = None
        mem.sharer_chips.clear()
        for chip in range(self.cfg.num_chips):
            entry = self._chip_entry(chip, block_addr)
            entry.rights = None
            entry.owner = None
            entry.sharers.clear()
            first = chip * self.cfg.num_cores
            for core_id in range(first, first + self.cfg.num_cores):
                port = self._ports.get(core_id)
                if port is None:
                    continue
                port.invalidate_block(block_addr)
                if self._use_sticky and port.holds_transactional(block_addr):
                    entry.sticky.add(core_id)
                    mem.sticky_chips.add(chip)
            self.l2s[chip].invalidate(block_addr)

    # ``perfbench/tracer.py`` wraps ``request`` and ``l1_evicted`` in
    # each fabric class's own ``__dict__``.
    l1_evicted = DirectoryLevel.l1_evicted
