"""Tests for the multiple-CMP system (Section 7): two-level directory,
chip-level sticky states, cross-chip isolation, and full-workload runs."""

from dataclasses import replace

import pytest

from repro.common.config import SignatureKind, SyncMode, SystemConfig
from repro.common.errors import AbortTransaction
from repro.harness.runner import run_workload
from repro.harness.system import System
from repro.workloads import SharedCounter


def build(num_chips=2, cores_per_chip=2, threads_per_core=1):
    cfg = SystemConfig.multichip(num_chips=num_chips,
                                 cores_per_chip=cores_per_chip,
                                 threads_per_core=threads_per_core)
    system = System(cfg, seed=1)
    threads = system.place_threads(cfg.total_cores * threads_per_core)
    return system, threads


def run(system, gen):
    proc = system.sim.spawn(gen)
    system.sim.run()
    assert proc.done.done
    return proc.done.value


def cross_chip_pair(system, threads):
    """Two threads guaranteed to live on different chips."""
    fabric = system.fabric
    a = threads[0]
    for b in threads[1:]:
        if fabric.chip_of(b.slot.core.core_id) != fabric.chip_of(
                a.slot.core.core_id):
            return a, b
    pytest.fail("no cross-chip thread pair found")


class TestBasicCoherence:
    def test_cross_chip_store_then_load(self):
        system, threads = build()
        a, b = cross_chip_pair(system, threads)
        run(system, a.slot.core.store(a.slot, 0x1000, 42))
        assert run(system, b.slot.core.load(b.slot, 0x1000)) == 42

    def test_cross_chip_write_invalidates(self):
        system, threads = build()
        a, b = cross_chip_pair(system, threads)
        run(system, a.slot.core.store(a.slot, 0x1000, 1))
        run(system, b.slot.core.store(b.slot, 0x1000, 2))
        assert run(system, a.slot.core.load(a.slot, 0x1000)) == 2

    def test_intra_chip_hit_avoids_interchip_traffic(self):
        system, threads = build(cores_per_chip=2)
        a = threads[0]
        run(system, a.slot.core.store(a.slot, 0x1000, 7))
        before = system.stats.value("coherence.interchip_requests")
        # A sibling core on the same chip reads: chip has M rights, so the
        # request is satisfied intra-chip.
        same_chip = next(
            t for t in threads[1:]
            if system.fabric.chip_of(t.slot.core.core_id)
            == system.fabric.chip_of(a.slot.core.core_id))
        assert run(system, same_chip.slot.core.load(same_chip.slot,
                                                    0x1000)) == 7
        assert system.stats.value("coherence.interchip_requests") == before

    def test_chip_rights_tracked(self):
        system, threads = build()
        a, b = cross_chip_pair(system, threads)
        chip_a = system.fabric.chip_of(a.slot.core.core_id)
        chip_b = system.fabric.chip_of(b.slot.core.core_id)
        run(system, a.slot.core.store(a.slot, 0x1000, 1))
        block = system.amap.block_of(a.translate(0x1000))
        assert system.fabric.mem_entry_view(block).owner_chip == chip_a
        run(system, b.slot.core.load(b.slot, 0x1000))
        mem_entry = system.fabric.mem_entry_view(block)
        assert mem_entry.owner_chip is None
        assert mem_entry.sharer_chips == {chip_a, chip_b}
        assert system.fabric.chip_entry_view(chip_a, block).rights == "S"


class TestCrossChipIsolation:
    def test_remote_chip_read_of_tx_write_stalls(self):
        system, threads = build()
        a, b = cross_chip_pair(system, threads)
        a.ctx.begin(now=0)
        run(system, a.slot.core.store(a.slot, 0x1000, 9))
        done = []

        def reader():
            value = yield from b.slot.core.load(b.slot, 0x1000)
            done.append(value)

        system.sim.spawn(reader())
        system.sim.run(until=5000)
        assert not done, "inter-chip NACK must isolate the write set"
        assert system.stats.value("coherence.nacks") > 0
        a.ctx.commit()
        system.sim.run()
        assert done == [9]

    def test_deadlock_resolution_across_chips(self):
        system, threads = build()
        a, b = cross_chip_pair(system, threads)
        a.ctx.begin(now=0)   # older
        b.ctx.begin(now=10)  # younger
        run(system, a.slot.core.store(a.slot, 0x1000, 1))
        run(system, b.slot.core.store(b.slot, 0x2000, 2))
        outcome = {}

        def cross(slot, addr, key, thread):
            try:
                yield from slot.core.store(slot, addr, 3)
                outcome[key] = "done"
            except AbortTransaction:
                thread.ctx.abort_all(system.memory, thread.translate)
                outcome[key] = "abort"

        system.sim.spawn(cross(a.slot, 0x2000, "a", a))
        system.sim.spawn(cross(b.slot, 0x1000, "b", b))
        system.sim.run(until=2_000_000)
        assert outcome.get("b") == "abort"
        system.sim.run()
        assert outcome.get("a") == "done"


class TestChipLevelSticky:
    def _overflow_chip_l2(self, system, thread, base=0x100000):
        """Write enough page-strided blocks to overflow a chip-L2 set.

        Frames are demand-allocated sequentially, so page-strided virtual
        addresses land one page (8 KB) apart physically; with a 16 KB L2
        set period they alternate between two sets — writing twice
        (associativity + 1) blocks overflows both.
        """
        cfg = system.cfg.l2
        stride = system.cfg.page_bytes * 2  # distinct pages, same L1 set
        slot = thread.slot
        thread.ctx.begin(now=0)
        addrs = [base + i * stride
                 for i in range(2 * (cfg.associativity + 1))]
        for i, addr in enumerate(addrs):
            run(system, slot.core.store(slot, addr, i))
        return addrs

    def test_l2_victimization_goes_sticky_m_at_memory(self):
        system, threads = build()
        a = threads[0]
        chip_a = system.fabric.chip_of(a.slot.core.core_id)
        self._overflow_chip_l2(system, a)
        assert system.stats.value("victimization.l2_tx") >= 1
        assert system.stats.value("coherence.chip_sticky_created") >= 1
        # Some memory-directory entry carries the sticky chip.
        sticky_blocks = [blk for blk, e in system.fabric._mem_entries.items()
                         if chip_a in e.sticky_chips]
        assert sticky_blocks

    def test_sticky_m_preserves_cross_chip_isolation(self):
        system, threads = build()
        a, b = cross_chip_pair(system, threads)
        addrs = self._overflow_chip_l2(system, a)
        victim_vaddr = addrs[0]
        done = []

        def reader():
            value = yield from b.slot.core.load(b.slot, victim_vaddr)
            done.append(value)

        system.sim.spawn(reader())
        system.sim.run(until=5000)
        assert not done, "sticky-M at memory must keep forwarding checks"
        a.ctx.commit()
        system.sim.run()
        assert done == [0]

    def test_chip_l2_victims_and_sticky_m_discharge_are_published(self):
        """A chip-L2 victimization emits ``coh.l2_victim`` as the
        single-CMP L2 does, and the memory directory's discharge of a
        sticky-M chip emits ``coh.sticky_clean`` naming that chip."""
        system, threads = build()
        _bus, log = system.attach_bus(strict=True)
        a, b = cross_chip_pair(system, threads)
        chip_a = system.fabric.chip_of(a.slot.core.core_id)
        self._overflow_chip_l2(system, a)
        tx_victims = [e.fields["block"]
                      for e in log.events(kind="coh.l2_victim")
                      if e.fields["transactional"]]
        assert len(tx_victims) == \
            system.stats.value("victimization.l2_tx") == 2
        assert set(tx_victims) == {
            blk for blk, e in system.fabric._mem_entries.items()
            if chip_a in e.sticky_chips}
        a.ctx.commit()
        block = tx_victims[0]
        result = run(system, system.fabric.request(
            b.slot.core.core_id, b.tid, None, block, True, 0))
        assert result.granted
        assert [(e.fields["block"], e.fields["chips"])
                for e in log.events(kind="coh.sticky_clean")
                if "chips" in e.fields] == [(block, (chip_a,))]


class TestStickyAttribution:
    """A NACK that reached its blocker only through a sticky state says so
    (``via == "sticky"``), on the single-CMP directory and on multichip."""

    X = 0x9000

    def _tx_read(self, system, thread):
        """``thread`` begins a transaction and loads X; X's block."""
        thread.ctx.begin(now=0)
        run(system, thread.slot.core.load(thread.slot, self.X))
        return system.amap.block_of(thread.translate(self.X))

    def _evict_l1(self, system, core, block):
        """``Core._install``'s victim path."""
        state = core.l1.peek(block).state
        core.l1.invalidate(block)
        system.fabric.l1_evicted(core.core_id, block, state,
                                 core.holds_transactional(block))

    def _getm_vias(self, system, thread, block):
        result = run(system, system.fabric.request(
            thread.slot.core.core_id, thread.tid, None, block, True, 0))
        assert not result.granted
        return [blk.via for blk in result.blockers]

    @pytest.mark.parametrize("cfg", [
        SystemConfig.small(num_cores=2),
        SystemConfig.multichip(num_chips=2, cores_per_chip=2)],
        ids=["directory", "multichip"])
    def test_l1_victim_sticky_nack(self, cfg):
        """Both fabrics run one L1-eviction rule and one grant, so both
        publish the sticky eviction (``coh.l1_victim``) and, once a
        later request succeeds, its discharge (``coh.sticky_clean``)."""
        system = System(cfg, seed=1)
        _bus, log = system.attach_bus(strict=True)
        a, b = system.place_threads(2)  # cores 0 and 1, one chip
        block = self._tx_read(system, a)
        self._evict_l1(system, a.slot.core, block)
        assert self._getm_vias(system, b, block) == ["sticky"]
        assert [(e.fields["core"], e.fields["transactional"],
                 e.fields["sticky"])
                for e in log.events(kind="coh.l1_victim")] == \
            [(0, True, True)]
        a.ctx.commit()
        result = run(system, system.fabric.request(
            b.slot.core.core_id, b.tid, None, block, True, 0))
        assert result.granted
        assert [e.fields["cores"]
                for e in log.events(kind="coh.sticky_clean")] == [(0,)]

    @pytest.mark.parametrize("victim", ["l1", "chip-l2"])
    def test_remote_chip_sticky_nack(self, victim):
        """Another chip's GETM reaches the obligation through the memory
        directory: via the owner chip, whose directory holds the core
        sticky (L1 victim), or via the chip the memory directory holds
        sticky-M (chip-L2 victim)."""
        system, threads = build()
        a, c = threads[0], threads[2]  # core 0 on chip 0, core 2 on chip 1
        fabric = system.fabric
        block = self._tx_read(system, a)
        if victim == "l1":
            self._evict_l1(system, a.slot.core, block)
            assert fabric.chip_entry_view(0, block).sticky == {0}
            assert fabric.mem_entry_view(block).owner_chip == 0
        else:
            fabric.l2s[0].invalidate(block)
            fabric._chip_l2_victimized(0, block)
            assert fabric.mem_entry_view(block).sticky_chips == {0}
        assert self._getm_vias(system, c, block) == ["sticky"]


class TestWorkloadsOnMultichip:
    def test_shared_counter_exact(self):
        cfg = SystemConfig.multichip(num_chips=4, cores_per_chip=2)
        wl = SharedCounter(num_threads=8, units_per_thread=4,
                           compute_between=50)
        result = run_workload(cfg, wl, keep_system=True)
        value = result.system.memory.load(
            result.system.page_table(0).translate(wl.counter))
        assert value == 32
        assert result.counters.get("coherence.interchip_requests", 0) > 0

    def test_counter_exact_with_aliasing_signatures(self):
        cfg = SystemConfig.multichip(num_chips=2, cores_per_chip=2)
        cfg = cfg.with_signature(SignatureKind.BIT_SELECT, bits=32)
        wl = SharedCounter(num_threads=4, units_per_thread=5)
        result = run_workload(cfg, wl, keep_system=True)
        value = result.system.memory.load(
            result.system.page_table(0).translate(wl.counter))
        assert value == 20

    def test_lock_mode_works(self):
        cfg = SystemConfig.multichip(num_chips=2, cores_per_chip=2)
        cfg = cfg.with_sync(SyncMode.LOCKS)
        wl = SharedCounter(num_threads=4, units_per_thread=4)
        result = run_workload(cfg, wl, keep_system=True)
        value = result.system.memory.load(
            result.system.page_table(0).translate(wl.counter))
        assert value == 16


class TestInvariantAudits:
    """System-wide invariant checks against the two-level directory:
    isolation coverage and directory accuracy must hold through
    cross-chip traffic, scrubs, and relocation notes — and the audits
    must actually reject planted corruption."""

    def _pblock(self, system, thread, vaddr):
        return thread.translate(vaddr) & ~(system.cfg.block_bytes - 1)

    def test_audits_clean_after_cross_chip_traffic(self):
        from repro.coherence.invariants import check_all
        system, threads = build()
        a, b = cross_chip_pair(system, threads)

        def gen():
            yield from system.manager.begin(a.slot)
            yield from a.slot.core.store(a.slot, 0x1000_0000, 5)
            yield from system.manager.commit(a.slot)
            yield from b.slot.core.load(b.slot, 0x1000_0000)

        run(system, gen())
        summary = check_all(system)
        assert len(summary) == 4

    def test_open_transaction_write_set_is_covered(self):
        from repro.coherence.invariants import (check_directory_accuracy,
                                                check_isolation_coverage)
        system, threads = build()
        a = threads[0]

        def gen():
            yield from system.manager.begin(a.slot)
            yield from a.slot.core.store(a.slot, 0x1000_0000, 1)

        run(system, gen())
        assert a.ctx.in_tx
        assert check_isolation_coverage(system) >= 1
        assert check_directory_accuracy(system) > 0

    def test_scrub_block_leaves_sticky_coverage(self):
        """Scrubbing a frame under an open transaction must not strand
        the write set: the covering core goes sticky at the chip level
        and the chip goes sticky at the memory level."""
        from repro.coherence.invariants import check_isolation_coverage
        system, threads = build()
        a = threads[0]
        vaddr = 0x1000_0000

        def gen():
            yield from system.manager.begin(a.slot)
            yield from a.slot.core.store(a.slot, vaddr, 7)

        run(system, gen())
        pblock = self._pblock(system, a, vaddr)
        fabric = system.fabric
        fabric.scrub_block(pblock)
        assert a.slot.core.l1.peek(pblock) is None
        chip = fabric.chip_of(a.slot.core.core_id)
        assert a.slot.core.core_id in \
            fabric.chip_entry_view(chip, pblock).sticky
        assert chip in fabric.mem_entry_view(pblock).sticky_chips
        assert check_isolation_coverage(system) >= 1

        def fin():
            yield from system.manager.abort(a.slot)

        run(system, fin())

    def test_scrub_block_without_transactions_clears_everything(self):
        system, threads = build()
        a = threads[0]
        vaddr = 0x1000_0000

        def gen():
            yield from system.manager.begin(a.slot)
            yield from a.slot.core.store(a.slot, vaddr, 7)
            yield from system.manager.commit(a.slot)

        run(system, gen())
        pblock = self._pblock(system, a, vaddr)
        fabric = system.fabric
        fabric.scrub_block(pblock)
        chip = fabric.chip_of(a.slot.core.core_id)
        entry = fabric.chip_entry_view(chip, pblock)
        mem = fabric.mem_entry_view(pblock)
        assert a.slot.core.l1.peek(pblock) is None
        assert entry.owner is None and not entry.sharers
        assert not entry.sticky
        assert mem.owner_chip is None and not mem.sharer_chips

    def test_note_relocated_block_is_conservative_everywhere(self):
        from repro.coherence.invariants import check_isolation_coverage
        system, threads = build()
        fabric = system.fabric
        pblock = 0x4000
        fabric.note_relocated_block(pblock)
        num_chips = fabric.cfg.num_chips
        per_chip = fabric.cfg.num_cores
        mem = fabric.mem_entry_view(pblock)
        assert mem.sticky_chips == set(range(num_chips))
        for chip in range(num_chips):
            first = chip * per_chip
            entry = fabric.chip_entry_view(chip, pblock)
            assert entry.sticky == set(range(first, first + per_chip))
        # Conservative stickies keep any write set at that block covered.
        a = threads[0]

        def gen():
            yield from system.manager.begin(a.slot)

        run(system, gen())
        a.ctx.signature.write.insert(pblock)
        assert check_isolation_coverage(system) >= 1

    def test_directory_accuracy_rejects_planted_holder(self):
        from repro.cache.block import MESI
        from repro.coherence.invariants import check_directory_accuracy
        from repro.common.errors import InvariantViolation
        system, _ = build()
        # A cached line no directory level knows about is a protocol bug.
        system.cores[3].l1.insert(0x880, MESI.SHARED)
        with pytest.raises(InvariantViolation):
            check_directory_accuracy(system)

    def test_isolation_coverage_rejects_stranded_write_set(self):
        from repro.coherence.invariants import check_isolation_coverage
        from repro.common.errors import InvariantViolation
        system, threads = build()
        a = threads[0]

        def gen():
            yield from system.manager.begin(a.slot)

        run(system, gen())
        # A write-set block that is neither cached nor pointed at by any
        # directory level would let conflicting requests skip the
        # signature — the audit must refuse it.
        a.ctx.signature.write.insert(0x7000)
        with pytest.raises(InvariantViolation):
            check_isolation_coverage(system)
