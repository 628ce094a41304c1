"""Tests for the TLB model and its integration in the access path."""

import pytest

from repro.common.config import SystemConfig
from repro.harness.system import System
from repro.mem.tlb import Tlb


class TestTlbUnit:
    def test_miss_then_hit(self):
        tlb = Tlb(entries=4)
        assert tlb.lookup(0, 0x1000) is None
        tlb.fill(0, 0x1000, 0x9000)
        assert tlb.lookup(0, 0x1000) == 0x9000

    def test_asid_separation(self):
        tlb = Tlb(entries=4)
        tlb.fill(0, 0x1000, 0x9000)
        assert tlb.lookup(1, 0x1000) is None

    def test_lru_eviction(self):
        tlb = Tlb(entries=2)
        tlb.fill(0, 0x1000, 0xA000)
        tlb.fill(0, 0x2000, 0xB000)
        tlb.lookup(0, 0x1000)          # refresh
        tlb.fill(0, 0x3000, 0xC000)    # evicts 0x2000
        assert tlb.lookup(0, 0x2000) is None
        assert tlb.lookup(0, 0x1000) == 0xA000

    def test_refill_updates_frame(self):
        tlb = Tlb(entries=2)
        tlb.fill(0, 0x1000, 0xA000)
        tlb.fill(0, 0x1000, 0xD000)
        assert tlb.lookup(0, 0x1000) == 0xD000
        assert tlb.occupancy == 1

    def test_invalidate_and_shootdown_count(self):
        tlb = Tlb(entries=4)
        tlb.fill(0, 0x1000, 0xA000)
        assert tlb.invalidate(0, 0x1000)
        assert not tlb.invalidate(0, 0x1000)
        assert tlb.lookup(0, 0x1000) is None
        assert tlb.occupancy == 0

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            Tlb(entries=0)


class TestTlbIntegration:
    def _system(self):
        cfg = SystemConfig.small(num_cores=2, threads_per_core=1)
        system = System(cfg, seed=1)
        threads = system.place_threads(2)
        return system, threads

    def run(self, system, gen):
        proc = system.sim.spawn(gen)
        system.sim.run()
        return proc.done.value

    def test_first_touch_pays_walk(self):
        system, threads = self._system()
        slot = threads[0].slot
        self.run(system, slot.core.load(slot, 0x100))
        t_cold = system.sim.now
        assert system.stats.value("mem.tlb_misses") == 1
        # Second access to the same page: no walk, just the L1 hit.
        self.run(system, slot.core.load(slot, 0x108))
        assert system.sim.now - t_cold == system.cfg.l1.latency
        assert system.stats.value("mem.tlb_misses") == 1

    def test_new_page_pays_new_walk(self):
        system, threads = self._system()
        slot = threads[0].slot
        self.run(system, slot.core.load(slot, 0x100))
        self.run(system, slot.core.load(slot, 0x100 + system.cfg.page_bytes))
        assert system.stats.value("mem.tlb_misses") == 2

    def test_relocation_shoots_down_all_cores(self):
        system, threads = self._system()
        a, b = threads[0].slot, threads[1].slot
        self.run(system, a.core.load(a, 0x100))
        self.run(system, b.core.load(b, 0x100))
        misses_before = system.stats.value("mem.tlb_misses")
        page = 0x100 & ~(system.cfg.page_bytes - 1)
        assert a.core.tlb.lookup(0, page) is not None
        assert b.core.tlb.lookup(0, page) is not None
        self.run(system, system.manager.relocate_page(
            system.page_table(0), 0x100))
        assert a.core.tlb.lookup(0, page) is None
        assert b.core.tlb.lookup(0, page) is None
        # Next access re-walks and sees the new frame's value.
        self.run(system, a.core.store(a, 0x100, 5))
        assert system.stats.value("mem.tlb_misses") == misses_before + 1
        assert self.run(system, b.core.load(b, 0x100)) == 5
