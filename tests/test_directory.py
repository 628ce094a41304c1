"""Protocol-level tests for the MESI directory with sticky states.

Uses scripted :class:`ConflictPort` fakes so each transition can be driven
without the full CPU model.
"""

from typing import List, Optional

import pytest

from repro.cache.block import MESI
from repro.coherence.directory import DirectoryFabric
from repro.coherence.msgs import Blocker, ConflictPort
from repro.common.config import SystemConfig
from repro.common.stats import StatsRegistry
from repro.interconnect.network import Network
from repro.interconnect.topology import GridTopology
from repro.sim.engine import Simulator


class FakePort(ConflictPort):
    """A core stub: scripted conflicts, recorded invalidations."""

    def __init__(self, core_id: int):
        self._core_id = core_id
        self.conflicts: List[int] = []     # blocks this core NACKs
        self.fp = False                    # report conflicts as aliasing?
        self.tx_blocks: List[int] = []     # blocks "in a local signature"
        self.invalidated: List[int] = []
        self.downgraded: List[int] = []
        self.checked: List[int] = []

    @property
    def core_id(self) -> int:
        return self._core_id

    def check_conflicts(self, block_addr, is_write, exclude_thread, asid,
                        requester_ts):
        self.checked.append(block_addr)
        if block_addr in self.conflicts:
            return [Blocker(self._core_id, 100 + self._core_id,
                            (1, 100 + self._core_id), self.fp)]
        return []

    def invalidate_block(self, block_addr) -> bool:
        self.invalidated.append(block_addr)
        return True

    def downgrade_block(self, block_addr) -> bool:
        self.downgraded.append(block_addr)
        return True

    def holds_transactional(self, block_addr) -> bool:
        return block_addr in self.tx_blocks


def build(num_cores=4, use_sticky=True, l2_kb=64):
    from dataclasses import replace
    cfg = SystemConfig.small(num_cores=num_cores)
    cfg = replace(cfg, tm=replace(cfg.tm, use_sticky_states=use_sticky))
    stats = StatsRegistry()
    topo = GridTopology(*cfg.mesh_dims, cfg.num_cores, cfg.l2_banks)
    net = Network(topo, cfg.link_latency, stats)
    fabric = DirectoryFabric(cfg, net, stats)
    ports = [FakePort(i) for i in range(num_cores)]
    for p in ports:
        fabric.attach(p)
    return fabric, ports, stats


def do_request(fabric, core, block, is_write, thread=None, ts=None, asid=0):
    sim = Simulator()
    proc = sim.spawn(fabric.request(core, thread if thread is not None
                                    else core, ts, block, is_write, asid))
    sim.run()
    assert proc.done.done
    return proc.done.value, sim.now


class TestBasicTransitions:
    def test_cold_gets_grants_exclusive(self):
        fabric, ports, _ = build()
        result, latency = do_request(fabric, 0, 0x1000, is_write=False)
        assert result.granted
        assert result.grant_state is MESI.EXCLUSIVE
        entry = fabric.entry_view(0x1000)
        assert entry.owner == 0
        # Cold miss pays the memory latency.
        assert latency >= fabric.cfg.memory_latency

    def test_second_gets_downgrades_owner_to_shared(self):
        fabric, ports, _ = build()
        do_request(fabric, 0, 0x1000, is_write=False)
        result, _ = do_request(fabric, 1, 0x1000, is_write=False)
        assert result.grant_state is MESI.SHARED
        assert ports[0].downgraded == [0x1000]
        entry = fabric.entry_view(0x1000)
        assert entry.owner is None
        assert entry.sharers == {0, 1}

    def test_getm_invalidates_sharers(self):
        fabric, ports, _ = build()
        do_request(fabric, 0, 0x1000, is_write=False)
        do_request(fabric, 1, 0x1000, is_write=False)
        result, _ = do_request(fabric, 2, 0x1000, is_write=True)
        assert result.grant_state is MESI.MODIFIED
        assert 0x1000 in ports[0].invalidated
        assert 0x1000 in ports[1].invalidated
        entry = fabric.entry_view(0x1000)
        assert entry.owner == 2
        assert not entry.sharers

    def test_upgrade_does_not_invalidate_requester(self):
        fabric, ports, _ = build()
        do_request(fabric, 0, 0x1000, is_write=False)
        do_request(fabric, 1, 0x1000, is_write=False)
        do_request(fabric, 0, 0x1000, is_write=True)  # upgrade by core 0
        assert 0x1000 not in ports[0].invalidated
        assert 0x1000 in ports[1].invalidated

    def test_l2_hit_is_cheaper_than_memory(self):
        fabric, _, _ = build()
        _, cold = do_request(fabric, 0, 0x1000, is_write=False)
        fabric.entry_view(0x1000).sharers.clear()
        fabric.entry_view(0x1000).owner = None
        _, warm = do_request(fabric, 1, 0x1000, is_write=False)
        assert warm < cold


class TestConflictNacks:
    def test_getm_nacked_by_owner_signature(self):
        fabric, ports, stats = build()
        do_request(fabric, 0, 0x1000, is_write=False)  # core0 owns (E)
        ports[0].conflicts.append(0x1000)
        result, _ = do_request(fabric, 1, 0x1000, is_write=True,
                               ts=(10, 1))
        assert not result.granted
        assert result.blockers[0].core_id == 0
        assert stats.value("coherence.nacks") == 1
        # The directory state is unchanged by a NACKed request.
        assert fabric.entry_view(0x1000).owner == 0

    def test_gets_forwarded_only_to_owner(self):
        fabric, ports, _ = build()
        do_request(fabric, 0, 0x1000, is_write=False)
        do_request(fabric, 1, 0x1000, is_write=False)
        ports[0].checked.clear()
        ports[1].checked.clear()
        do_request(fabric, 2, 0x1000, is_write=False)
        # No owner anymore (S/S): a GETS needs no forwards at all.
        assert ports[0].checked == []
        assert ports[1].checked == []

    def test_requester_core_never_checked(self):
        fabric, ports, _ = build()
        do_request(fabric, 0, 0x1000, is_write=False)
        ports[0].conflicts.append(0x1000)
        ports[0].checked.clear()
        # Core 0 upgrading its own block: its own (sibling-checked) core
        # is excluded from coherence checks.
        result, _ = do_request(fabric, 0, 0x1000, is_write=True)
        assert result.granted
        assert ports[0].checked == []

    def test_false_positive_flag_propagates(self):
        fabric, ports, _ = build()
        do_request(fabric, 0, 0x1000, is_write=False)
        ports[0].conflicts.append(0x1000)
        ports[0].fp = True
        result, _ = do_request(fabric, 1, 0x1000, is_write=True)
        assert not result.granted
        assert result.all_false_positive


class TestStickyStates:
    def test_tx_eviction_creates_sticky_and_keeps_forwarding(self):
        fabric, ports, stats = build()
        do_request(fabric, 0, 0x1000, is_write=True)   # core0 owns M
        fabric.l1_evicted(0, 0x1000, MESI.MODIFIED, transactional=True)
        entry = fabric.entry_view(0x1000)
        assert entry.sticky == {0}
        assert entry.owner == 0  # directory state deliberately unchanged
        assert stats.value("coherence.sticky_created") == 1
        assert stats.value("victimization.l1_tx") == 1
        # Conflicting request is still forwarded to the evictor.
        ports[0].conflicts.append(0x1000)
        result, _ = do_request(fabric, 1, 0x1000, is_write=True)
        assert not result.granted

    def test_sticky_cleaned_on_successful_request(self):
        fabric, ports, stats = build()
        do_request(fabric, 0, 0x1000, is_write=True)
        fabric.l1_evicted(0, 0x1000, MESI.MODIFIED, transactional=True)
        result, _ = do_request(fabric, 1, 0x1000, is_write=True)
        assert result.granted
        entry = fabric.entry_view(0x1000)
        assert not entry.sticky
        assert stats.value("coherence.sticky_cleaned") == 1

    def test_nontx_m_eviction_clears_owner(self):
        fabric, ports, _ = build()
        do_request(fabric, 0, 0x1000, is_write=True)
        fabric.l1_evicted(0, 0x1000, MESI.MODIFIED, transactional=False)
        entry = fabric.entry_view(0x1000)
        assert entry.owner is None
        assert not entry.sticky

    def test_s_eviction_is_silent(self):
        fabric, ports, _ = build()
        do_request(fabric, 0, 0x1000, is_write=False)
        do_request(fabric, 1, 0x1000, is_write=False)
        fabric.l1_evicted(0, 0x1000, MESI.SHARED, transactional=False)
        # Stale sharer left behind, by design (silent S replacement).
        assert 0 in fabric.entry_view(0x1000).sharers

    def test_sticky_disabled_ablation(self):
        fabric, ports, stats = build(use_sticky=False)
        do_request(fabric, 0, 0x1000, is_write=True)
        fabric.l1_evicted(0, 0x1000, MESI.MODIFIED, transactional=True)
        entry = fabric.entry_view(0x1000)
        assert not entry.sticky
        assert entry.owner is None  # treated as a plain writeback
        # Victimization is still counted (that is the ablation's metric).
        assert stats.value("victimization.l1_tx") == 1


class TestL2Victimization:
    def _fill_l2_set(self, fabric, base_block):
        """Insert enough blocks mapping to one L2 set to force an eviction."""
        cfg = fabric.cfg.l2
        stride = cfg.num_sets * cfg.block_bytes
        return [base_block + i * stride for i in range(cfg.associativity + 1)]

    def test_l2_eviction_sets_lost_info_and_broadcasts(self):
        fabric, ports, stats = build()
        victim = 0x4000
        do_request(fabric, 0, victim, is_write=True)  # owner: core0
        ports[0].tx_blocks.append(victim)             # in its signature
        for addr in self._fill_l2_set(fabric, victim)[1:]:
            do_request(fabric, 1, addr, is_write=False)
        assert stats.value("victimization.l2_tx") == 1
        assert victim in ports[0].invalidated  # inclusion enforced
        entry = fabric.entry_view(victim)
        assert entry.lost_info
        # Next request to the victim broadcasts signature checks.
        ports[0].checked.clear()
        ports[1].checked.clear()
        result, _ = do_request(fabric, 2, victim, is_write=False)
        assert result.granted
        assert victim in ports[0].checked
        assert victim in ports[1].checked
        assert not fabric.entry_view(victim).lost_info
        assert stats.value("coherence.broadcast_rebuilds") == 1

    def test_check_all_persists_until_success(self):
        fabric, ports, stats = build()
        victim = 0x4000
        do_request(fabric, 0, victim, is_write=True)
        ports[0].tx_blocks.append(victim)
        ports[0].conflicts.append(victim)
        for addr in self._fill_l2_set(fabric, victim)[1:]:
            do_request(fabric, 1, addr, is_write=False)
        # NACKed broadcast leaves the entry in check-all state.
        result, _ = do_request(fabric, 2, victim, is_write=False)
        assert not result.granted
        assert fabric.entry_view(victim).must_check_all
        # Conflict clears; the next request succeeds and leaves the state.
        ports[0].conflicts.remove(victim)
        result, _ = do_request(fabric, 2, victim, is_write=False)
        assert result.granted
        assert not fabric.entry_view(victim).must_check_all


class TestRelocation:
    def test_note_relocated_block_is_conservative_everywhere(self):
        """Paging moved a block to a frame no directory pointer names, so
        the next request to it checks every core's signatures and only a
        granted request leaves check-all. The model checker generates no
        relocation, so this pins the directory's RELOCATE transition."""
        fabric, ports, stats = build()
        block = 0x4000
        fabric.note_relocated_block(block)
        assert fabric.entry_view(block).must_check_all
        ports[0].conflicts.append(block)
        result, _ = do_request(fabric, 2, block, is_write=False)
        assert not result.granted
        assert fabric.entry_view(block).must_check_all
        ports[0].conflicts.remove(block)
        for port in ports:
            port.checked.clear()
        result, _ = do_request(fabric, 2, block, is_write=False)
        assert result.granted
        assert all(block in port.checked for port in ports
                   if port.core_id != 2)
        assert not fabric.entry_view(block).must_check_all
        assert stats.value("coherence.broadcast_rebuilds") == 2
