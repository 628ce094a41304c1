"""Tests for the broadcast-snooping alternative (Section 7)."""

from typing import List

from repro.cache.block import MESI
from repro.coherence.msgs import Blocker, ConflictPort
from repro.coherence.snooping import SnoopingFabric
from repro.common.config import CoherenceStyle, SystemConfig
from repro.common.stats import StatsRegistry
from repro.interconnect.network import Network
from repro.interconnect.topology import GridTopology
from repro.sim.engine import Simulator


class FakePort(ConflictPort):
    def __init__(self, core_id: int):
        self._core_id = core_id
        self.conflicts: List[int] = []
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
                            (1, 100 + self._core_id), False)]
        return []

    def invalidate_block(self, block_addr) -> bool:
        self.invalidated.append(block_addr)
        return True

    def downgrade_block(self, block_addr) -> bool:
        self.downgraded.append(block_addr)
        return True

    def holds_transactional(self, block_addr) -> bool:
        return False


def build(num_cores=4):
    cfg = SystemConfig.small(num_cores=num_cores)
    stats = StatsRegistry()
    topo = GridTopology(*cfg.mesh_dims, cfg.num_cores, cfg.l2_banks)
    net = Network(topo, cfg.link_latency, stats)
    fabric = SnoopingFabric(cfg, net, stats)
    ports = [FakePort(i) for i in range(num_cores)]
    for p in ports:
        fabric.attach(p)
    return fabric, ports, stats


def do_request(fabric, core, block, is_write, ts=None):
    sim = Simulator()
    proc = sim.spawn(fabric.request(core, core, ts, block, is_write, 0))
    sim.run()
    return proc.done.value


class TestSnooping:
    def test_every_request_checks_every_other_core(self):
        fabric, ports, stats = build()
        do_request(fabric, 0, 0x1000, is_write=False)
        for p in ports[1:]:
            assert 0x1000 in p.checked
        assert ports[0].checked == []  # requester excluded
        assert stats.value("coherence.snoops") == 1

    def test_grant_states(self):
        fabric, ports, _ = build()
        r = do_request(fabric, 0, 0x1000, is_write=False)
        assert r.grant_state is MESI.EXCLUSIVE
        r = do_request(fabric, 1, 0x1000, is_write=False)
        assert r.grant_state is MESI.SHARED
        assert ports[0].downgraded == [0x1000]
        r = do_request(fabric, 2, 0x1000, is_write=True)
        assert r.grant_state is MESI.MODIFIED
        assert 0x1000 in ports[0].invalidated
        assert 0x1000 in ports[1].invalidated

    def test_wired_or_nack(self):
        fabric, ports, stats = build()
        ports[2].conflicts.append(0x1000)
        r = do_request(fabric, 0, 0x1000, is_write=True)
        assert not r.granted
        assert r.blockers[0].core_id == 2
        assert stats.value("coherence.nacks") == 1

    def test_no_sticky_needed_after_eviction(self):
        """Victimization cannot lose conflict coverage under snooping."""
        fabric, ports, _ = build()
        do_request(fabric, 0, 0x1000, is_write=True)
        fabric.l1_evicted(0, 0x1000, MESI.MODIFIED, transactional=True)
        # The evictor's signature still gets checked on the next broadcast.
        ports[0].conflicts.append(0x1000)
        r = do_request(fabric, 1, 0x1000, is_write=True)
        assert not r.granted

    def test_bus_serializes_requests(self):
        fabric, ports, _ = build()
        sim = Simulator()
        order = []

        def req(core, block):
            result = yield from fabric.request(core, core, None, block,
                                               False, 0)
            order.append((sim.now, core))
            return result

        sim.spawn(req(0, 0x1000))
        sim.spawn(req(1, 0x2000))
        sim.run()
        # Both complete, at different times (one bus transaction at a time).
        assert len(order) == 2
        assert order[0][0] != order[1][0]

    def test_owner_supplies_data(self):
        fabric, ports, _ = build()
        do_request(fabric, 0, 0x1000, is_write=True)
        # Second read: data comes from owner's cache (cheap), not memory.
        sim = Simulator()
        proc = sim.spawn(fabric.request(1, 1, None, 0x1000, False, 0))
        sim.run()
        assert proc.done.value.granted
        assert sim.now < fabric.cfg.memory_latency
