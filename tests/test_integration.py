"""End-to-end integration tests: whole-system properties under load.

These are the tests that make the functional-memory design pay off: with
real values in memory, atomicity and isolation are *observable* outcomes of
running contended workloads through the full stack (executor -> core ->
coherence -> signatures -> undo log), under every signature implementation
and both coherence fabrics.
"""

import pytest

from dataclasses import replace

from repro.common.config import (CoherenceStyle, SignatureKind, SyncMode,
                                 SystemConfig)
from repro.harness.runner import run_workload
from repro.workloads import (BigFootprint, NestedUpdate, RepeatStores,
                             SharedCounter)

ALL_SIGNATURES = [
    ("perfect", SignatureKind.PERFECT, 2048),
    ("bs_2k", SignatureKind.BIT_SELECT, 2048),
    ("bs_64", SignatureKind.BIT_SELECT, 64),
    ("dbs_2k", SignatureKind.DOUBLE_BIT_SELECT, 2048),
    ("cbs_2k", SignatureKind.COARSE_BIT_SELECT, 2048),
    # A brutally small signature: almost everything aliases, yet
    # correctness must hold (only performance may suffer).
    ("bs_8", SignatureKind.BIT_SELECT, 8),
]


def counter_value(result, workload):
    system = result.system
    return system.memory.load(system.page_table(0).translate(workload.counter))


class TestAtomicityAcrossSignatures:
    @pytest.mark.parametrize("label,kind,bits", ALL_SIGNATURES,
                             ids=[s[0] for s in ALL_SIGNATURES])
    def test_counter_exact_under_contention(self, label, kind, bits):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=2)
        cfg = cfg.with_signature(kind, bits=bits)
        wl = SharedCounter(num_threads=8, units_per_thread=5,
                           compute_between=30)
        result = run_workload(cfg, wl, keep_system=True)
        assert counter_value(result, wl) == 40
        assert result.commits == 40

    def test_counter_exact_under_snooping(self):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=1)
        cfg = replace(cfg, coherence=CoherenceStyle.SNOOPING)
        wl = SharedCounter(num_threads=4, units_per_thread=5)
        result = run_workload(cfg, wl, keep_system=True)
        assert counter_value(result, wl) == 20

    def test_counter_exact_under_locks(self):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=2)
        cfg = cfg.with_sync(SyncMode.LOCKS)
        wl = SharedCounter(num_threads=8, units_per_thread=5)
        result = run_workload(cfg, wl, keep_system=True)
        assert counter_value(result, wl) == 40

    def test_smt_only_machine(self):
        """All contention on one core: conflicts resolve via sibling checks."""
        cfg = SystemConfig.small(num_cores=1, threads_per_core=4)
        wl = SharedCounter(num_threads=4, units_per_thread=10,
                           compute_between=5, inner_compute=60)
        wl.start_skew = 0
        result = run_workload(cfg, wl, keep_system=True)
        assert counter_value(result, wl) == 40
        assert result.counters.get("tm.sibling_conflicts", 0) > 0


class TestNestingEndToEnd:
    def _run(self, kind=SignatureKind.PERFECT):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=1)
        cfg = cfg.with_signature(kind, bits=256)
        wl = NestedUpdate(num_threads=4, units_per_thread=4)
        result = run_workload(cfg, wl, keep_system=True)
        system = result.system
        pt = system.page_table(0)
        read = lambda addr: system.memory.load(pt.translate(addr))
        return result, wl, read

    def test_closed_nesting_atomic_with_outer(self):
        result, wl, read = self._run()
        assert read(wl.outer_word) == 16
        assert read(wl.child_word) == 16

    def test_open_nesting_survives_outer_retries(self):
        """The open-committed stats word counts attempts, so it is always
        >= commits; with no aborts it equals them."""
        result, wl, read = self._run()
        stats_value = read(wl.stats_word)
        attempts = result.counters.get("tm.attempts", 0)
        assert stats_value >= 16
        assert stats_value <= attempts

    def test_nesting_under_aliasing_signatures(self):
        result, wl, read = self._run(kind=SignatureKind.BIT_SELECT)
        assert read(wl.outer_word) == 16
        assert read(wl.child_word) == 16


class TestVictimizationEndToEnd:
    def test_overflowing_tx_stays_isolated_and_correct(self):
        """Write sets larger than the tiny L1 spill; sticky states keep
        them isolated and the final memory image is exact."""
        cfg = SystemConfig.small(num_cores=2, threads_per_core=1)
        wl = BigFootprint(num_threads=2, units_per_thread=2,
                          blocks_per_sweep=96)  # L1 holds only 64 blocks
        result = run_workload(cfg, wl, keep_system=True)
        assert result.counters.get("victimization.l1_tx", 0) > 0
        assert result.counters.get("coherence.sticky_created", 0) > 0
        system = result.system
        pt = system.page_table(0)
        # Last committed sweep stored unit index 1 everywhere.
        for region in wl.regions:
            for addr in region:
                assert system.memory.load(pt.translate(addr)) == 1
        shared = system.memory.load(pt.translate(wl.shared_word))
        assert shared == 4  # 2 threads x 2 sweeps

    def test_log_filter_suppresses_relogging(self):
        cfg = SystemConfig.small(num_cores=1, threads_per_core=1)
        wl = RepeatStores(num_threads=1, units_per_thread=2,
                          stores_per_burst=32)
        result = run_workload(cfg, wl)
        # One block written 32 times per burst: 1 log append, 31 filtered.
        assert result.counters["tm.log_appends"] == 2
        assert result.counters["tm.log_filtered"] == 2 * 31

    def test_zero_entry_filter_logs_every_store(self):
        cfg = SystemConfig.small(num_cores=1, threads_per_core=1)
        cfg = replace(cfg, tm=replace(cfg.tm, log_filter_entries=0))
        wl = RepeatStores(num_threads=1, units_per_thread=2,
                          stores_per_burst=16)
        result = run_workload(cfg, wl)
        assert result.counters["tm.log_appends"] == 32
        assert result.counters.get("tm.log_filtered", 0) == 0


class TestStickyAblation:
    def test_disabling_sticky_loses_isolation_on_overflow(self):
        """Demonstrates *why* sticky states exist: without them, an
        overflowed write set is no longer protected by conflict
        forwarding, so a concurrent reader can see uncommitted data."""
        from repro.harness.system import System

        cfg = SystemConfig.small(num_cores=2, threads_per_core=1)
        cfg = replace(cfg, tm=replace(cfg.tm, use_sticky_states=False))
        system = System(cfg, seed=1)
        threads = system.place_threads(2)
        a, b = threads[0].slot, threads[1].slot
        a.ctx.begin(now=0)

        def overflow():
            # Write enough same-set blocks to evict the first one.
            l1 = system.cfg.l1
            stride = l1.num_sets * l1.block_bytes
            for i in range(l1.associativity + 1):
                yield from a.core.store(a, 0x10000 + i * stride, 1 + i)

        proc = system.sim.spawn(overflow())
        system.sim.run()
        assert proc.done.done
        leaked = []

        def reader():
            value = yield from b.core.load(b, 0x10000)
            leaked.append(value)

        system.sim.spawn(reader())
        system.sim.run(until=system.sim.now + 5000)
        # Without sticky states the reader is NOT blocked: it observes the
        # uncommitted value — the isolation hole the mechanism closes.
        assert leaked == [1]


class TestDeterminism:
    def test_full_runs_reproducible(self):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=2)
        cfg = cfg.with_signature(SignatureKind.BIT_SELECT, bits=64)
        a = run_workload(cfg, SharedCounter(num_threads=8, units_per_thread=4),
                         seed=11)
        b = run_workload(cfg, SharedCounter(num_threads=8, units_per_thread=4),
                         seed=11)
        assert a.cycles == b.cycles
        assert a.counters == b.counters
