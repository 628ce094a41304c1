"""Property-based protocol fuzzing.

Hypothesis drives random batches of transactional/non-transactional
accesses across cores (including evictions forced by tiny caches), and the
system-wide invariant checker audits the machine after every batch. This is
the style of test that found the check-vs-grant atomicity race — made
systematic so the whole protocol state space gets hammered.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.coherence.invariants import check_all
from repro.common.config import CoherenceStyle, SignatureKind, SystemConfig
from repro.common.errors import AbortTransaction
from repro.common.rng import make_rng
from repro.harness.runner import run_workload
from repro.harness.system import System
from repro.verify import VerificationSuite
from repro.workloads import BankTransfer

# A deliberately tiny machine: 2-way x 2-core with 4KB L1s, so random
# traffic exercises evictions and sticky states constantly.
op_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),        # thread index
        st.sampled_from(["load", "store", "begin", "commit", "abort"]),
        st.integers(min_value=0, max_value=40),       # address slot
    ),
    min_size=5, max_size=60)


def build_system(signature=SignatureKind.PERFECT,
                 coherence=CoherenceStyle.DIRECTORY):
    from dataclasses import replace
    cfg = SystemConfig.small(num_cores=2, threads_per_core=2)
    cfg = replace(cfg.with_signature(signature, bits=64),
                  coherence=coherence)
    system = System(cfg, seed=1)
    threads = system.place_threads(4)
    return system, threads


def apply_ops(system, threads, ops):
    """Spawn one process per thread executing its slice of the op batch.

    Every batch also runs under the dynamic :class:`VerificationSuite`
    (signature/undo oracles, shadow-memory isolation, serializability) —
    the fuzzer audits data-level correctness, not just protocol structure.
    """
    bus, _ = system.attach_bus(with_log=False)
    suite = VerificationSuite(system).attach(bus)
    per_thread = {t.tid: [] for t in threads}
    for tidx, kind, addr_slot in ops:
        per_thread[threads[tidx].tid].append((kind, addr_slot))

    def runner(thread, my_ops):
        slot = thread.slot
        ctx = thread.ctx
        for kind, addr_slot in my_ops:
            vaddr = 0x1000_0000 + addr_slot * 64
            try:
                if kind == "load":
                    yield from slot.core.load(slot, vaddr)
                elif kind == "store":
                    yield from slot.core.store(slot, vaddr, addr_slot)
                elif kind == "begin":
                    if ctx.depth < 4:
                        yield from system.manager.begin(slot)
                elif kind == "commit":
                    if ctx.in_tx:
                        yield from system.manager.commit(slot)
                elif kind == "abort":
                    if ctx.in_tx:
                        yield from system.manager.abort(slot)
            except AbortTransaction:
                yield from system.manager.abort(slot)
        # Leave no transaction open so the bookkeeping audit applies.
        while ctx.in_tx:
            try:
                yield from system.manager.commit(slot)
            except AbortTransaction:
                yield from system.manager.abort(slot)

    procs = [system.sim.spawn(runner(t, per_thread[t.tid]),
                              name=f"fuzz{t.tid}")
             for t in threads]
    system.sim.run_until_done(procs, limit=200_000_000)
    report = suite.finish()
    assert report.ok, report.summary()


class TestProtocolFuzz:
    @given(ops=op_strategy)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_directory_invariants_hold(self, ops):
        system, threads = build_system()
        apply_ops(system, threads, ops)
        check_all(system)

    @given(ops=op_strategy)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_invariants_with_aliasing_signatures(self, ops):
        system, threads = build_system(signature=SignatureKind.BIT_SELECT)
        apply_ops(system, threads, ops)
        check_all(system)

    @given(ops=op_strategy)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_snooping_invariants_hold(self, ops):
        system, threads = build_system(coherence=CoherenceStyle.SNOOPING)
        apply_ops(system, threads, ops)
        check_all(system)

    @given(ops=op_strategy)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_multichip_invariants_hold(self, ops):
        system_cfg = SystemConfig.multichip(num_chips=2, cores_per_chip=2)
        system = System(system_cfg, seed=1)
        threads = system.place_threads(4)
        apply_ops(system, threads, ops)
        check_all(system)

    def test_values_survive_fuzzing(self):
        """Functional check on top of the structural audits: committed
        stores are the ones visible afterwards."""
        system, threads = build_system()
        slot = threads[0].slot

        def txn():
            yield from system.manager.begin(slot)
            yield from slot.core.store(slot, 0x1000_0000, 7)
            yield from system.manager.commit(slot)
            yield from system.manager.begin(slot)
            yield from slot.core.store(slot, 0x1000_0000, 9)
            yield from system.manager.abort(slot)

        proc = system.sim.spawn(txn())
        system.sim.run()
        assert proc.done.done
        assert system.memory.load(threads[0].translate(0x1000_0000)) == 7
        check_all(system)


class TestInvariantCheckerOnRealRuns:
    @pytest.mark.parametrize("kind", [SignatureKind.PERFECT,
                                      SignatureKind.BIT_SELECT])
    def test_after_bank_workload(self, kind):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=2)
        cfg = cfg.with_signature(kind, bits=64)
        wl = BankTransfer(num_threads=8, units_per_thread=6)
        result = run_workload(cfg, wl, keep_system=True)
        summary = check_all(result.system)
        assert len(summary) == 4

    def test_detects_planted_violation(self):
        """The checker must actually catch corruption, not rubber-stamp."""
        from repro.cache.block import MESI
        from repro.coherence.invariants import check_cache_invariants
        from repro.common.errors import InvariantViolation
        system, threads = build_system()
        # Plant two exclusive copies of one block.
        system.cores[0].l1.insert(0x40, MESI.MODIFIED)
        system.cores[1].l1.insert(0x40, MESI.MODIFIED)
        with pytest.raises(InvariantViolation):
            check_cache_invariants(system)


class TestLazyFuzz:
    """Random programs under lazy (Bulk-style) version management."""

    @given(ops=op_strategy)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_lazy_invariants_hold(self, ops):
        from dataclasses import replace
        cfg = SystemConfig.small(num_cores=2, threads_per_core=2)
        cfg = replace(cfg.with_signature(SignatureKind.BIT_SELECT, bits=64),
                      tm=replace(cfg.tm, version_management="lazy"))
        system = System(cfg, seed=1)
        threads = system.place_threads(4)
        apply_ops(system, threads, ops)
        check_all(system)


# Eviction-biased address strategy: half the slots collide in one L1 set
# (stride = num_sets * 64 bytes on the small machine), so random programs
# constantly evict transactional blocks and exercise sticky states.
evicting_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.sampled_from(["load", "store", "begin", "commit", "abort"]),
        st.integers(min_value=0, max_value=15),   # same-set slot index
        st.booleans(),                            # same-set vs spread
    ),
    min_size=10, max_size=80)


class TestEvictionFuzz:
    """Random programs biased to overflow L1 sets (sticky-state pressure)."""

    @staticmethod
    def _to_plain_ops(ops, l1_set_stride_blocks):
        plain = []
        for tidx, kind, slot_index, same_set in ops:
            if same_set:
                addr_slot = slot_index * l1_set_stride_blocks
            else:
                addr_slot = slot_index
            plain.append((tidx, kind, addr_slot))
        return plain

    @given(ops=evicting_ops)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sticky_states_under_eviction_pressure(self, ops):
        system, threads = build_system()
        stride_blocks = system.cfg.l1.num_sets  # same-set stride in blocks
        apply_ops(system, threads,
                  self._to_plain_ops(ops, stride_blocks))
        check_all(system)

    @given(ops=evicting_ops)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_eviction_pressure_with_aliasing(self, ops):
        system, threads = build_system(signature=SignatureKind.BIT_SELECT)
        stride_blocks = system.cfg.l1.num_sets
        apply_ops(system, threads,
                  self._to_plain_ops(ops, stride_blocks))
        check_all(system)
