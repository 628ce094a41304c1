"""Tests for the Core access path: hits, misses, upgrades, signatures,
logging, sibling conflicts, summary traps."""

import pytest

from repro.cache.block import MESI
from repro.common.config import SignatureKind, SystemConfig
from repro.common.errors import AbortTransaction
from repro.harness.runner import run_workload
from repro.harness.system import System
from repro.signatures.rwpair import ReadWriteSignature
from repro.workloads import SharedCounter


def build(num_cores=2, threads_per_core=2, signature=SignatureKind.PERFECT):
    cfg = SystemConfig.small(num_cores=num_cores,
                             threads_per_core=threads_per_core)
    cfg = cfg.with_signature(signature, bits=256)
    system = System(cfg, seed=1)
    threads = system.place_threads(num_cores * threads_per_core)
    return system, threads


def run(system, gen):
    proc = system.sim.spawn(gen)
    system.sim.run()
    assert proc.done.done, "process blocked"
    return proc.done.value


class TestPlainAccesses:
    def test_load_default_zero_and_l1_hit_after_miss(self):
        system, threads = build()
        slot = threads[0].slot
        core = slot.core
        assert run(system, core.load(slot, 0x100)) == 0
        t0 = system.sim.now
        run(system, core.load(slot, 0x100))
        assert system.sim.now - t0 == system.cfg.l1.latency  # pure L1 hit

    def test_store_then_load(self):
        system, threads = build()
        slot = threads[0].slot
        run(system, slot.core.store(slot, 0x200, 42))
        assert run(system, slot.core.load(slot, 0x200)) == 42

    def test_fetch_add_returns_old(self):
        system, threads = build()
        slot = threads[0].slot
        run(system, slot.core.store(slot, 0x300, 5))
        assert run(system, slot.core.fetch_add(slot, 0x300, 3)) == 5
        assert run(system, slot.core.load(slot, 0x300)) == 8

    def test_swap(self):
        system, threads = build()
        slot = threads[0].slot
        assert run(system, slot.core.swap(slot, 0x400, 1)) == 0
        assert run(system, slot.core.swap(slot, 0x400, 0)) == 1

    def test_cross_core_invalidation(self):
        system, threads = build()
        a, b = threads[0].slot, threads[1].slot
        assert a.core is not b.core
        run(system, a.core.store(a, 0x500, 7))
        assert run(system, b.core.load(b, 0x500)) == 7
        # After B's read, A's copy was downgraded to S: a write by B
        # invalidates A.
        run(system, b.core.store(b, 0x500, 8))
        block = a.core.l1.peek(
            a.core.amap.block_of(threads[0].translate(0x500)))
        assert block is None

    def test_silent_e_to_m_upgrade(self):
        system, threads = build()
        slot = threads[0].slot
        run(system, slot.core.load(slot, 0x600))  # E
        paddr_block = slot.core.amap.block_of(threads[0].translate(0x600))
        assert slot.core.l1.peek(paddr_block).state is MESI.EXCLUSIVE
        t0 = system.sim.now
        run(system, slot.core.store(slot, 0x600, 1))  # silent upgrade
        assert slot.core.l1.peek(paddr_block).state is MESI.MODIFIED
        assert system.sim.now - t0 == system.cfg.l1.latency


class TestTransactionalBookkeeping:
    def test_loads_and_stores_fill_signatures(self):
        system, threads = build()
        slot = threads[0].slot
        ctx = slot.ctx
        ctx.begin(now=0)
        run(system, slot.core.load(slot, 0x100))
        run(system, slot.core.store(slot, 0x180, 1))
        rblock = slot.core.amap.block_of(threads[0].translate(0x100))
        wblock = slot.core.amap.block_of(threads[0].translate(0x180))
        assert ctx.signature.read.contains(rblock)
        assert ctx.signature.write.contains(wblock)

    def test_store_logs_old_value_once_per_block(self):
        system, threads = build()
        slot = threads[0].slot
        ctx = slot.ctx
        run(system, slot.core.store(slot, 0x100, 5))  # pre-tx value
        ctx.begin(now=0)
        run(system, slot.core.store(slot, 0x100, 6))
        run(system, slot.core.store(slot, 0x108, 7))  # same block
        assert system.stats.value("tm.log_appends") == 1
        assert system.stats.value("tm.log_filtered") == 1
        record = ctx.log.current.records[0]
        assert record.vblock == 0x100
        assert record.old_words[0] == 5     # the word at 0x100

    @pytest.mark.parametrize("is_write", [False, True])
    def test_l1_hit_inserts_into_signature_once(self, monkeypatch,
                                                is_write):
        """A transactional L1 hit inserts its block when it issues, and
        the bookkeeping after the access does not insert it again."""
        system, threads = build()
        slot = threads[0].slot
        ctx = slot.ctx
        run(system, slot.core.store(slot, 0x100, 5))  # resident, MODIFIED
        inserts = []
        name = "insert_write" if is_write else "insert_read"
        original = getattr(ReadWriteSignature, name)

        def counting(pair, block):
            inserts.append(block)
            original(pair, block)

        monkeypatch.setattr(ReadWriteSignature, name, counting)
        ctx.begin(now=0)
        access = (slot.core.store(slot, 0x100, 6) if is_write
                  else slot.core.load(slot, 0x100))
        run(system, access)
        block = slot.core.amap.block_of(threads[0].translate(0x100))
        assert inserts == [block]

    def test_abort_restores_memory(self):
        system, threads = build()
        slot = threads[0].slot
        ctx = slot.ctx
        run(system, slot.core.store(slot, 0x100, 5))
        ctx.begin(now=0)
        run(system, slot.core.store(slot, 0x100, 99))
        assert run(system, slot.core.load(slot, 0x100)) == 99  # in place
        ctx.abort_all(system.memory, threads[0].translate)
        assert run(system, slot.core.load(slot, 0x100)) == 5

    def test_escape_action_bypasses_signature_and_log(self):
        system, threads = build()
        slot = threads[0].slot
        ctx = slot.ctx
        ctx.begin(now=0)
        ctx.begin_escape()
        run(system, slot.core.store(slot, 0x700, 3))
        assert ctx.signature.write.is_empty
        assert system.stats.value("tm.log_appends") == 0
        ctx.end_escape()


class TestRemoteConflicts:
    def test_remote_write_to_tx_read_set_stalls(self):
        system, threads = build()
        a, b = threads[0].slot, threads[1].slot
        a.ctx.begin(now=0)
        run(system, a.core.load(a, 0x100))
        # B (non-transactional) writes the same block: NACKed, stalls until
        # A commits. Drive B and commit A mid-flight.
        done = []

        def writer():
            yield from b.core.store(b, 0x100, 1)
            done.append(system.sim.now)

        system.sim.spawn(writer())
        system.sim.run(until=2000)
        assert not done, "writer must stall while A holds read isolation"
        assert system.stats.value("mem.nontx_stalls") > 0
        a.ctx.commit()
        system.sim.run()
        assert done, "writer proceeds after commit releases isolation"

    def test_remote_read_of_tx_write_set_stalls(self):
        system, threads = build()
        a, b = threads[0].slot, threads[1].slot
        a.ctx.begin(now=0)
        run(system, a.core.store(a, 0x100, 77))
        done = []

        def reader():
            value = yield from b.core.load(b, 0x100)
            done.append(value)

        system.sim.spawn(reader())
        system.sim.run(until=2000)
        assert not done, "uncommitted data must stay isolated"
        a.ctx.commit()
        system.sim.run()
        assert done == [77]

    def test_deadlock_cycle_aborts_younger(self):
        # Pure LogTM policy: disable the contention-manager fallback so the
        # only abort source is timestamp cycle detection.
        from dataclasses import replace
        cfg = SystemConfig.small(num_cores=2, threads_per_core=2)
        cfg = replace(cfg, tm=replace(cfg.tm, max_retries_before_abort=0))
        system = System(cfg, seed=1)
        threads = system.place_threads(4)
        a, b = threads[0].slot, threads[1].slot
        a.ctx.begin(now=0)    # older
        b.ctx.begin(now=10)   # younger
        run(system, a.core.store(a, 0x100, 1))
        run(system, b.core.store(b, 0x200, 2))
        outcomes = {}

        def cross(slot, addr, key):
            try:
                yield from slot.core.store(slot, addr, 9)
                outcomes[key] = "done"
            except AbortTransaction:
                outcomes[key] = "abort"

        system.sim.spawn(cross(a, 0x200, "a"))
        system.sim.spawn(cross(b, 0x100, "b"))
        system.sim.run(until=500_000)
        assert outcomes.get("b") == "abort", "younger must abort"
        # After B aborts (handler would clear signature); emulate it:
        b.ctx.abort_all(system.memory, threads[1].translate)
        system.sim.run()
        assert outcomes.get("a") == "done", "older wins through"


class TestSMTSiblingConflicts:
    def test_sibling_write_read_conflict_detected_locally(self):
        system, threads = build(num_cores=1, threads_per_core=2)
        a, b = threads[0].slot, threads[1].slot
        assert a.core is b.core
        a.ctx.begin(now=0)
        run(system, a.core.store(a, 0x100, 1))
        b.ctx.begin(now=10)
        done = []

        def sibling_read():
            try:
                yield from b.core.load(b, 0x100)
                done.append("read")
            except AbortTransaction:
                done.append("abort")

        system.sim.spawn(sibling_read())
        system.sim.run(until=2000)
        assert not done, "sibling must stall on local conflict"
        assert system.stats.value("tm.sibling_conflicts") > 0
        a.ctx.commit()
        system.sim.run()
        assert done == ["read"]

    def test_sibling_nonconflicting_blocks_ok(self):
        system, threads = build(num_cores=1, threads_per_core=2)
        a, b = threads[0].slot, threads[1].slot
        a.ctx.begin(now=0)
        b.ctx.begin(now=1)
        run(system, a.core.store(a, 0x100, 1))
        run(system, b.core.store(b, 0x200, 2))
        assert system.stats.value("tm.sibling_conflicts") == 0


def install_summary(system, slot):
    """Install the slot's summary register as the OS does (empty: no
    transaction of its process is descheduled) and return it."""
    assert slot.summary is None
    system.manager._install_summary(slot, slot.thread.asid,
                                    exclude_tid=slot.thread.tid)
    return slot.summary


class TestSummarySignature:
    def test_summary_conflict_traps_transactional_access(self):
        system, threads = build()
        slot = threads[0].slot
        block = slot.core.amap.block_of(threads[0].translate(0x900))
        install_summary(system, slot).write.insert(block)
        slot.ctx.begin(now=0)

        def access():
            try:
                yield from slot.core.load(slot, 0x900)
                return "read"
            except AbortTransaction:
                return "abort"

        assert run(system, access()) == "abort"
        assert system.stats.value("tm.summary_conflicts") == 1

    def test_summary_conflict_stalls_nontx_access(self):
        system, threads = build()
        slot = threads[0].slot
        block = slot.core.amap.block_of(threads[0].translate(0x900))
        install_summary(system, slot).write.insert(block)
        done = []

        def access():
            value = yield from slot.core.load(slot, 0x900)
            done.append(value)

        system.sim.spawn(access())
        system.sim.run(until=500)
        assert not done
        slot.summary.clear()
        system.sim.run()
        assert done == [0]

    def test_checked_even_on_l1_hits(self):
        system, threads = build()
        slot = threads[0].slot
        run(system, slot.core.load(slot, 0x900))  # now resident in L1
        block = slot.core.amap.block_of(threads[0].translate(0x900))
        install_summary(system, slot).write.insert(block)
        slot.ctx.begin(now=0)

        def access():
            try:
                yield from slot.core.load(slot, 0x900)
                return "read"
            except AbortTransaction:
                return "abort"

        assert run(system, access()) == "abort"

    def test_summary_installed_during_a_stall_is_seen_at_the_next_retry(self):
        """The register is read at every retry of an access, not once per
        access: a stalled access meets the first summary the OS installs
        on its slot while it waits."""
        system, threads = build(num_cores=2, threads_per_core=1)
        holder, reader = threads[0].slot, threads[1].slot
        holder.ctx.begin(now=0)
        run(system, holder.core.store(holder, 0x900, 7))
        done = []

        def access():
            done.append((yield from reader.core.load(reader, 0x900)))

        system.sim.spawn(access())
        system.sim.run(until=system.sim.now + 500)
        assert not done  # NACKed by the holder's write set
        assert system.stats.value("mem.nontx_stalls") > 0
        assert system.stats.value("tm.summary_conflicts") == 0
        block = reader.core.amap.block_of(threads[1].translate(0x900))
        install_summary(system, reader).write.insert(block)
        system.sim.run(until=system.sim.now + 500)
        assert not done
        assert system.stats.value("tm.summary_conflicts") > 0
        holder.ctx.commit()
        reader.summary.clear()
        system.sim.run()
        assert done == [7]

    def test_threads_that_never_leave_their_contexts_build_no_register(self):
        cfg = SystemConfig.small(num_cores=2, threads_per_core=2)
        result = run_workload(cfg, SharedCounter(num_threads=4,
                                                 units_per_thread=3),
                              keep_system=True)
        assert result.commits == 12
        assert result.counters.get("os.summary_installs", 0) == 0
        slots = result.system.all_slots()
        assert len(slots) == 4
        assert all(slot.summary is None for slot in slots)


class TestVictimizationPath:
    def test_tx_eviction_goes_sticky(self):
        system, threads = build()
        slot = threads[0].slot
        cfg = system.cfg.l1
        ctx = slot.ctx
        ctx.begin(now=0)
        # Write enough same-set blocks to overflow one L1 set.
        stride = cfg.num_sets * cfg.block_bytes
        for i in range(cfg.associativity + 1):
            run(system, slot.core.store(slot, 0x10000 + i * stride, i))
        assert system.stats.value("victimization.l1_tx") >= 1
        assert system.stats.value("coherence.sticky_created") >= 1
        # Isolation survives the eviction: another core's read of the
        # evicted block must still be NACKed via the sticky forward.
        b = threads[1].slot
        done = []

        def reader():
            value = yield from b.core.load(b, 0x10000)
            done.append(value)

        system.sim.spawn(reader())
        system.sim.run(until=2000)
        assert not done, "sticky state must preserve isolation"
        ctx.commit()
        system.sim.run()
        assert done == [0]
