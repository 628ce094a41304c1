"""Tests for the stall/abort resolution policy and backoff."""

import random

import pytest

from repro.coherence.msgs import Blocker
from repro.common.config import SystemConfig, TMConfig
from repro.common.errors import SimulationError
from repro.common.stats import StatsRegistry
from repro.core.conflict import BackoffPolicy
from repro.core.policies import Decision, TimestampPolicy
from repro.core.txcontext import TxContext
from repro.cpu import core as core_module
from repro.harness.runner import run_workload
from repro.harness.system import System
from repro.signatures.perfect import PerfectSignature
from repro.signatures.rwpair import ReadWriteSignature
from repro.workloads import SharedCounter


def make_ctx(tid=0, begin=None):
    ctx = TxContext(
        thread_id=tid,
        signature=ReadWriteSignature(PerfectSignature(), PerfectSignature()),
        stats=StatsRegistry())
    if begin is not None:
        ctx.begin(now=begin)
    return ctx


def blocker(core=1, tid=9, ts=(50, 9), fp=False):
    return Blocker(core_id=core, thread_id=tid, timestamp=ts,
                   false_positive=fp)


class _NeverAsked:
    """A contention manager that fails the test if it is consulted."""

    name = "never-asked"

    def decide(self, ctx, blockers, retries):
        raise AssertionError("contention manager consulted")


def resolve_on_core(setup):
    """``Core._resolve_or_stall`` for one NACK by an older transaction.

    ``setup(ctx)`` puts the requester's context in the state under test.
    Returns the stall delays (the one the caller yields) and the system's
    stats.
    """
    system = System(SystemConfig.small(num_cores=1, threads_per_core=1),
                    seed=1)
    [thread] = system.place_threads(1)
    core = system.cores[0]
    core.policy = _NeverAsked()
    setup(thread.ctx)
    delays = [core._resolve_or_stall(thread.ctx, [blocker(ts=(50, 9))],
                                     retries=10_000, fp=False)]
    return delays, system.stats


class TestResolveNack:
    """How a NACKed requester is resolved.

    A transactional requester asks its contention manager, whose LogTM
    rule is ``TimestampPolicy.decide`` (its basic cases are in
    ``test_policies.py``). Any other requester stalls without asking:
    ``Core._resolve_or_stall`` checks ``ctx.transactional`` first.
    """

    #: The timestamp rule alone, without the starvation retry budget.
    policy = TimestampPolicy(TMConfig(max_retries_before_abort=0))

    def test_any_older_blocker_suffices(self):
        ctx = make_ctx(begin=100)
        ctx.possible_cycle = True
        blockers = [blocker(ts=(200, 9)), blocker(ts=(10, 2))]
        assert self.policy.decide(ctx, blockers, 0) is Decision.ABORT_SELF

    def test_nontx_blocker_is_never_older(self):
        ctx = make_ctx(begin=100)
        ctx.possible_cycle = True
        assert (self.policy.decide(ctx, [blocker(ts=None)], 0)
                is Decision.STALL)

    def test_non_transactional_always_stalls(self):
        delays, stats = resolve_on_core(lambda ctx: None)
        assert len(delays) == 1 and delays[0] > 0
        assert stats.value("mem.nontx_stalls") == 1
        assert stats.value("tm.stalls") == 0

    def test_escape_action_stalls(self):
        """Today's rule: an escaped access stalls, even when an older
        transaction NACKs it while the possible-cycle flag is set. Two
        escape actions NACKing each other therefore wait for good (the
        escape-action wait cycle in ROADMAP.md)."""
        def in_escape(ctx):
            ctx.begin(now=100)
            ctx.possible_cycle = True
            ctx.begin_escape()

        delays, stats = resolve_on_core(in_escape)
        assert len(delays) == 1 and delays[0] > 0
        assert stats.value("mem.nontx_stalls") == 1
        assert stats.value("tm.stalls") == 0


class _RecordingBackoff:
    """Stall delays 17, 18, ... in draw order, each one recorded."""

    def __init__(self):
        self.drawn = []

    def stall_delay(self):
        self.drawn.append(17 + len(self.drawn))
        return self.drawn[-1]


def first_stall(core, thread, vaddr):
    """Run a store of ``thread`` through ``Core._mem_op`` until it yields
    its first stall delay; returns that delay. Uncontended, the access
    path yields only latencies, so no engine is needed."""
    backoff = core.backoff = _RecordingBackoff()
    for step in core.store(thread.slot, vaddr, 1):
        if backoff.drawn:
            assert backoff.drawn == [step]
            return step
    raise AssertionError("the store completed without stalling")


class TestStallAccounting:
    def test_each_nack_stalls_once_and_counts_its_delay(self):
        """A NACK reaches the contention manager through one path, from
        the SMT-sibling check and from the directory alike: one
        ``tm.stalls`` and the drawn delay in ``tm.stall_cycles``. The
        cycle counter is registered at the first stall, so a stall-free
        run does not report it."""
        vaddr = 0x1000_0048

        # SMT sibling: the writer shares the requester's core.
        system = System(SystemConfig.small(num_cores=1, threads_per_core=2),
                        seed=1)
        requester, writer = system.place_threads(2)
        block = requester.translate(vaddr) & ~(system.cfg.block_bytes - 1)
        writer.ctx.begin(now=0)
        writer.ctx.signature.insert_write(block)
        requester.ctx.begin(now=10)
        delay = first_stall(system.cores[0], requester, vaddr)
        assert system.stats.value("tm.sibling_conflicts") == 1
        assert system.stats.value("tm.stalls") == 1
        assert system.stats.value("tm.stall_cycles") == delay

        # Directory: the writer owns the block on the other core.
        system = System(SystemConfig.small(num_cores=2, threads_per_core=1),
                        seed=1)
        requester, writer = system.place_threads(2)
        writer.ctx.begin(now=0)
        list(system.cores[1].store(writer.slot, vaddr, 5))
        requester.ctx.begin(now=10)
        delay = first_stall(system.cores[0], requester, vaddr)
        assert system.stats.value("coherence.nacks") == 1
        assert system.stats.value("tm.stalls") == 1
        assert system.stats.value("tm.stall_cycles") == delay

        result = run_workload(SystemConfig.small(num_cores=1),
                              SharedCounter(num_threads=1,
                                            units_per_thread=2),
                              seed=1)
        assert result.counters["tm.stalls"] == 0
        assert "tm.stall_cycles" not in result.counters


class TestLivelockDiagnostics:
    def test_exhausted_retries_name_the_blocking_sibling(self, monkeypatch):
        """A plain load NACKed by its SMT sibling's write set stalls
        without asking a contention manager; when the retry budget runs
        out, the error names the thread, both block addresses, the
        detection point and the blocker with its flags."""
        monkeypatch.setattr(core_module, "MAX_ACCESS_RETRIES", 3)
        system = System(SystemConfig.small(num_cores=1, threads_per_core=2),
                        seed=1)
        reader, writer = system.place_threads(2)
        vaddr = 0x1000_0048
        block = reader.translate(vaddr) & ~(system.cfg.block_bytes - 1)
        writer.ctx.begin(now=0)
        writer.ctx.signature.insert_write(block)
        core = system.cores[0]
        with pytest.raises(SimulationError) as err:
            list(core.load(reader.slot, vaddr))
        assert str(err.value) == (
            f"thread 0 livelocked on 0x10000048 (virtual block 0x10000040, "
            f"physical block {block:#x}) after 3 retries; last NACK at the "
            "sibling check, blocked by t1 (fp=False, via=targeted)")
        assert system.stats.value("tm.sibling_conflicts") == 3


class TestBlockerOrdering:
    def test_older_than(self):
        b = blocker(ts=(50, 9))
        assert b.older_than((100, 0))
        assert not b.older_than((10, 0))
        assert b.older_than(None)  # tx is older than any non-tx requester

    def test_tiebreak_by_thread_id(self):
        assert blocker(ts=(50, 1)).older_than((50, 2))
        assert not blocker(ts=(50, 2)).older_than((50, 1))


class TestBackoffPolicy:
    def test_stall_delay_in_range(self):
        policy = BackoffPolicy(TMConfig(backoff_base=20, backoff_jitter=12),
                               random.Random(0))
        for _ in range(100):
            d = policy.stall_delay()
            assert 20 <= d <= 32

    @pytest.mark.parametrize("jitter", [0, 1, 2, 3, 7, 12, 16, 100])
    def test_stall_draw_is_randrange(self, jitter):
        """The inline draw takes exactly randrange's bits: every later
        draw from the shared RNG is unchanged, so no digest moves."""
        for seed in range(50):
            ours, reference = random.Random(seed), random.Random(seed)
            policy = BackoffPolicy(
                TMConfig(backoff_base=20, backoff_jitter=jitter), ours)
            for _ in range(40):
                assert policy.stall_delay() == \
                    20 + reference.randrange(jitter + 1)
            assert ours.getstate() == reference.getstate()

    def test_restart_delay_grows_with_attempts(self):
        policy = BackoffPolicy(TMConfig(backoff_base=20), random.Random(0))
        early = [policy.restart_delay(1) for _ in range(200)]
        late = [policy.restart_delay(12) for _ in range(200)]
        assert max(early) < max(late)
        assert sum(late) / len(late) > sum(early) / len(early) * 10

    def test_restart_delay_caps(self):
        policy = BackoffPolicy(TMConfig(backoff_base=20), random.Random(0))
        cap = 20 + (20 << 12)
        for _ in range(100):
            assert policy.restart_delay(99) <= cap
