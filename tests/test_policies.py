"""Tests for contention-manager policies (unit + end-to-end)."""

from dataclasses import replace

import pytest

from repro.coherence.msgs import Blocker
from repro.common.config import SystemConfig, TMConfig
from repro.common.errors import ConfigError
from repro.common.stats import StatsRegistry
from repro.core.policies import (AggressivePolicy, Decision, PolitePolicy,
                                 TimestampPolicy, make_policy)
from repro.core.txcontext import TxContext
from repro.harness.runner import run_workload
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


def blocker(ts=(50, 9)):
    return Blocker(core_id=1, thread_id=9, timestamp=ts,
                   false_positive=False)


class TestFactory:
    def test_builds_each_policy(self):
        for name, cls in (("timestamp", TimestampPolicy),
                          ("polite", PolitePolicy),
                          ("aggressive", AggressivePolicy)):
            policy = make_policy(TMConfig(contention_policy=name))
            assert isinstance(policy, cls)
            assert policy.name == name

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_policy(TMConfig(contention_policy="nope"))

    def test_default_is_timestamp(self):
        assert make_policy(TMConfig()).name == "timestamp"


class TestTimestampPolicy:
    def test_matches_logtm_rules(self):
        policy = TimestampPolicy(TMConfig(max_retries_before_abort=0))
        ctx = make_ctx(begin=100)
        assert policy.decide(ctx, [blocker(ts=(50, 9))], 0) is Decision.STALL
        ctx.possible_cycle = True
        assert (policy.decide(ctx, [blocker(ts=(50, 9))], 0)
                is Decision.ABORT_SELF)
        assert (policy.decide(ctx, [blocker(ts=(200, 9))], 0)
                is Decision.STALL)

    def test_retry_budget(self):
        policy = TimestampPolicy(TMConfig(max_retries_before_abort=10))
        ctx = make_ctx(begin=100)
        assert policy.decide(ctx, [blocker()], 9) is Decision.STALL
        assert policy.decide(ctx, [blocker()], 10) is Decision.ABORT_SELF


class TestPolitePolicy:
    def test_always_stalls_within_budget(self):
        policy = PolitePolicy(TMConfig(max_retries_before_abort=5))
        ctx = make_ctx(begin=100)
        ctx.possible_cycle = True  # polite ignores cycle reasoning
        assert policy.decide(ctx, [blocker(ts=(1, 1))], 4) is Decision.STALL
        assert (policy.decide(ctx, [blocker(ts=(1, 1))], 5)
                is Decision.ABORT_SELF)

    def test_never_aborts_without_budget(self):
        policy = PolitePolicy(TMConfig(max_retries_before_abort=0))
        ctx = make_ctx(begin=100)
        assert policy.decide(ctx, [blocker()], 10_000) is Decision.STALL


class TestAggressivePolicy:
    def test_dooms_blockers_first(self):
        policy = AggressivePolicy(TMConfig())
        ctx = make_ctx(begin=100)
        assert policy.decide(ctx, [blocker()], 0) is Decision.ABORT_OTHERS
        assert policy.decide(ctx, [blocker()], 1) is Decision.STALL

    def test_gives_up_past_budget(self):
        policy = AggressivePolicy(TMConfig(max_retries_before_abort=3))
        ctx = make_ctx(begin=100)
        assert policy.decide(ctx, [blocker()], 3) is Decision.ABORT_SELF


class TestEndToEnd:
    """All three policies must preserve atomicity under contention."""

    @pytest.mark.parametrize("policy", ["timestamp", "polite", "aggressive"])
    def test_counter_exact(self, policy):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=2)
        cfg = replace(cfg, tm=replace(cfg.tm, contention_policy=policy))
        wl = SharedCounter(num_threads=8, units_per_thread=5,
                           compute_between=40)
        result = run_workload(cfg, wl, keep_system=True)
        value = result.system.memory.load(
            result.system.page_table(0).translate(wl.counter))
        assert value == 40
        assert result.commits == 40

    def test_aggressive_generates_remote_aborts(self):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=1)
        cfg = replace(cfg, tm=replace(cfg.tm,
                                      contention_policy="aggressive"))
        wl = SharedCounter(num_threads=4, units_per_thread=8,
                           compute_between=10, inner_compute=80)
        wl.start_skew = 0
        result = run_workload(cfg, wl)
        assert result.counters.get("tm.remote_abort_requests", 0) > 0
        assert result.aborts > 0

    def test_polite_never_uses_cycle_aborts(self):
        from dataclasses import replace as rep
        cfg = SystemConfig.small(num_cores=4, threads_per_core=1)
        cfg = rep(cfg, tm=rep(cfg.tm, contention_policy="polite",
                              max_retries_before_abort=50))
        wl = SharedCounter(num_threads=4, units_per_thread=6,
                           compute_between=20)
        result = run_workload(cfg, wl)
        # Every abort under polite comes from the retry budget.
        assert result.aborts == result.counters.get(
            "tm.starvation_aborts", 0)
