"""Tests for the workload runner and RunResult accounting."""

import gc
import weakref

import pytest

import repro.harness.runner as runner_mod
from repro.common.config import SignatureKind, SyncMode, SystemConfig
from repro.common.errors import ConfigError
from repro.harness.runner import RunResult, run_workload
from repro.workloads import BankTransfer, SharedCounter


def small_cfg():
    return SystemConfig.small(num_cores=4)


class TestRunWorkload:
    def test_completes_all_units(self):
        result = run_workload(small_cfg(),
                              SharedCounter(num_threads=4, units_per_thread=3))
        assert result.units == 12
        assert result.commits == 12
        assert result.cycles > 0

    def test_counter_value_correct_in_both_modes(self):
        for sync in (SyncMode.TRANSACTIONS, SyncMode.LOCKS):
            wl = SharedCounter(num_threads=4, units_per_thread=3)
            result = run_workload(small_cfg().with_sync(sync), wl,
                                  keep_system=True)
            mem = result.system.memory
            pt = result.system.page_table(0)
            assert mem.load(pt.translate(wl.counter)) == 12

    def test_deterministic_given_seed(self):
        a = run_workload(small_cfg(),
                         SharedCounter(num_threads=4, units_per_thread=3),
                         seed=5)
        b = run_workload(small_cfg(),
                         SharedCounter(num_threads=4, units_per_thread=3),
                         seed=5)
        assert a.cycles == b.cycles
        assert a.counters == b.counters

    def test_different_seeds_perturb(self):
        a = run_workload(small_cfg(),
                         SharedCounter(num_threads=4, units_per_thread=3),
                         seed=1)
        b = run_workload(small_cfg(),
                         SharedCounter(num_threads=4, units_per_thread=3),
                         seed=2)
        assert a.cycles != b.cycles

    def test_too_many_threads_rejected(self):
        with pytest.raises(ConfigError):
            run_workload(small_cfg(),
                         SharedCounter(num_threads=64, units_per_thread=1))

    def test_zero_skew_supported(self):
        wl = SharedCounter(num_threads=2, units_per_thread=2)
        wl.start_skew = 0
        result = run_workload(small_cfg(), wl)
        assert result.units == 4

    def test_final_state_is_recorded_as_counters(self):
        wl = BankTransfer(num_threads=4, units_per_thread=3, num_accounts=4)
        result = run_workload(small_cfg(), wl, keep_system=True)
        assert result.counters["final.balance"] == wl.total_balance(
            result.system, result.system.page_table(0)) == 0
        plain = run_workload(small_cfg(),
                             SharedCounter(num_threads=2, units_per_thread=1))
        assert not [name for name in plain.counters
                    if name.startswith("final.")]

    def test_system_dropped_unless_requested(self):
        result = run_workload(small_cfg(),
                              SharedCounter(num_threads=2, units_per_thread=1))
        assert result.system is None

    def test_finished_machine_is_freed_when_the_run_returns(self,
                                                            monkeypatch):
        """The machine is cyclic garbage; the run frees it itself, so a
        sweep's finished machines never pile up awaiting a full
        collection."""
        built = []

        class Recorded(runner_mod.System):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(weakref.ref(self))

        monkeypatch.setattr(runner_mod, "System", Recorded)
        assert gc.isenabled()
        run_workload(small_cfg(),
                     SharedCounter(num_threads=2, units_per_thread=1))
        assert len(built) == 1
        assert built[0]() is None
        assert gc.isenabled()

    def test_config_label_defaults_to_signature(self):
        cfg = small_cfg().with_signature(SignatureKind.BIT_SELECT, bits=64)
        result = run_workload(cfg,
                              SharedCounter(num_threads=2, units_per_thread=1))
        assert result.config_label == "BS_64"

    def test_config_label_defaults_to_locks_for_lock_baseline(self):
        # The lock baseline must not inherit a signature label: its
        # signature config is irrelevant to what actually ran.
        cfg = small_cfg().with_sync(SyncMode.LOCKS)
        result = run_workload(cfg,
                              SharedCounter(num_threads=2, units_per_thread=1))
        assert result.config_label == "locks"


class TestRunResultDerived:
    def test_false_positive_pct(self):
        r = RunResult(workload="w", config_label="c", cycles=1, units=1,
                      counters={"tm.conflicts_total": 10,
                                "tm.conflicts_false_positive": 4})
        assert r.false_positive_pct == pytest.approx(40.0)

    def test_false_positive_pct_no_conflicts(self):
        r = RunResult(workload="w", config_label="c", cycles=1, units=1,
                      counters={})
        assert r.false_positive_pct == 0.0

    def test_victimizations_sums_l1_l2(self):
        r = RunResult(workload="w", config_label="c", cycles=1, units=1,
                      counters={"victimization.l1_tx": 2,
                                "victimization.l2_tx": 3})
        assert r.victimizations == 5

    def test_dict_round_trip(self):
        result = run_workload(small_cfg(),
                              SharedCounter(num_threads=2,
                                            units_per_thread=2))
        back = RunResult.from_dict(result.to_dict())
        assert back == result
        assert back.to_dict() == result.to_dict()

    def test_to_dict_never_carries_the_system(self):
        result = run_workload(small_cfg(),
                              SharedCounter(num_threads=2,
                                            units_per_thread=1),
                              keep_system=True)
        assert result.system is not None
        assert "system" not in result.to_dict()

