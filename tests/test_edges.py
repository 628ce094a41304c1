"""Edge-case coverage across modules (gaps found by review)."""

from dataclasses import replace

import pytest

from repro.common.config import (LockImpl, SignatureKind, SyncMode,
                                 SystemConfig)
from repro.common.errors import ConfigError
from repro.harness.runner import run_workload
from repro.harness.system import System
from repro.sim.engine import Simulator
from repro.workloads import SharedCounter


class TestEngineEdges:
    def test_schedule_inside_action(self):
        sim = Simulator()
        order = []
        sim.schedule(5, lambda: (order.append("a"),
                                 sim.schedule(0, lambda: order.append("b"))))
        sim.run()
        assert order == ["a", "b"]


class TestConfigEdges:
    def test_lazy_validation(self):
        from repro.common.config import TMConfig
        with pytest.raises(ConfigError):
            TMConfig(version_management="sideways")
        assert TMConfig(version_management="lazy").lazy
        assert not TMConfig().lazy

    def test_multichip_validation(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_chips=0)
        cfg = SystemConfig.multichip(num_chips=3, cores_per_chip=2)
        assert cfg.total_cores == 6
        assert cfg.total_threads == 6

    def test_hashed_describe(self):
        cfg = SystemConfig.default().with_signature(SignatureKind.HASHED,
                                                    bits=512)
        assert cfg.tm.signature.describe() == "H4_512"


class TestLazySmt:
    def test_lazy_with_smt_siblings(self):
        """Sibling checks are disabled in lazy mode; correctness must come
        entirely from commit-time squashes — including between siblings."""
        cfg = SystemConfig.small(num_cores=2, threads_per_core=4)
        cfg = replace(cfg, tm=replace(cfg.tm, version_management="lazy"))
        wl = SharedCounter(num_threads=8, units_per_thread=5,
                           compute_between=15)
        wl.start_skew = 0
        result = run_workload(cfg, wl, keep_system=True)
        value = result.system.memory.load(
            result.system.page_table(0).translate(wl.counter))
        assert value == 40
        assert result.counters.get("tm.sibling_conflicts", 0) == 0


class TestSpinLockModeStillWorks:
    def test_spin_baseline_end_to_end(self):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=1)
        cfg = replace(cfg.with_sync(SyncMode.LOCKS),
                      lock_impl=LockImpl.SPIN)
        wl = SharedCounter(num_threads=4, units_per_thread=5)
        result = run_workload(cfg, wl, keep_system=True)
        value = result.system.memory.load(
            result.system.page_table(0).translate(wl.counter))
        assert value == 20
        assert result.counters.get("locks.acquires", 0) == 20


class TestNetworkAccountingMultichip:
    def test_each_chip_network_counts(self):
        from repro.workloads import BankTransfer
        cfg = SystemConfig.multichip(num_chips=2, cores_per_chip=2)
        wl = BankTransfer(num_threads=4, units_per_thread=5)
        result = run_workload(cfg, wl)
        # Messages were recorded (shared stats across per-chip networks).
        assert result.counters.get("network.messages", 0) > 0
        assert result.counters.get("coherence.interchip_requests", 0) >= 0


class TestCliExtra:
    def test_victimization_quick(self, capsys):
        from repro.cli import main
        assert main(["paper", "--only", "victimization"]) == 0
        out = capsys.readouterr().out
        assert "Result 4" in out
        assert "UNCHECKED victimization" in out

    def test_fig3(self, capsys):
        import json
        from repro.cli import main
        assert main(["--json", "paper", "--only", "fig3"]) == 0
        fig3 = json.loads(capsys.readouterr().out)["fig3"]
        assert fig3["failures"] == []
        assert set(fig3["rows"]) == {"points", "attribution"}
        assert fig3["rows"]["points"][0]["kind"] == "BS"
