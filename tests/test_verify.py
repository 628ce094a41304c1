"""Tests for the dynamic verification suite (:mod:`repro.verify`).

Three claims, each tested directly:

1. *Soundness on correct runs*: every bundled workload, run under the
   checkers, produces zero violations — across signature designs and
   coherence styles.
2. *Conviction power*: a seeded fault (a bit-dropping signature filter,
   the one failure LogTM-SE signatures must never have) is caught, with
   a false-negative report naming the threads and a non-serializable
   witness naming the committed transactions.
3. *Observer effect is zero*: simulated cycle counts are identical with
   verification on and off — the suite watches the event bus, it never
   touches the machine.
"""

from dataclasses import replace

import pytest

from repro.common.config import CoherenceStyle, SignatureKind, SystemConfig
from repro.common.errors import ReproError, VerificationError
from repro.harness.runner import RunResult, run_workload
from repro.harness.sweep import run_sweep
from repro.harness.system import System
from repro.svc.repository import RunRepository
from repro.verify import VerificationSuite, Violation
from repro.verify.faults import LossySignature, make_lossy
from repro.workloads import BankTransfer, LinkedListSet, SharedCounter


def small_cfg(signature=SignatureKind.BIT_SELECT, **kwargs):
    cfg = SystemConfig.small(num_cores=2, threads_per_core=2)
    return cfg.with_signature(signature, bits=64, **kwargs)


class TestCleanWorkloads:
    """Verified runs of correct workloads must be violation-free."""

    @pytest.mark.parametrize("kind", [SignatureKind.PERFECT,
                                      SignatureKind.BIT_SELECT,
                                      SignatureKind.HASHED])
    def test_counter_clean_across_signatures(self, kind):
        wl = SharedCounter(num_threads=4, units_per_thread=3)
        result = run_workload(small_cfg(kind), wl, verify=True)
        assert result.verify_checks_run == list(VerificationSuite.CHECKERS)
        assert result.verify_violations == []
        assert result.verify_report.ok

    @pytest.mark.parametrize("style", [CoherenceStyle.DIRECTORY,
                                       CoherenceStyle.SNOOPING])
    def test_bank_clean_across_coherence(self, style):
        cfg = replace(small_cfg(), coherence=style)
        wl = BankTransfer(num_threads=4, units_per_thread=4,
                          num_accounts=8)
        result = run_workload(cfg, wl, verify=True)
        assert result.verify_violations == []

    def test_linked_list_clean(self):
        wl = LinkedListSet(num_threads=4, units_per_thread=4,
                           key_space=24, delete_fraction=0.25, seed=3)
        result = run_workload(small_cfg(), wl, verify=True)
        assert result.verify_violations == []

    def test_strict_mode_passes_clean_run(self):
        wl = SharedCounter(num_threads=2, units_per_thread=2)
        result = run_workload(small_cfg(), wl, verify="strict")
        assert result.verify_report.ok

    def test_multichip_clean(self):
        cfg = SystemConfig.multichip(num_chips=2, cores_per_chip=2)
        wl = SharedCounter(num_threads=4, units_per_thread=2)
        result = run_workload(cfg, wl, verify=True)
        assert result.verify_violations == []


class TestObserverEffect:
    """Verification must never change what the machine does."""

    def test_cycles_identical_with_and_without_verify(self):
        cfg = small_cfg()

        def make():
            return BankTransfer(num_threads=4, units_per_thread=4,
                                num_accounts=8)

        plain = run_workload(cfg, make(), seed=11)
        verified = run_workload(cfg, make(), seed=11, verify=True)
        assert verified.cycles == plain.cycles
        assert verified.counters == plain.counters
        assert verified.commits == plain.commits
        assert plain.verify_checks_run == []
        assert verified.verify_checks_run


class TestSelfDisabling:
    """Modes whose semantics the checkers cannot judge disable cleanly."""

    def test_lazy_mode_disables_suite(self):
        cfg = small_cfg()
        cfg = replace(cfg, tm=replace(cfg.tm, version_management="lazy"))
        wl = SharedCounter(num_threads=2, units_per_thread=2)
        result = run_workload(cfg, wl, verify=True)
        assert result.verify_checks_run == []
        assert result.verify_violations == []
        assert "lazy" in result.verify_report.disabled_reason

    def test_no_sticky_ablation_disables_suite(self):
        cfg = small_cfg()
        cfg = replace(cfg, tm=replace(cfg.tm, use_sticky_states=False))
        wl = SharedCounter(num_threads=2, units_per_thread=2)
        result = run_workload(cfg, wl, verify=True)
        assert result.verify_checks_run == []
        assert "sticky" in result.verify_report.disabled_reason


def _run_lossy_cross(system, threads, x_vaddr, y_vaddr):
    """Two overlapping transactions forming a classic r/w cross.

    A reads X then writes Y; B reads Y then writes X. Correct eager TM
    serializes this (one NACKs the other); with both signatures lying
    about X and Y, both commit and the committed history is the textbook
    non-serializable interleaving.
    """
    a, b = threads[0], threads[1]

    def prog(thread, first, second):
        slot = thread.slot
        yield from system.manager.begin(slot)
        yield from slot.core.load(slot, first)
        yield 5000  # both reads land before either write
        yield from slot.core.store(slot, second, 1)
        yield from system.manager.commit(slot)

    procs = [system.sim.spawn(prog(a, x_vaddr, y_vaddr), name="A"),
             system.sim.spawn(prog(b, y_vaddr, x_vaddr), name="B")]
    system.sim.run_until_done(procs, limit=10_000_000)


class TestSeededFaults:
    """A checker that has never convicted a seeded bug is scenery."""

    X, Y = 0x1000_0000, 0x1000_0040

    def _lossy_system(self):
        cfg = SystemConfig.small(num_cores=2, threads_per_core=1)
        cfg = cfg.with_signature(SignatureKind.PERFECT)
        system = System(cfg, seed=5)
        bus, _ = system.attach_bus(with_log=False)
        suite = VerificationSuite(system).attach(bus)
        threads = system.place_threads(2)
        mask = ~(system.cfg.block_bytes - 1)
        drops = {threads[0].translate(self.X) & mask,
                 threads[0].translate(self.Y) & mask}
        for thread in threads:
            thread.ctx.signature = make_lossy(thread.ctx.signature, drops)
        return system, suite, threads

    def test_dropped_bits_produce_false_negative_report(self):
        system, suite, threads = self._lossy_system()
        _run_lossy_cross(system, threads, self.X, self.Y)
        report = suite.finish()
        assert not report.ok
        rules = {v.rule for v in report.violations}
        assert "SIG-FALSE-NEGATIVE" in rules
        fn = next(v for v in report.violations
                  if v.rule == "SIG-FALSE-NEGATIVE")
        assert {fn.details["requester"], fn.details["holder"]} == \
            {threads[0].tid, threads[1].tid}
        # The sabotaged filters really did falsify conflict tests.
        assert any(sig.dropped
                   for t in threads
                   for sig in (t.ctx.signature.read, t.ctx.signature.write))

    def test_non_serializable_witness_names_transactions(self):
        system, suite, threads = self._lossy_system()
        _run_lossy_cross(system, threads, self.X, self.Y)
        report = suite.finish()
        cycles = [v for v in report.violations if v.rule == "SER-CYCLE"]
        assert cycles, report.summary()
        witness = cycles[0]
        # The witness names both committed transactions and the edges.
        for thread in threads:
            assert f"T{thread.tid}#" in witness.message
        assert "->" in witness.message
        assert len(witness.details["cycle"]) >= 3
        assert witness.details["cycle"][0] == witness.details["cycle"][-1]

    def test_strict_mode_raises_on_violation(self, monkeypatch):
        import repro.verify.checkers as checkers_mod

        class SeededSuite(checkers_mod.VerificationSuite):
            def finish(self):
                self._report("signature-oracle", "SIG-FALSE-NEGATIVE", 0,
                             "seeded violation for the strict-mode test")
                return super().finish()

        monkeypatch.setattr(checkers_mod, "VerificationSuite", SeededSuite)
        wl = SharedCounter(num_threads=2, units_per_thread=1)
        with pytest.raises(VerificationError):
            run_workload(small_cfg(), wl, verify="strict")

    def test_verification_error_is_repro_error(self):
        assert issubclass(VerificationError, ReproError)

    def test_lossy_signature_passthrough(self):
        """The wrapper sabotages only the filter, never the shadow set."""
        cfg = small_cfg()
        system = System(cfg, seed=1)
        thread = system.place_threads(1)[0]
        sig = LossySignature(thread.ctx.signature.read.spawn_empty(),
                             drop_blocks={0x40})
        sig.insert(0x40)
        sig.insert(0x80)
        assert sig.contains_exact(0x40)      # truth retained
        assert not sig.contains(0x40)        # filter lies
        assert sig.contains(0x80)            # untouched blocks pass through
        assert sig.dropped == 1
        sig.clear()
        assert sig.is_empty


class TestReportPlumbing:
    """Reports survive serialization and the sweep/cache path."""

    def test_violation_roundtrip(self):
        v = Violation(checker="undo-oracle", rule="UNDO-RESTORE", time=42,
                      message="word mismatch", details={"vaddr": 0x40})
        record = v.to_dict()
        assert record["rule"] == "UNDO-RESTORE"
        assert record["details"]["vaddr"] == 0x40
        assert "UNDO-RESTORE" in str(v)

    def test_run_result_roundtrip_keeps_verify_fields(self):
        wl = SharedCounter(num_threads=2, units_per_thread=2)
        result = run_workload(small_cfg(), wl, verify=True)
        rebuilt = RunResult.from_dict(result.to_dict())
        assert rebuilt.verify_checks_run == result.verify_checks_run
        assert rebuilt.verify_violations == result.verify_violations
        assert rebuilt == replace(result, system=None, events=None,
                                  verify_report=None)

    def test_sweep_threads_verify_through_cache(self, tmp_path):
        cache = RunRepository(tmp_path / "sweeps.db")
        variants = [("base", small_cfg())]

        def factory():
            return SharedCounter(num_threads=2, units_per_thread=2)

        cold = run_sweep(variants, factory, cache=cache, verify=True)
        warm = run_sweep(variants, factory, cache=cache, verify=True)
        assert warm.meta["variants"]["base"]["cached"]
        assert warm.results["base"].verify_checks_run == \
            list(VerificationSuite.CHECKERS)
        assert warm.results["base"] == cold.results["base"]

    def test_cache_key_separates_verify_modes(self, tmp_path):
        cache = RunRepository(tmp_path / "sweeps.db")
        variants = [("base", small_cfg())]

        def factory():
            return SharedCounter(num_threads=2, units_per_thread=2)

        plain = run_sweep(variants, factory, cache=cache)
        verified = run_sweep(variants, factory, cache=cache, verify=True)
        # The verified sweep must not be served the unverified record.
        assert not verified.meta["variants"]["base"]["cached"]
        assert plain.results["base"].verify_checks_run == []
        assert verified.results["base"].verify_checks_run
        assert verified.results["base"].cycles == \
            plain.results["base"].cycles
