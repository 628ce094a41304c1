"""Tests for the tracked benchmark harness (``repro.perf``): schema
round-trips, regression-threshold semantics, byte-identical results, and
the flattened signature hot paths against their reference backends."""

import json

import pytest

from repro.cli import build_parser, main
from repro.common.config import SystemConfig
from repro.perf.harness import (EXIT_OK, HARD_THRESHOLD, SOFT_THRESHOLD,
                                check_regression, load_records,
                                render_markdown_trajectory,
                                render_trajectory, run_suite)
from repro.perf.schema import (SCHEMA_VERSION, BenchMeasurement, BenchRecord,
                               environment_fingerprint)
from repro.perf.suite import CASES, SUITE, run_engine_stress
from repro.harness.runner import run_workload
from repro.signatures import make_signature
from repro.signatures.base import Signature
from repro.common.config import SignatureConfig, SignatureKind
from repro.workloads import SharedCounter


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

class TestSchema:
    def test_from_totals_derives_rates(self):
        m = BenchMeasurement.from_totals(
            label="x", wall_seconds=2.0, cycles=100, aborts=10,
            cells=4, events=50)
        assert m.cycles_per_second == pytest.approx(50.0)
        assert m.aborts_per_second == pytest.approx(5.0)
        assert m.cells_per_minute == pytest.approx(120.0)
        assert m.events_per_second == pytest.approx(25.0)
        assert m.environment == environment_fingerprint()

    def test_measurement_round_trip(self):
        m = BenchMeasurement.from_totals(
            label="x", wall_seconds=1.5, cycles=7,
            extra={"scale": "full", "result_digest": "abc"})
        again = BenchMeasurement.from_dict(m.to_dict())
        assert again == m
        # and the dict itself is JSON-serializable as-is
        assert json.loads(json.dumps(m.to_dict())) == m.to_dict()

    def test_record_round_trip(self):
        record = BenchRecord(name="case", description="d",
                             config={"seed": 1})
        record.record(BenchMeasurement.from_totals("a", 1.0))
        record.record(BenchMeasurement.from_totals("b", 2.0))
        again = BenchRecord.from_dict(record.to_dict())
        assert again == record
        assert again.schema_version == SCHEMA_VERSION

    def test_record_same_tail_label_replaces(self):
        record = BenchRecord(name="case")
        record.record(BenchMeasurement.from_totals("first", 1.0))
        record.record(BenchMeasurement.from_totals("tuning", 2.0))
        record.record(BenchMeasurement.from_totals("tuning", 3.0))
        assert [m.label for m in record.trajectory] == ["first", "tuning"]
        assert record.trajectory[-1].wall_seconds == 3.0
        # only the *tail* label collapses; earlier labels may repeat
        record.record(BenchMeasurement.from_totals("first", 4.0))
        assert [m.label for m in record.trajectory] == \
            ["first", "tuning", "first"]

    def test_save_and_load(self, tmp_path):
        record = BenchRecord(name="case", description="d")
        record.record(BenchMeasurement.from_totals("a", 1.0))
        path = record.save(str(tmp_path))
        assert path.endswith("BENCH_case.json")
        assert BenchRecord.load(path) == record
        assert BenchRecord.load_if_exists("case", str(tmp_path)) == record
        assert BenchRecord.load_if_exists("missing", str(tmp_path)) is None


# ---------------------------------------------------------------------------
# regression grading
# ---------------------------------------------------------------------------

def _record_with_baseline(wall, scale="full", digest="d0", label="base"):
    record = BenchRecord(name="case")
    record.record(BenchMeasurement.from_totals(
        label, wall, extra={"scale": scale, "result_digest": digest}))
    return record


def _fresh(wall, scale="full", digest="d0"):
    return BenchMeasurement.from_totals(
        "fresh", wall, extra={"scale": scale, "result_digest": digest})


class TestCheckRegression:
    def test_ok_within_soft_threshold(self):
        record = _record_with_baseline(1.0)
        report = check_regression("case", _fresh(1.25), record)
        assert report.status == "ok"
        assert not report.failed_soft and not report.failed_hard
        assert report.baseline_label == "base"

    def test_soft_above_30_percent(self):
        record = _record_with_baseline(1.0)
        report = check_regression(
            "case", _fresh(SOFT_THRESHOLD + 0.01), record)
        assert report.status == "soft"
        assert report.failed_soft and not report.failed_hard
        assert "slower" in report.messages[0]

    def test_hard_above_2x(self):
        record = _record_with_baseline(1.0)
        report = check_regression(
            "case", _fresh(HARD_THRESHOLD + 0.01), record)
        assert report.status == "hard"
        assert report.failed_hard

    def test_improved_below_baseline(self):
        record = _record_with_baseline(2.0)
        report = check_regression("case", _fresh(1.0), record)
        assert report.status == "improved"
        assert "faster" in report.messages[0]

    def test_no_baseline(self):
        assert check_regression("case", _fresh(1.0), None).status == \
            "no-baseline"
        # a record whose entries are all at another scale has no baseline
        record = _record_with_baseline(1.0, scale="quick")
        assert check_regression("case", _fresh(1.0), record).status == \
            "no-baseline"

    def test_digest_mismatch_is_always_hard(self):
        record = _record_with_baseline(1.0, digest="aaaa")
        fast_but_wrong = _fresh(0.5, digest="bbbb")
        report = check_regression("case", fast_but_wrong, record)
        assert report.status == "hard"
        assert "byte-identical" in report.messages[0]

    def test_baseline_is_newest_same_scale_entry(self):
        record = BenchRecord(name="case")
        record.record(BenchMeasurement.from_totals(
            "old-full", 10.0, extra={"scale": "full"}))
        record.record(BenchMeasurement.from_totals(
            "new-full", 1.0, extra={"scale": "full"}))
        record.record(BenchMeasurement.from_totals(
            "quick", 0.1, extra={"scale": "quick"}))
        report = check_regression("case", _fresh(1.1), record)
        assert report.baseline_label == "new-full"
        assert report.ratio == pytest.approx(1.1)


# ---------------------------------------------------------------------------
# suite + harness end to end (quick scale, fast cases only)
# ---------------------------------------------------------------------------

class TestRunSuite:
    def test_registry_is_consistent(self):
        assert set(SUITE) == set(CASES)
        for name, case in CASES.items():
            assert case.name == name
            assert case.description

    def test_engine_stress_is_deterministic(self):
        a = run_engine_stress(stages=3, rounds=50)
        b = run_engine_stress(stages=3, rounds=50)
        assert a == b
        assert a["events"] > 0 and a["cycles"] > 0

    def test_sweep_case_digest_is_deterministic(self):
        """A sweep case's digest covers its results, not its wall times."""
        run = CASES["fig4_cell"].run
        digests = {run("quick")["extra"]["result_digest"] for _ in range(2)}
        assert len(digests) == 1

    #: Quick-scale result digests; identical on Python 3.9, 3.11, 3.12
    #: and 3.13. A change that moves one changed a simulated result.
    PINNED_QUICK_DIGESTS = {
        "fig4_cell":
            "ea1581df8e20a74e0b8b48a83d06a3f25a3d73d721ac3a32dd30b9d2866a45ba",
        "table3_conflict":
            "a31891e74b66c54ab7bbf676dcebfcb9f9a41020282f98710a616140012a567b",
        "fig3_signatures":
            "88e15c67de343be00acaa300de216e5fbecbf7cf004d81d8bdef8ee257f31c2f",
        "engine_stress":
            "614d66b4c465e50ca25e27218301da8f381d6cee17268449707631aeaa773987",
    }

    def test_quick_digests_are_pinned(self):
        assert set(self.PINNED_QUICK_DIGESTS) == set(CASES)
        for name, case in CASES.items():
            digest = case.run("quick")["extra"]["result_digest"]
            assert digest == self.PINNED_QUICK_DIGESTS[name], \
                f"{name}: a simulated result moved"

    def test_run_suite_writes_tracks_and_gates(self, tmp_path):
        out = str(tmp_path)
        first = run_suite(names=["engine_stress"], scale="quick",
                          label="seed", out_dir=out, check=True)
        # nothing committed yet: no baseline, still exit 0
        assert first.regressions["engine_stress"].status == "no-baseline"
        assert first.exit_code == EXIT_OK
        assert first.written == [str(tmp_path / "BENCH_engine_stress.json")]

        second = run_suite(names=["engine_stress"], scale="quick",
                           label="again", out_dir=out, check=True)
        report = second.regressions["engine_stress"]
        # same machine, same pinned work: digests must match; the grade
        # is anything wall-clock noise allows except a digest failure
        assert "byte-identical" not in " ".join(report.messages)
        record = BenchRecord.load_if_exists("engine_stress", out)
        assert [m.label for m in record.trajectory] == ["seed", "again"]
        digests = {m.extra["result_digest"] for m in record.trajectory}
        assert len(digests) == 1

    def test_no_write_leaves_files_alone(self, tmp_path):
        out = str(tmp_path)
        outcome = run_suite(names=["engine_stress"], scale="quick",
                            out_dir=out, write=False)
        assert outcome.written == []
        assert load_records(out) == {}

    def test_render_helpers(self, tmp_path):
        out = str(tmp_path)
        run_suite(names=["engine_stress"], scale="quick", out_dir=out)
        records = load_records(out)
        table = render_trajectory(records)
        assert "engine_stress" in table and "Wall s" in table
        markdown = render_markdown_trajectory(records)
        assert markdown.startswith("| Benchmark |")
        assert "| engine_stress |" in markdown


class TestBenchCli:
    def test_parser_accepts_bench(self):
        args = build_parser().parse_args(
            ["bench", "--suite", "engine_stress", "--scale", "quick",
             "--label", "x", "--check", "--no-write"])
        assert args.suite == ["engine_stress"]
        assert args.scale == "quick"
        assert args.check and args.no_write

    def test_bench_runs_and_reports(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["bench", "--suite", "engine_stress",
                     "--scale", "quick", "--out-dir", out]) == 0
        assert (tmp_path / "BENCH_engine_stress.json").exists()
        assert main(["bench", "--report", "--out-dir", out]) == 0
        assert "engine_stress" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# byte-identity of optimized paths
# ---------------------------------------------------------------------------

class TestByteIdentity:
    def test_run_workload_is_reproducible(self):
        cfg = SystemConfig.small(num_cores=2)
        results = [run_workload(cfg, SharedCounter(num_threads=2,
                                                   units_per_thread=3),
                                seed=11)
                   for _ in range(2)]
        assert results[0] == results[1]
        assert results[0].to_dict() == results[1].to_dict()

    @pytest.mark.parametrize("kind", [SignatureKind.BIT_SELECT,
                                      SignatureKind.DOUBLE_BIT_SELECT,
                                      SignatureKind.COARSE_BIT_SELECT,
                                      SignatureKind.HASHED,
                                      SignatureKind.PERFECT])
    def test_flattened_signature_matches_reference_backend(self, kind):
        """The flattened ``insert``/``contains`` overrides must behave
        exactly like the base-class template methods driving the
        ``_insert_filter``/``_test_filter`` hooks."""
        scfg = SignatureConfig(kind=kind, bits=256)
        fast = make_signature(scfg, block_bytes=64)
        ref = make_signature(scfg, block_bytes=64)
        addrs = [i * 64 for i in range(0, 400, 7)]
        probes = [i * 64 for i in range(200)] + [i * 64 + 8
                                                 for i in range(0, 64, 3)]
        for addr in addrs:
            fast.insert(addr)                  # flattened hot path
            Signature.insert(ref, addr)        # reference template method
        assert fast.snapshot() == ref.snapshot()
        for probe in probes:
            expected = Signature.contains(ref, probe)
            assert fast.contains(probe) == expected
            assert fast._test_filter(probe) == expected
        fast.clear()
        assert fast.is_empty and not fast.contains(addrs[0])
