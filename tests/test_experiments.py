"""Tests for the experiment harness (quick scale: code paths + structure)."""

import pytest

from repro.common.config import SystemConfig
from repro.harness import experiments as E


class TestScales:
    def test_presets(self):
        assert E.QUICK.threads == 8
        assert not E.QUICK.asserts_shapes
        assert E.FULL.threads == 32
        assert E.FULL.asserts_shapes
        assert E.FULL.units_for("Raytrace") == 24
        assert E.FULL.units_for("unknown") == E.FULL.default_units

    def test_make_workload(self):
        wl = E.make_workload("Cholesky", E.QUICK)
        assert wl.name == "Cholesky"
        assert wl.num_threads == 8


class TestTable1:
    def test_rows_cover_table(self):
        rows = {r.parameter: r.setting for r in E.table1_rows()}
        assert set(rows) == {"Processor Cores", "L1 Cache", "L2 Cache",
                             "Memory", "L2-Directory",
                             "Interconnection Network"}

    def test_render(self):
        out = E.render_table1(E.table1_rows())
        assert "Table 1" in out
        assert "500-cycle latency" in out


class TestTable2:
    def test_structure(self):
        tiny = E.ExperimentScale(threads=4, default_units=1, runs=1,
                                 asserts_shapes=False)
        rows = E.table2(tiny)
        assert [r.name for r in rows] == list(E.WORKLOAD_CLASSES)
        for row in rows:
            assert row.transactions > 0
            assert row.read_avg >= 0
        out = E.render_table2(rows)
        assert "BerkeleyDB" in out

    def test_paper_reference_values_present(self):
        assert E.PAPER_TABLE2["Raytrace"]["read_max"] == 550
        assert E.PAPER_TABLE2["BerkeleyDB"]["read_avg"] == 8.1


class TestFigure3:
    def test_points_and_monotonicity(self):
        points = E.figure3(set_sizes=(4, 64), bit_sizes=(64, 1024),
                           probes=500)
        kinds = {p.kind for p in points}
        assert kinds == {"BS", "DBS", "CBS"}
        rate = {(p.kind, p.bits, p.inserted): p.false_positive_rate
                for p in points}
        assert 0.0 <= min(rate.values())
        assert max(rate.values()) <= 1.0
        # Bigger filter, fewer false positives (same design/occupancy).
        assert rate[("BS", 1024, 64)] <= rate[("BS", 64, 64)]

    def test_render(self):
        points = E.figure3(set_sizes=(4,), bit_sizes=(64,), probes=100)
        assert "Figure 3" in E.render_figure3(points)


class TestFigure4:
    def test_single_workload_structure(self):
        for runs in (1, 3):
            tiny = E.ExperimentScale(threads=4, default_units=1, runs=runs,
                                     asserts_shapes=False)
            cells = E.figure4(tiny, workloads=["Cholesky"])
            variants = [c.variant for c in cells]
            assert variants == ["Lock", "Perfect", "BS_2Kb", "CBS_2Kb",
                                "DBS_2Kb", "BS_64"]
            lock = next(c for c in cells if c.variant == "Lock")
            assert lock.speedup == pytest.approx(1.0)
            for c in cells:
                assert c.cycles > 0
                assert c.speedup > 0
                # Perturbed-seed runs differ, so several give a nonzero CI.
                assert (c.ci_half_width > 0) == (runs > 1), (runs, c)

    def test_parallel_cells_identical(self):
        # The Figure 4 grid on worker processes (incl. perturbed runs)
        # must reproduce the in-process cells exactly.
        tiny = E.ExperimentScale(threads=4, default_units=1, runs=2,
                                 asserts_shapes=False)
        serial = E.figure4(tiny, workloads=["Cholesky"])
        parallel = E.figure4(tiny, workloads=["Cholesky"], jobs=2)
        assert parallel == serial


class TestTable3:
    def test_structure(self):
        tiny = E.ExperimentScale(threads=4, default_units=1, runs=1,
                                 asserts_shapes=False)
        rows = E.table3(tiny, workloads=("Cholesky",))
        assert len(rows) == len(E.TABLE3_SIGNATURES)
        perfect = next(r for r in rows if r.signature == "Perfect")
        assert perfect.false_positive_pct == 0.0
        assert "Table 3" in E.render_table3(rows)

    def test_parallel_rows_identical(self):
        tiny = E.ExperimentScale(threads=4, default_units=1, runs=1,
                                 asserts_shapes=False)
        assert (E.table3(tiny, workloads=("Cholesky",), jobs=2)
                == E.table3(tiny, workloads=("Cholesky",)))


class TestVictimization:
    def test_structure(self):
        tiny = E.ExperimentScale(threads=4, default_units=1, runs=1,
                                 asserts_shapes=False)
        rows = E.victimization(tiny)
        assert {r.workload for r in rows} == set(E.WORKLOAD_CLASSES)
        assert "Result 4" in E.render_victimization(rows)


class TestTable4:
    def test_matrix_matches_paper(self):
        m = E.TABLE4_MATRIX
        assert m["LogTM-SE"]["eviction"] == "-"
        assert m["LogTM-SE"]["miss"] == "-"
        assert m["UnrestrictedTM"]["eviction"] == "A"
        assert m["VTM"]["switch"] == "SWV"
        assert m["UTM"]["abort"] == "HC"
        assert "Table 4" in E.render_table4({"matrix": m, "evidence": {}})


class TestRegistry:
    def test_paper_order(self):
        assert list(E.EXPERIMENTS) == [
            "table1", "table2", "fig3", "fig4", "table3", "victimization",
            "table4", "snooping", "ablation-log-filter", "ablation-sticky",
            "ablation-sigsize", "ablation-locks", "scaling-threads",
            "false-sharing", "ext-contention", "ext-classic",
            "ext-multichip", "ext-hashed", "ext-lazy"]

    @pytest.mark.parametrize("name", ["table2", "fig4", "table3",
                                      "victimization", "snooping",
                                      "scaling-threads"])
    def test_shape_claims_are_gated_on_scale(self, name):
        # Gated before any row is read, so empty rows suffice.
        _, _, check = E.EXPERIMENTS[name]
        assert check([], E.QUICK) is None


class TestClaims:
    """Checks report every broken claim, on rows built to break them."""

    def test_contention_aggressive_must_stall_less_than_polite(self):
        rows = [("timestamp", 900, 3, 40, 0), ("polite", 1000, 5, 49, 0),
                ("aggressive", 800, 9, 49, 0)]
        assert E.check_policies(rows, E.QUICK) == [
            "aggressive stalls < polite stalls"]
        rows[2] = ("aggressive", 800, 9, 48, 0)
        assert E.check_policies(rows, E.QUICK) == []

    def test_lazy_squashes_only_in_lazy_mode(self):
        good = [("eager", 900, 96, 4, 0, 200), ("lazy", 950, 96, 6, 55, 0)]
        assert E.check_lazy(good, E.QUICK) == []
        bad = [("eager", 900, 96, 4, 1, 200), ("lazy", 950, 96, 6, 0, 0)]
        assert E.check_lazy(bad, E.QUICK) == [
            "lazy mode squashes conflicting readers",
            "eager mode never squashes"]

    def test_lazy_oracle_violation_raises(self, monkeypatch):
        from repro.common.errors import VerificationError
        from repro.workloads import HashTable
        monkeypatch.setattr(HashTable, "expected_counts", lambda self: {})
        with pytest.raises(VerificationError, match="eager: oracle"):
            E.eager_vs_lazy()
