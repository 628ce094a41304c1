"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.common.errors import SimulationError
from repro.harness import experiments as E
from repro.harness import sweep as sweep_mod
from repro.harness.sweep import SweepResult
from repro.svc.repository import RunRepository


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for name in ("table1", "table2", "fig3", "fig4", "table3",
                     "victimization", "table4"):
            args = parser.parse_args(["paper", "--only", name])
            assert args.only == [name]
            assert callable(args.fn)
            # Each artifact is an experiment of `paper`, not a subcommand.
            with pytest.raises(SystemExit):
                parser.parse_args([name])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "Cholesky", "--threads", "4", "--units", "1",
             "--signature", "bs", "--bits", "64"])
        assert args.workload == "Cholesky"
        assert args.threads == 4
        assert args.bits == 64

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["--json", "sweep", "Mp3d", "--mode", "sizes", "--kind", "bs",
             "--sizes", "64", "256", "--jobs", "4", "--no-cache"])
        assert args.json
        assert args.mode == "sizes"
        assert args.sizes == [64, 256]
        assert args.jobs == 4
        assert args.no_cache

    def test_jobs_on_grid_commands(self):
        assert build_parser().parse_args(["paper", "--jobs", "2"]).jobs == 2
        assert build_parser().parse_args(
            ["sweep", "Mp3d", "--jobs", "2"]).jobs == 2
        args = build_parser().parse_args(["paper"])
        assert (args.only, args.scale, args.jobs) == (None, "quick", 1)

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_table1(self, capsys):
        assert main(["paper", "--only", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "500-cycle latency" in out
        assert "PASS table1" in out

    def test_table4(self, capsys):
        assert main(["paper", "--only", "table4"]) == 0
        out = capsys.readouterr().out
        assert "LogTM-SE" in out
        assert "PASS table4" in out

    def test_run_small(self, capsys):
        assert main(["run", "Mp3d", "--threads", "4", "--units", "1"]) == 0
        out = capsys.readouterr().out
        assert "commits" in out
        assert "cycles" in out

    def test_run_locks(self, capsys):
        assert main(["run", "Mp3d", "--threads", "4", "--units", "1",
                     "--locks"]) == 0
        assert "locks" in capsys.readouterr().out

    def test_run_unknown_workload(self, capsys):
        assert main(["run", "NotAWorkload"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_run_microbenchmark_from_the_docstring(self, capsys):
        # The module docstring's example, at one unit per thread; `run`
        # and `trace` accept the same workloads.
        assert main(["run", "SharedCounter", "--threads", "8", "--verify",
                     "--units", "1"]) == 0
        out = capsys.readouterr().out
        assert "SharedCounter(threads=8" in out
        assert "verify     : 4 checker(s), 0 violation(s)" in out

    def test_fig4_single_workload_quick(self, capsys):
        assert main(["sweep", "Mp3d", "--mode", "figure4", "--threads", "4",
                     "--units", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Mp3d (figure4)" in out
        for variant in ("Lock", "Perfect", "BS_2Kb", "CBS_2Kb", "DBS_2Kb",
                        "BS_64"):
            assert variant in out

    def test_run_json_is_uniform_across_sync_modes(self, capsys):
        base = ["run", "Mp3d", "--threads", "4", "--units", "1"]
        assert main(["--json"] + base) == 0
        tm = json.loads(capsys.readouterr().out)
        assert main(["--json"] + base + ["--locks"]) == 0
        locks = json.loads(capsys.readouterr().out)
        assert tm["config_label"] == "Perfect"
        assert locks["config_label"] == "locks"
        assert set(tm) == set(locks)  # same record shape in both modes
        assert locks["cycles"] > 0


_LEAN_CLI_PROBE = """
import sys
from repro.cli import build_parser
build_parser().parse_args(["jobs"])
assert "repro.harness.experiments" not in sys.modules, "loaded"
"""


#: Runs ``python -m repro jobs --help`` in a fresh interpreter, then lists
#: every simulator package it loaded.
_JOBS_HELP_PROBE = """
import runpy
import sys
sys.argv = ["repro", "jobs", "--help"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit:
    pass
print(sorted(name for name in sys.modules
             if name.split(".")[:2] in (["repro", "cpu"],
                                        ["repro", "harness"],
                                        ["repro", "coherence"])))
"""


def test_jobs_help_loads_no_simulator():
    """A service client's help builds the whole parser, ``sweep
    --mode`` choices included, without the simulator."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", _JOBS_HELP_PROBE],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


class TestPaperCommand:
    CHEAP = ["table1", "table4", "fig3", "ablation-log-filter"]

    def test_other_commands_do_not_load_the_paper_module(self):
        """Importing the CLI and parsing a non-paper command leaves the
        experiment registry unloaded; ``paper`` imports it itself."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", _LEAN_CLI_PROBE],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr

    def test_help_lists_every_experiment(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "2000")  # no wrap inside a name
        with pytest.raises(SystemExit):
            main(["paper", "--help"])
        out = capsys.readouterr().out
        assert ("(default: all, in paper order): "
                + ", ".join(E.EXPERIMENTS)) in out

    def test_cheap_experiments_pass(self, capsys):
        assert main(["paper", "--only"] + self.CHEAP) == 0
        out = capsys.readouterr().out
        for title in ("Table 1: System Model Parameters",
                      "Table 4: HTM Virtualization Techniques",
                      "LogTM-SE row demonstrated live",
                      "Figure 3: signature designs",
                      "Figure 3 companion: abort attribution",
                      "Ablation: log filter"):
            assert title in out
        assert "500-cycle latency" in out
        for name in self.CHEAP:
            assert f"PASS {name}" in out
        assert "FAIL" not in out and "ERROR" not in out

    def _replace_run(self, monkeypatch, name, run):
        _, render, check = E.EXPERIMENTS[name]
        monkeypatch.setitem(E.EXPERIMENTS, name, (run, render, check))

    def test_failed_claim_does_not_stop_the_next(self, monkeypatch, capsys):
        rows = E.table1_rows()
        rows[3] = E.Table1Row("Memory", "2 GB, 500-cycle latency")
        self._replace_run(monkeypatch, "table1",
                          lambda scale, seed, jobs: rows)
        assert main(["paper", "--only", "table1", "table4"]) == 1
        out = capsys.readouterr().out
        assert "FAIL table1: Memory setting contains '4 GB'" in out
        assert "PASS table1" not in out
        assert "PASS table4" in out

    def test_error_does_not_stop_the_next(self, monkeypatch, capsys):
        def livelock(scale, seed, jobs):
            raise SimulationError("thread 5 livelocked on 0x100064c0")
        self._replace_run(monkeypatch, "table1", livelock)
        assert main(["paper", "--only", "table1", "table4"]) == 1
        captured = capsys.readouterr()
        assert ("ERROR table1: SimulationError: thread 5 livelocked on "
                "0x100064c0") in captured.out
        assert "PASS table4" in captured.out
        assert "Traceback" in captured.err
        assert main(["--json", "paper", "--only", "table1"]) == 1
        assert json.loads(capsys.readouterr().out)["table1"] == {
            "rows": None, "failures": None,
            "error": "SimulationError: thread 5 livelocked on 0x100064c0"}

    def test_failed_cell_keeps_its_traceback(self, monkeypatch, capsys):
        real = sweep_mod.run_workload

        def livelocking_cell(cfg, workload, **kwargs):
            if kwargs["config_label"] == "4 entries":
                raise SimulationError("thread 5 livelocked on 0x100064c0")
            return real(cfg, workload, **kwargs)

        monkeypatch.setattr(sweep_mod, "run_workload", livelocking_cell)
        assert main(["paper", "--only", "ablation-log-filter"]) == 1
        captured = capsys.readouterr()
        assert ("ERROR ablation-log-filter: SweepExecutionError: 1 of 3 "
                "sweep cell(s) failed (2 completed): 4 entries: "
                "repro.common.errors.SimulationError: thread 5 livelocked"
                ) in captured.out
        # The cell's key and the frame that raised inside it, not only
        # the batch's wrapper error.
        assert "\n  4 entries: Traceback" in captured.err
        assert "in livelocking_cell" in captured.err

    def test_unchecked_shapes_never_pass(self, monkeypatch, capsys):
        run, render, _ = E.EXPERIMENTS["table1"]
        monkeypatch.setitem(E.EXPERIMENTS, "table1",
                            (run, render, lambda rows, scale: None))
        assert main(["paper", "--only", "table1"]) == 0
        out = capsys.readouterr().out
        assert "UNCHECKED table1: shape claims are not checked" in out
        assert "PASS" not in out

    def test_unknown_name_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["paper", "--only", "nosuch"])
        assert exc.value.code == 2
        assert "nosuch" in capsys.readouterr().err

    def test_json_carries_rows_and_failures(self, capsys):
        assert main(["--json", "paper", "--only", "table1", "table4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["table1", "table4"]
        assert payload["table1"] == {
            "rows": [{"parameter": p.parameter, "setting": p.setting}
                     for p in E.table1_rows()],
            "failures": []}
        assert payload["table1"]["rows"][0] == {
            "parameter": "Processor Cores",
            "setting": "16 cores, 2-way SMT (32 thread contexts)"}
        table4 = payload["table4"]
        assert table4["failures"] == []
        assert table4["rows"]["matrix"] == E.TABLE4_MATRIX
        assert table4["rows"]["evidence"]["value_restored"] == 7


class TestSweepCommand:
    ARGS = ["sweep", "Mp3d", "--mode", "sizes", "--sizes", "64", "256",
            "--threads", "4", "--units", "1"]

    def test_table_output_no_cache(self, capsys):
        assert main(self.ARGS + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "BS_64" in out and "BS_256" in out
        assert "cache: 0 hit(s), 2 miss(es) (disabled)" in out

    def test_unknown_workload(self, capsys):
        assert main(["sweep", "Nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    @pytest.mark.parametrize("args, reason", [
        (["--bits", "100"], "power of two"),
        (["--mode", "sizes", "--sizes", "64", "64"], "duplicate"),
    ], ids=["bits-100", "duplicate-sizes"])
    def test_invalid_grid_exits_2_with_one_line(self, args, reason,
                                                capsys):
        assert main(["sweep", "Mp3d", "--no-cache"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert reason in line

    def test_repeat_invocation_hits_cache(self, tmp_path, capsys):
        cache_args = self.ARGS + ["--db", str(tmp_path / "sweeps.db")]
        assert main(cache_args) == 0
        assert "cache: 0 hit(s), 2 miss(es)" in capsys.readouterr().out
        assert main(cache_args) == 0
        assert "cache: 2 hit(s), 0 miss(es)" in capsys.readouterr().out

    def test_json_round_trips(self, tmp_path, capsys):
        assert main(["--json"] + self.ARGS
                    + ["--db", str(tmp_path / "sweeps.db")]) == 0
        data = json.loads(capsys.readouterr().out)
        sweep = SweepResult.from_dict(data)
        assert sweep.labels() == ["BS_64", "BS_256"]
        assert sweep.results["BS_64"].cycles > 0
        assert sweep.to_dict() == data

    def test_json_designs_mode_has_baseline(self, capsys):
        assert main(["--json", "sweep", "Mp3d", "--mode", "designs",
                     "--bits", "64", "--threads", "4", "--units", "1",
                     "--no-cache"]) == 0
        sweep = SweepResult.from_dict(json.loads(capsys.readouterr().out))
        assert sweep.baseline_label == "Perfect"
        assert sweep.speedup("Perfect") == pytest.approx(1.0)


class TestLintCommand:
    def test_clean_paths_exit_zero(self, tmp_path, capsys):
        good = tmp_path / "wl.py"
        good.write_text("def p(self, i, rng):\n"
                        "    yield Section(ops=[], lock=self.l)\n")
        assert main(["lint", str(good)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "wl.py"
        bad.write_text("def p(self, i, rng):\n"
                       "    yield Section(ops=[Op.incr(self.w)])\n")
        assert main(["lint", str(bad)]) == 1
        assert "VR001" in capsys.readouterr().out

    def test_text_format_lines(self, tmp_path, capsys):
        bad = tmp_path / "wl.py"
        bad.write_text("x = random.Random()\n")
        assert main(["lint", str(bad)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{bad}:1: VR002 random.Random() without a seed is "
            "irreproducible [fix: seed it from the workload: "
            "random.Random(self.seed ^ <salt>)]",
            "lint: 1 finding(s)",
        ]

    def test_format_json(self, tmp_path, capsys):
        bad = tmp_path / "wl.py"
        bad.write_text("def p(self, i, rng):\n"
                       "    t = time.time()\n"
                       "    yield 1\n")
        assert main(["lint", "--format", "json", str(bad)]) == 1
        findings = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in findings] == ["VR004"]
        assert findings[0]["path"].endswith("wl.py")
        # The same item shape as `repro analyze --format json`.
        assert list(findings[0]) == ["path", "line", "rule", "message",
                                     "fixit", "context", "baselined"]
        assert findings[0]["context"] == "p"

    def test_format_json_clean_is_empty_list(self, tmp_path, capsys):
        good = tmp_path / "wl.py"
        good.write_text("x = 1\n")
        assert main(["lint", "--format", "json", str(good)]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_self_lint_on_simulator_source_is_clean(self, capsys):
        assert main(["lint", "--self"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_self_lint_explicit_path(self, tmp_path, capsys):
        bad = tmp_path / "proc.py"
        bad.write_text("def run(self):\n"
                       "    t = time.time()\n"
                       "    yield 1\n")
        assert main(["lint", "--self", "--format", "json",
                     str(bad)]) == 1
        findings = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in findings] == ["SR002"]


class TestMissingPaths:
    """A mistyped path is a usage error, never a silent pass."""

    @pytest.mark.parametrize("argv", [
        ["lint"], ["lint", "--self"], ["analyze"],
        ["analyze", "--baseline", "ANALYSIS_BASELINE.json"],
    ], ids=["lint", "lint-self", "analyze", "analyze-baseline"])
    def test_missing_path_exits_two(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "no" / "such")
        assert main(argv + [missing]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"{argv[0]}: cannot read {missing}: "
                                "No such file or directory\n")
        assert captured.out == ""


class TestMcCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["mc", "--fabric", "directory",
                     "--state-cap", "200"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "200 states" in out

    def test_violation_exits_one_with_counterexample(self, capsys):
        assert main(["mc", "--fabric", "snooping", "--mutate",
                     "no-scrub", "--state-cap", "500"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION: frame-tenancy" in out
        assert "counterexample (2 steps)" in out

    def test_json_output(self, capsys):
        assert main(["--json", "mc", "--fabric", "directory",
                     "--mutate", "no-scrub", "--state-cap", "500"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["clean"] is False
        assert data["violation"]["invariant"] == "frame-tenancy"
        assert data["counterexample"]["length"] == 2

    def test_dump_writes_counterexample(self, tmp_path, capsys):
        out = tmp_path / "cx.json"
        assert main(["mc", "--fabric", "directory", "--mutate",
                     "no-scrub", "--state-cap", "500",
                     "--dump", str(out)]) == 1
        data = json.loads(out.read_text())
        assert data["invariant"] == "frame-tenancy"

    def test_unknown_mutation_exits_two(self, capsys):
        assert main(["mc", "--mutate", "bogus"]) == 2
        assert "unknown mutation" in capsys.readouterr().err

    def test_invalid_config_exits_two(self, capsys):
        assert main(["mc", "--cores", "9"]) == 2


class TestServiceParser:
    def test_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9001", "--workers", "4",
             "--db", "/tmp/x.db", "--drain-timeout", "5"])
        assert args.port == 9001
        assert args.workers == 4
        assert args.db == "/tmp/x.db"
        assert args.drain_timeout == 5.0
        assert callable(args.fn)

    def test_serve_no_cache_still_parses(self):
        # A documented no-op kept for scripts that pass it.
        args = build_parser().parse_args(["serve", "--no-cache"])
        assert args.no_cache
        assert args.db is None  # the default store, resolved at start

    def test_submit_shares_sweep_spec_arguments(self):
        args = build_parser().parse_args(
            ["submit", "Mp3d", "--mode", "figure4", "--threads", "4",
             "--units", "1", "--priority", "3", "--wait",
             "--url", "http://127.0.0.1:9999"])
        assert args.workload == "Mp3d"
        assert args.mode == "figure4"
        assert args.priority == 3
        assert args.wait
        assert args.url == "http://127.0.0.1:9999"

    def test_jobs_arguments(self):
        args = build_parser().parse_args(
            ["jobs", "j000001-aaaa", "--results"])
        assert args.job_id == "j000001-aaaa"
        assert args.results
        listing = build_parser().parse_args(["jobs", "--state", "done"])
        assert listing.job_id is None
        assert listing.state == "done"

    def test_cache_arguments(self):
        args = build_parser().parse_args(
            ["cache", "prune", "--max-entries", "100"])
        assert args.action == "prune"
        assert args.max_entries == 100


class TestServiceCommands:
    def test_submit_unknown_workload_exits_two(self, capsys):
        assert main(["submit", "Nope", "--url",
                     "http://127.0.0.1:1"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_submit_unreachable_server_exits_one(self, capsys):
        assert main(["submit", "Mp3d", "--threads", "2", "--units", "1",
                     "--url", "http://127.0.0.1:9"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_jobs_unreachable_server_exits_one(self, capsys):
        assert main(["jobs", "--url", "http://127.0.0.1:9"]) == 1
        assert "cannot reach" in capsys.readouterr().err


class TestCacheCommand:
    def _warm(self, db, sizes):
        return main(["sweep", "Mp3d", "--mode", "sizes", "--sizes"]
                    + [str(s) for s in sizes]
                    + ["--threads", "2", "--units", "1", "--db", str(db)])

    def test_stats(self, tmp_path, capsys):
        db = tmp_path / "sweeps.db"
        assert self._warm(db, [64, 256]) == 0
        capsys.readouterr()
        assert main(["--json", "cache", "stats", "--db", str(db)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2
        assert stats["bytes"] > 0

    def test_stats_counts_the_write_ahead_log(self, tmp_path, capsys):
        """While a server holds the store, recent commits are in -wal."""
        db = tmp_path / "sweeps.db"
        held = RunRepository(db)  # a running server's connection
        try:
            assert self._warm(db, [64, 256]) == 0
            capsys.readouterr()
            assert main(["--json", "cache", "stats", "--db", str(db)]) == 0
            stats = json.loads(capsys.readouterr().out)
            wal = os.path.getsize(f"{db}-wal")
            assert wal > 0
            assert stats["bytes"] == os.path.getsize(db) + wal
        finally:
            held.close()

    def test_prune_to_cap(self, tmp_path, capsys):
        db = tmp_path / "sweeps.db"
        assert self._warm(db, [64, 256, 2048]) == 0
        capsys.readouterr()
        assert main(["--json", "cache", "prune", "--max-entries", "1",
                     "--db", str(db)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"db": str(db), "before": 3,
                          "removed": 2, "entries": 1}

    def test_prune_requires_cap(self, tmp_path, capsys):
        assert main(["cache", "prune",
                     "--db", str(tmp_path / "sweeps.db")]) == 2
        assert "--max-entries" in capsys.readouterr().err

    def test_prune_rejects_negative_cap(self, tmp_path, capsys):
        db = tmp_path / "sweeps.db"
        assert self._warm(db, [64]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(["cache", "prune", "--max-entries", "-1", "--db", str(db)])
        assert info.value.code == 2
        assert "--max-entries" in capsys.readouterr().err
        assert main(["--json", "cache", "stats", "--db", str(db)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 1

    def test_default_store_follows_cache_dir_env(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["--json", "cache", "stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["db"] == str(tmp_path / "sweeps.db")
