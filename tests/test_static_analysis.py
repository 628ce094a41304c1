"""Tests for the static analysis framework (``repro analyze``).

Covers: the seeded-defect corpus (every planted race/atomicity/deadlock
defect convicted with the right rule and nothing else), CFG and
reaching-definitions unit behaviour, the workload lockset pass, the
thread-safety pass, SARIF round-tripping, the findings baseline, the
lint scopes' pinned findings, the single loader (one parse per file),
output that does not depend on ``PYTHONHASHSEED``, and the
order-normalizing-wrapper skip in VR005/SR003.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import (analyze_paths, apply_baseline, findings_from_sarif,
                            load_baseline, render_text, rules_catalog,
                            save_baseline, to_sarif)
from repro.analysis.callgraph import Project, parse_module
from repro.analysis.cfg import CFG, ReachingDefs
from repro.analysis.findings import Finding
from repro.analysis.lint import SCOPES, lint_source
from repro.analysis.locksets import analyze_workload_module
from repro.analysis.threads import analyze_threads
from repro.cli import main

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "analysis_corpus")


def _func(source: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            return node
    raise AssertionError("no function in source")


# ---------------------------------------------------------------------------
# Seeded-defect corpus
# ---------------------------------------------------------------------------

def _expected_rules() -> dict:
    expected = {}
    for name in sorted(os.listdir(CORPUS_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as fh:
            rules = set()
            for line in fh:
                if line.startswith("# expect:"):
                    rules.update(line.split(":", 1)[1].split())
        expected[name] = rules
    return expected


def test_corpus_has_at_least_six_seeded_defects():
    expected = _expected_rules()
    assert len(expected) >= 6
    # The corpus spans all four concurrency rules.
    assert set().union(*expected.values()) == {
        "RC001", "RC002", "RC003", "RC004"}


def test_every_corpus_defect_convicted_with_the_right_rule():
    expected = _expected_rules()
    findings = analyze_paths([CORPUS_DIR])
    by_file: dict = {name: set() for name in expected}
    for finding in findings:
        by_file.setdefault(os.path.basename(finding.path), set()).add(
            finding.rule)
    assert by_file == expected


def test_corpus_findings_carry_context_and_fixit():
    for finding in analyze_paths([CORPUS_DIR]):
        assert finding.context, finding
        assert finding.fixit, finding


# ---------------------------------------------------------------------------
# CFG / reaching definitions
# ---------------------------------------------------------------------------

def test_cfg_if_has_branch_and_join():
    func = _func("""
        def f(x):
            a = 1
            if x:
                a = 2
            return a
    """)
    cfg = CFG(func)
    stmts = func.body
    assign, if_stmt, ret = stmts[0], stmts[1], stmts[2]
    assert cfg.block_of(assign) == cfg.block_of(if_stmt.test)
    then_assign = if_stmt.body[0]
    assert cfg.block_of(then_assign) != cfg.block_of(assign)
    assert cfg.element_reaches(assign, ret)
    assert cfg.element_reaches(then_assign, ret)
    assert not cfg.element_reaches(ret, assign)


def test_cfg_loop_back_edge_makes_later_reach_earlier():
    func = _func("""
        def f(n):
            total = 0
            for i in range(n):
                first = total
                total = first + i
            return total
    """)
    cfg = CFG(func)
    loop = func.body[1]
    first_stmt, second_stmt = loop.body[0], loop.body[1]
    assert cfg.element_reaches(first_stmt, second_stmt)
    # Around the back edge, the second statement reaches the first.
    assert cfg.element_reaches(second_stmt, first_stmt)
    ret = func.body[2]
    assert not cfg.element_reaches(ret, first_stmt)


def test_cfg_while_true_without_break_never_reaches_after():
    func = _func("""
        def f():
            while True:
                x = 1
            y = 2
    """)
    cfg = CFG(func)
    loop_body = func.body[0].body[0]
    after = func.body[1]
    assert not cfg.element_reaches(loop_body, after)


def test_reaching_defs_resolve_through_branches():
    func = _func("""
        def f(flag):
            ops = []
            if flag:
                ops = [1]
            use = ops
    """)
    cfg = CFG(func)
    defs = ReachingDefs(cfg)
    use_stmt = func.body[2]
    reaching = defs.resolve("ops", use_stmt)
    values = {ast.dump(d.value) for d in reaching}
    assert len(reaching) == 2  # both the [] and the [1] definitions
    assert any("Constant(value=1)" in v for v in values)


def test_reaching_defs_params_and_shadowing():
    func = _func("""
        def f(x):
            y = x
            x = 5
            z = x
    """)
    cfg = CFG(func)
    defs = ReachingDefs(cfg)
    y_stmt, x_stmt, z_stmt = func.body
    from repro.analysis.cfg import Param
    assert isinstance(defs.resolve("x", y_stmt)[0], Param)
    assert defs.resolve("x", z_stmt) == [x_stmt]


# ---------------------------------------------------------------------------
# Workload lockset pass
# ---------------------------------------------------------------------------

def _workload_findings(source: str):
    tree = ast.parse(textwrap.dedent(source))
    return analyze_workload_module(tree, "wl.py")


def test_lockset_thread_private_locations_are_exempt():
    findings = _workload_findings("""
        from repro.workloads.base import Op, Section

        class W:
            def program(self, thread_index, rng):
                yield Section(ops=[Op.incr(self.slots[thread_index])],
                              lock=self.lock_a)
                yield Section(ops=[Op.incr(self.slots[thread_index])],
                              lock=self.lock_b)
    """)
    assert findings == []


def test_lockset_resolves_ops_through_helpers():
    findings = _workload_findings("""
        from repro.workloads.base import Op, Section

        class W:
            def _build(self):
                return [Op.incr(self.shared)]

            def program(self, thread_index, rng):
                yield Section(ops=self._build(), lock=self.lock_a)
                yield Section(ops=self._build(), lock=self.lock_b)
    """)
    assert [f.rule for f in findings] == ["RC001"]
    assert "shared" in findings[0].message


def test_lockset_consistent_guards_are_clean():
    findings = _workload_findings("""
        from repro.workloads.base import Op, Section

        class W:
            def program(self, thread_index, rng):
                yield Section(ops=[Op.incr(self.shared)], lock=self.lock)
                yield Section(ops=[Op.load(self.shared)], lock=self.lock)
    """)
    assert findings == []


def test_rmw_ops_do_not_trigger_stale_read():
    findings = _workload_findings("""
        from repro.workloads.base import Op, Section

        class W:
            def program(self, thread_index, rng):
                yield Section(ops=[Op.load(self.shared)], lock=self.lock)
                yield Section(ops=[Op.incr(self.shared)], lock=self.lock)
    """)
    assert [f.rule for f in findings] == []


# ---------------------------------------------------------------------------
# Thread-safety pass
# ---------------------------------------------------------------------------

def _thread_findings(source: str):
    module = parse_module("svc.py", textwrap.dedent(source), name="svc")
    return analyze_threads(Project([module]))


THREADED_TEMPLATE = """
    import threading

    class S:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0
            self._thread = None

        def start(self):
            self._thread = threading.Thread(target=self._worker)
            self._thread.start()

        def _worker(self):
            {worker_body}

        def read(self):
            {reader_body}
"""


def test_threads_consistent_lock_is_clean():
    findings = _thread_findings(THREADED_TEMPLATE.format(
        worker_body="with self._lock:\n                self.count += 1",
        reader_body="with self._lock:\n                return self.count"))
    assert [f for f in findings if f.rule == "RC004"] == []


def test_threads_unguarded_mutation_is_convicted():
    findings = _thread_findings(THREADED_TEMPLATE.format(
        worker_body="self.count += 1",
        reader_body="return self.count"))
    rc004 = [f for f in findings if f.rule == "RC004"]
    assert len(rc004) == 1
    assert rc004[0].context == "S.count"


def test_threads_init_writes_are_exempt():
    # Only __init__ writes the attribute; the runtime methods read it.
    findings = _thread_findings(THREADED_TEMPLATE.format(
        worker_body="print(self.count)",
        reader_body="return self.count"))
    assert [f for f in findings if f.rule == "RC004"] == []


def test_threads_lock_order_cycle_detected():
    findings = _thread_findings("""
        import threading

        class S:
            def __init__(self):
                self.a = threading.Lock()
                self.b = threading.Lock()

            def fwd(self):
                with self.a:
                    with self.b:
                        pass

            def rev(self):
                with self.b:
                    with self.a:
                        pass
    """)
    rc003 = [f for f in findings if f.rule == "RC003"]
    assert len(rc003) == 1
    assert "S.a" in rc003[0].message and "S.b" in rc003[0].message


def test_threads_single_root_is_not_convicted():
    # No thread target and no second root: nothing to race with.
    findings = _thread_findings("""
        import threading

        class S:
            def __init__(self):
                self.count = 0

            def bump(self):
                self.count += 1
    """)
    assert [f for f in findings if f.rule == "RC004"] == []


# ---------------------------------------------------------------------------
# SARIF round-trip
# ---------------------------------------------------------------------------

def test_sarif_round_trip_preserves_findings():
    findings = analyze_paths([CORPUS_DIR])
    assert findings
    log = to_sarif(findings, rules_catalog())
    assert log["version"] == "2.1.0"
    # Serializable and schema-shaped.
    log = json.loads(json.dumps(log))
    back = findings_from_sarif(log)
    assert len(back) == len(findings)
    for original, restored in zip(findings, back):
        assert restored.rule == original.rule
        assert restored.line == original.line
        assert restored.message == original.message
        assert restored.context == original.context
        assert restored.fingerprint() == original.fingerprint()


def test_sarif_results_reference_driver_rules():
    findings = analyze_paths([CORPUS_DIR])
    log = to_sarif(findings, rules_catalog())
    driver = log["runs"][0]["tool"]["driver"]
    ids = [r["id"] for r in driver["rules"]]
    for result in log["runs"][0]["results"]:
        assert ids[result["ruleIndex"]] == result["ruleId"]
        assert result["partialFingerprints"]["reproAnalyze/v1"]


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

def test_baseline_round_trip_and_new_detection(tmp_path):
    findings = analyze_paths([CORPUS_DIR])
    path = str(tmp_path / "baseline.json")
    save_baseline(path, findings[:-1])
    baseline = load_baseline(path)
    marked, new = apply_baseline(findings, baseline)
    assert len(marked) == len(findings)
    assert [f.fingerprint() for f in new] == [findings[-1].fingerprint()]
    assert sum(1 for f in marked if f.baselined) == len(findings) - 1


def test_baseline_fingerprints_survive_line_shifts():
    a = Finding(path="src/repro/x.py", line=10, rule="RC004",
                message="m", fixit="f", context="C.attr")
    b = Finding(path="other/prefix/repro/x.py", line=99, rule="RC004",
                message="m", fixit="f", context="C.attr")
    assert a.fingerprint() == b.fingerprint()


def test_committed_baseline_covers_all_repo_findings():
    findings = analyze_paths([os.path.join("src", "repro")])
    baseline = load_baseline("ANALYSIS_BASELINE.json")
    _marked, new = apply_baseline(findings, baseline)
    assert new == [], render_text(new)


def test_cli_analyze_exit_codes(tmp_path, capsys):
    # New findings, no baseline: exit 1.
    assert main(["analyze", CORPUS_DIR]) == 1
    out = capsys.readouterr().out
    assert "0 baselined" in out
    # Everything baselined: exit 0.
    baseline = str(tmp_path / "b.json")
    assert main(["analyze", CORPUS_DIR, "--update-baseline",
                 "--baseline", baseline]) == 0
    capsys.readouterr()
    assert main(["analyze", CORPUS_DIR, "--baseline", baseline]) == 0
    out = capsys.readouterr().out
    assert "0 new" in out
    # Malformed baseline: exit 2.
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert main(["analyze", CORPUS_DIR, "--baseline", str(bad)]) == 2


def test_cli_analyze_sarif_is_valid_json(capsys):
    main(["analyze", CORPUS_DIR, "--format", "sarif"])
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    assert log["runs"][0]["results"]


# ---------------------------------------------------------------------------
# Lint scopes: pinned findings
# ---------------------------------------------------------------------------

DIRTY_WORKLOAD = """
import random
import time
from repro.workloads.base import Op, Section

def program(self, thread_index, rng):
    n = random.randint(1, 4)
    t0 = time.time()
    keys = {1, 2, 3}
    for k in keys:
        yield Section(ops=[Op.store(self.data[k], n)])
    while True:
        pass
"""

SUPPRESSED_WORKLOAD = """
from repro.workloads.base import Op, Section

def program(self, thread_index, rng):
    yield Section(ops=[Op.store(self.mine[thread_index], 1)])  \
# lint: disable=VR001
"""


SELF_SAMPLE = ("import random, time\n"
               "def proc(env):\n"
               "    t = time.time()\n"
               "    r = random.random()\n"
               "    yield t + r\n")


@pytest.mark.parametrize("source,scope,expected", [
    (DIRTY_WORKLOAD, "workload", [("VR002", 7), ("VR004", 8),
                                  ("VR005", 10), ("VR001", 11),
                                  ("VR003", 12)]),
    (SUPPRESSED_WORKLOAD, "workload", []),
    ("def broken(:\n", "workload", [("VR000", 1)]),
    ("x = 1\n", "workload", []),
    (SELF_SAMPLE, "self", [("SR002", 3), ("SR001", 4)]),
    ("def broken(:\n", "self", [("SR000", 1)]),
    ("x = 1\n", "self", []),
], ids=["dirty-workload", "suppressed-workload", "broken-workload",
        "clean-workload", "dirty-self", "broken-self", "clean-self"])
def test_lint_source_pinned_findings(source, scope, expected):
    findings = lint_source(source, "p.py", scope=scope)
    assert [(f.rule, f.line) for f in findings] == expected


def test_lint_scopes_hold_expected_rules():
    assert {scope: entry[0] for scope, entry in SCOPES.items()} == {
        "workload": "VR000", "self": "SR000"}
    catalog = rules_catalog()
    for rule_id in ("VR000", "VR005", "SR000", "SR003",
                    "RC001", "RC002", "RC003", "RC004"):
        assert rule_id in catalog


def test_analyze_parses_each_file_once(monkeypatch):
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, *args, **kwargs):
        parsed.append(kwargs.get("filename"))
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    analyze_paths([CORPUS_DIR])
    files = [os.path.join(CORPUS_DIR, name)
             for name in os.listdir(CORPUS_DIR) if name.endswith(".py")]
    assert sorted(parsed) == sorted(files)


def test_analyze_output_does_not_depend_on_hash_seed():
    # The two sections tie on RC001's majority guard, so the reported
    # line must not follow set-iteration order.
    target = os.path.join(CORPUS_DIR, "wl_inconsistent_lockset.py")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", target,
             "--format", "json"],
            env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 1, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# VR005/SR003: order-normalizing wrapper skip
# ---------------------------------------------------------------------------

def test_vr005_skips_names_rebound_through_sorted():
    source = textwrap.dedent("""
        def f(items):
            keys = {1, 2, 3}
            keys = sorted(keys)
            for k in keys:
                print(k)
    """)
    assert lint_source(source, "w.py") == []


def test_vr005_skips_in_module_ordering_wrappers():
    source = textwrap.dedent("""
        def ordered(values):
            return tuple(sorted(values))

        def f(items):
            keys = ordered({1, 2, 3})
            keys = {1} | keys if not keys else keys
            for k in keys:
                print(k)
    """)
    findings = lint_source(source, "w.py")
    assert [f.rule for f in findings] == []


def test_vr005_still_flags_plain_set_iteration():
    source = textwrap.dedent("""
        def f(items):
            keys = {1, 2, 3}
            for k in keys:
                print(k)
    """)
    assert [f.rule for f in lint_source(source, "w.py")] == \
        ["VR005"]


def test_sr003_skips_sorted_in_generators():
    source = textwrap.dedent("""
        def proc(env):
            pending = set(env)
            pending = sorted(pending)
            for item in pending:
                yield item
    """)
    assert lint_source(source, "s.py", scope="self") == []


def test_sr003_still_flags_unsorted_set_in_generators():
    source = textwrap.dedent("""
        def proc(env):
            pending = set(env)
            for item in pending:
                yield item
    """)
    assert [f.rule for f in
            lint_source(source, "s.py", scope="self")] == ["SR003"]
