"""Protocol-conformance analyzer: extraction, spec, fusion, CLI.

Covers the static half (transition-table extraction from the three
fabrics, PC001-PC004 conformance checking, table JSON stability), the
dynamic half (model-checker coverage fusion via the checker observer),
the callgraph delegation step the extractor leans on, and the
``repro analyze --protocol`` CLI surface.
"""

import ast
import json
import os

import pytest

from repro.analysis.callgraph import Project, parse_module
from repro.analysis.engine import analyze_paths, build_project
from repro.analysis.protocol import (check_extraction, extract_tables,
                                     profile_of, tables_json)
from repro.analysis.protospec import (HANDLERS, REQUIRED,
                                      SPLICE_HELPERS, STICKY_PROFILES,
                                      fabric_kind_of)
from repro.cli import main
from repro.mc import (ModelConfig, TransitionCoverage, check,
                      compare_coverage)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(REPO, "tests", "analysis_corpus")
TABLES_DIR = os.path.join(REPO, "docs", "protocol_tables")


@pytest.fixture(scope="module")
def extractions():
    return extract_tables(build_project())


def _by_kind(extractions):
    return {e.kind: e for e in extractions}


# -- extraction ---------------------------------------------------------

def test_all_three_fabrics_extract_nonempty_tables(extractions):
    kinds = _by_kind(extractions)
    assert set(kinds) == {"directory", "snooping", "multichip"}
    for extraction in kinds.values():
        assert extraction.table.transitions, extraction.kind


def test_directory_key_space_is_exhaustive(extractions):
    table = _by_kind(extractions)["directory"].table
    assert set(table.keys()) == set(REQUIRED["directory"])
    assert len(table.keys()) == 13


def test_snooping_and_multichip_key_spaces(extractions):
    kinds = _by_kind(extractions)
    assert set(kinds["snooping"].table.keys()) == \
        set(REQUIRED["snooping"])
    assert set(kinds["multichip"].table.keys()) == \
        set(REQUIRED["multichip"])
    assert len(kinds["snooping"].table.keys()) == 7
    assert len(kinds["multichip"].table.keys()) == 13


def test_real_fabrics_have_no_conformance_findings(extractions):
    findings = []
    for extraction in extractions:
        findings.extend(check_extraction(extraction))
    assert findings == []


def test_real_fabrics_have_no_dead_arms(extractions):
    for extraction in extractions:
        assert extraction.dead_arms == [], extraction.kind


def test_extracted_profiles_match_declared_spec(extractions):
    for extraction in extractions:
        declared = STICKY_PROFILES[extraction.kind]
        for key, transition in extraction.table.transitions.items():
            if key in declared:
                assert profile_of(transition) == declared[key], \
                    (extraction.kind, key)


# -- satellite 1: interprocedural delegation ----------------------------

def test_directory_broadcast_transitions_route_through_helper(
        extractions):
    """The broadcast variant only exists because the extractor follows
    ``self._broadcast_check(...)`` one level down."""
    table = _by_kind(extractions)["directory"].table
    for key, transition in table.transitions.items():
        stimulus, variant, _outcome = key
        if variant == "broadcast":
            assert "_broadcast_check" in transition.handlers, key
        if variant == "targeted":
            assert "_targeted_check" in transition.handlers, key


def test_multichip_l2_evict_routes_through_chip_helper(extractions):
    table = _by_kind(extractions)["multichip"].table
    transition = table.transitions[("L2_EVICT", "-", "done")]
    assert "_chip_l2_victimized" in transition.handlers


def test_value_counter_bumps_are_effects(extractions):
    """``self._c_x.value += 1`` in a handler, and ``c_fwd.value += 1``
    through a local bound to ``self._c_fwd`` in a summarized helper
    (``CoherenceFabric._check``), are ``ctr:`` effects like ``.add()``."""
    kinds = _by_kind(extractions)
    for key, transition in kinds["directory"].table.transitions.items():
        stimulus, _variant, outcome = key
        if stimulus not in ("GETS", "GETM"):
            continue
        effects = transition.effect_union
        assert {"ctr:_c_requests", "ctr:_c_fwd"} <= effects, key
        assert ("ctr:_c_nacks" in effects) == (outcome == "nack"), key
        assert ("ctr:_c_mem" in effects) == (outcome == "grant"), key
    for key, transition in kinds["multichip"].table.transitions.items():
        if key[0] in ("GETS", "GETM"):
            assert "ctr:_c_fwd" in transition.effect_union, key


#: A toy directory fabric whose routes and port calls go through locals
#: bound to them, on a handler path and in a summarized helper.
ALIASED_CALLS_FABRIC = '''
class CoherenceResult:
    def __init__(self, granted, grant_state=None):
        self.granted = granted
        self.grant_state = grant_state


class AliasedDirectoryFabric:
    def request(self, requester_core, requester_thread, requester_ts,
                block_addr, is_write, asid):
        to_core = self.network.bank_to_core
        if self._conflicts(block_addr):
            to_core(0, requester_core, "NACK")
            return CoherenceResult(granted=False)
        self._forward(block_addr)
        to_core(0, requester_core, "DATA")
        return CoherenceResult(granted=True, grant_state="S")

    def _forward(self, block_addr):
        to_core = self.network.bank_to_core
        for port in self.ports:
            invalidate = port.invalidate_block
            to_core(0, port.core_id, "fwd")
            invalidate(block_addr)

    def l1_evicted(self, core_id, block_addr, state, transactional):
        pass
'''


def test_aliased_routes_and_port_calls_are_effects():
    """``to_core = self.network.bank_to_core; to_core(bank, t, "fwd")``
    records ``msg:fwd`` like the attribute call, and a port method
    called through a local records its ``call:`` effect."""
    project = Project([parse_module("aliased_toy.py",
                                    ALIASED_CALLS_FABRIC)])
    (extraction,) = extract_tables(project)
    table = extraction.table.transitions
    assert "msg:NACK" in table[("GETS", "targeted", "nack")].effect_union
    assert {"msg:DATA", "msg:fwd", "call:invalidate_block"} <= \
        table[("GETS", "targeted", "grant")].effect_union


def test_callgraph_resolves_one_level_of_self_delegation():
    project = build_project()
    for module in project.modules:
        if module.path.endswith(os.path.join("coherence",
                                             "directory.py")):
            break
    else:
        pytest.fail("directory module not parsed")
    cls = module.classes["DirectoryFabric"]
    request = next(f for f in cls.methods.values()
                   if f.name == "request")
    resolved = {target.name for node in ast.walk(request.node)
                if isinstance(node, ast.Call)
                for target in [project.resolve_method_call(node, cls)]
                if target is not None}
    assert {"_broadcast_check", "_targeted_check",
            "_apply_grant"} <= resolved


# -- spec helpers -------------------------------------------------------

def test_fabric_kind_of_requires_handler_markers():
    # One marker method is not enough to call a class a fabric.
    assert fabric_kind_of("OtherDirectoryThing", {"request"}) is None
    assert fabric_kind_of(
        "ToyDirectory", {"request", "l1_evicted"}) == "directory"
    assert fabric_kind_of(
        "ChipFabric", {"request", "scrub_block"}) == "multichip"
    # Markers without a recognizable kind name stay unclassified.
    assert fabric_kind_of(
        "MysteryFabric", {"request", "l1_evicted"}) is None


def test_spec_tables_are_internally_consistent():
    for kind, required in REQUIRED.items():
        declared = STICKY_PROFILES[kind]
        for key in declared:
            assert key in required, (kind, key)
    assert "_broadcast_check" in SPLICE_HELPERS
    for kind in ("directory", "snooping", "multichip"):
        assert any(spec.name == "request" for spec in HANDLERS[kind])


# -- corpus -------------------------------------------------------------

def _corpus_rules(name):
    path = os.path.join(CORPUS_DIR, name)
    return sorted({f.rule for f in analyze_paths([path])})


def test_corpus_dead_arm_is_pc002_only():
    assert _corpus_rules("proto_toy_dead_arm.py") == ["PC002"]


def test_corpus_obligation_drop_is_pc004_only():
    assert _corpus_rules("proto_toy_obligation_drop.py") == ["PC004"]


# -- committed tables ---------------------------------------------------

def test_committed_tables_match_extraction(extractions):
    current = tables_json(extractions)
    for kind, payload in current.items():
        path = os.path.join(TABLES_DIR, f"{kind}.json")
        with open(path, encoding="utf-8") as handle:
            committed = json.load(handle)
        assert committed == payload, \
            f"{path} is stale: regenerate with " \
            "repro analyze --protocol --dump-table docs/protocol_tables"


def test_table_json_is_deterministic(extractions):
    assert tables_json(extractions) == \
        tables_json(extract_tables(build_project()))


# -- model-checker fusion -----------------------------------------------

def test_directory_fusion_has_no_unextracted_transitions(extractions):
    coverage = TransitionCoverage("directory")
    result = check(ModelConfig(fabric="directory"), state_cap=2000,
                   observer=coverage)
    assert result.clean
    assert coverage.observed > 0
    table = _by_kind(extractions)["directory"].table
    report = compare_coverage("directory", set(table.keys()), coverage)
    assert report.unextracted == []
    assert report.covered  # the bound exercises real transitions
    assert report.clean


def test_snooping_fusion_classifies_snoop_requests(extractions):
    coverage = TransitionCoverage("snooping")
    result = check(ModelConfig(fabric="snooping"), state_cap=2000,
                   observer=coverage)
    assert result.clean
    table = _by_kind(extractions)["snooping"].table
    report = compare_coverage("snooping", set(table.keys()), coverage)
    assert report.unextracted == []
    assert ("GETS", "snoop", "grant") in set(report.covered)


def test_coverage_report_roundtrip():
    coverage = TransitionCoverage("directory")
    coverage.exercised = {("GETS", "targeted", "grant"),
                          ("GETM", "phantom", "grant")}
    report = compare_coverage(
        "directory",
        {("GETS", "targeted", "grant"), ("SCRUB", "-", "done")},
        coverage)
    assert report.unextracted == [("GETM", "phantom", "grant")]
    assert report.unexercised == [("SCRUB", "-", "done")]
    assert not report.clean
    payload = report.to_dict()
    assert payload["unextracted"] == [["GETM", "phantom", "grant"]]
    assert "UNEXTRACTED" in report.render()


# -- CLI ----------------------------------------------------------------

def test_cli_protocol_clean_exit_zero(capsys):
    assert main(["analyze", "--protocol"]) == 0
    out = capsys.readouterr().out
    assert "no conformance findings" in out
    assert "13 transition(s)" in out


def test_cli_protocol_json_payload(capsys):
    assert main(["analyze", "--protocol", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["tables"]) == {"directory", "snooping",
                                      "multichip"}
    assert payload["findings"] == []


def test_cli_protocol_corpus_convicts(capsys):
    # PC001 and PC003 are convicted on the real fabrics, with the known
    # bugs spliced in (tests/test_mutation_matrix.py).
    assert main(["analyze", "--protocol", CORPUS_DIR]) == 1
    out = capsys.readouterr().out
    for rule in ("PC002", "PC004"):
        assert rule in out


def test_cli_coverage_requires_protocol(capsys):
    assert main(["analyze", "--coverage", "directory"]) == 2
    assert "--protocol" in capsys.readouterr().err


def test_cli_protocol_dump_table(tmp_path, capsys):
    out_dir = str(tmp_path / "tables")
    assert main(["analyze", "--protocol", "--dump-table",
                 out_dir]) == 0
    capsys.readouterr()
    for kind in ("directory", "snooping", "multichip"):
        path = os.path.join(out_dir, f"{kind}.json")
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["schema"] == 1
        assert payload["fabric"] == kind


def test_cli_protocol_coverage_fusion(capsys):
    assert main(["analyze", "--protocol", "--coverage", "directory",
                 "--state-cap", "1500"]) == 0
    out = capsys.readouterr().out
    assert "exercised by the model checker" in out
    assert "UNEXTRACTED" not in out


# -- satellite 2: baseline exit codes -----------------------------------

def test_cli_missing_baseline_file_exits_two(capsys):
    assert main(["analyze", CORPUS_DIR, "--baseline",
                 "/nonexistent/baseline.json"]) == 2
    err = capsys.readouterr().err
    assert "baseline" in err.lower()


def test_cli_empty_baseline_loads_and_convicts(tmp_path, capsys):
    baseline = tmp_path / "empty.json"
    baseline.write_text('{"findings": []}')
    assert main(["analyze", CORPUS_DIR, "--baseline",
                 str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "0 baselined" in out


def test_cli_unwritable_update_baseline_exits_two(capsys):
    assert main(["analyze", CORPUS_DIR, "--update-baseline",
                 "--baseline", "/no-such-dir/baseline.json"]) == 2
    err = capsys.readouterr().err
    assert "cannot write baseline" in err


def test_cli_protocol_baseline_roundtrip(tmp_path, capsys):
    baseline = str(tmp_path / "proto.json")
    assert main(["analyze", "--protocol", CORPUS_DIR,
                 "--update-baseline", "--baseline", baseline]) == 0
    capsys.readouterr()
    assert main(["analyze", "--protocol", CORPUS_DIR,
                 "--baseline", baseline]) == 0
    out = capsys.readouterr().out
    assert "0 new" in out
