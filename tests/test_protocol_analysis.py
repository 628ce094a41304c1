"""The observed protocol tables (:mod:`repro.mc.tables`).

* ``docs/protocol_tables/`` holds each fabric's whole key space,
  satisfies the paper's contract (:data:`repro.mc.tables.CONTRACT`)
  and sets exactly the obligations the contract declares;
* the recorder keys and diffs what it sees: a scripted run, the snooping
  variant, writes that cancel within one transition, JSON that does not
  depend on the run;
* ``repro analyze``'s findings-baseline exit codes.

``tests/test_mc_matrix.py`` records every tier-1 row: a row without a
mutation must observe nothing outside the committed tables, and the
contract must reject what each ``no-scrub`` conviction row observes.
"""

import os

import pytest

from repro.cli import main
from repro.mc import ModelConfig, ProtocolModel, TransitionRecorder, check
from repro.mc.tables import (CONTRACT, name, outside, read_table,
                             violations, write_table)
from repro.obs.events import TAXONOMY

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(REPO, "tests", "analysis_corpus")
TABLES_DIR = os.path.join(REPO, "docs", "protocol_tables")

FABRICS = ("directory", "snooping", "multichip")


@pytest.fixture(scope="module")
def committed():
    return {fabric: read_table(TABLES_DIR, fabric) for fabric in FABRICS}


def key_space(variants):
    """Every request key over ``variants``, plus the notifications."""
    return {(stimulus, variant, outcome)
            for stimulus in ("GETS", "GETM") for variant in variants
            for outcome in ("grant", "nack")} | {
        ("L1_EVICT", "tx", "done"), ("L1_EVICT", "plain", "done")}


# -- the committed tables ------------------------------------------------

def test_directory_key_space_is_exhaustive(committed):
    """RELOCATE is the one directory transition no matrix row reaches
    (tests/test_directory.py pins it)."""
    expected = key_space(("targeted", "broadcast")) | {
        ("L2_EVICT", "-", "done"), ("SCRUB", "-", "done")}
    assert len(expected) == 12
    assert set(CONTRACT["directory"]) == expected
    assert set(committed["directory"]) == expected


def test_snooping_and_multichip_key_spaces(committed):
    snooping = key_space(("snoop",)) | {("SCRUB", "-", "done")}
    multichip = key_space(("intra", "inter")) | {
        ("L2_EVICT", "-", "done"), ("SCRUB", "-", "done")}
    assert (len(snooping), len(multichip)) == (7, 12)
    assert set(CONTRACT["snooping"]) == set(committed["snooping"]) \
        == snooping
    assert set(CONTRACT["multichip"]) == set(committed["multichip"]) \
        == multichip


def test_all_three_fabrics_extract_nonempty_tables(committed):
    """A short exploration of each fabric records a table, and what it
    records is a part of that fabric's committed table."""
    for fabric in FABRICS:
        recorder = TransitionRecorder()
        check(ModelConfig(fabric=fabric), state_cap=300, observer=recorder)
        assert recorder.table, fabric
        assert outside(recorder.table, committed[fabric]) == [], fabric


def test_real_fabrics_have_no_conformance_findings(committed):
    for fabric in FABRICS:
        assert violations(fabric, committed[fabric]) == [], fabric


def test_extracted_profiles_match_declared_spec(committed):
    """The obligations each committed transition sets (a sticky core or
    chip, lost-info, check-all) are exactly the ones the contract
    declares: no transition sets one the paper's argument does not
    name."""
    obligations = {"core.sticky+", "chip.sticky+", "lost_info+",
                   "check_all+"}
    for fabric in FABRICS:
        for key, effects in committed[fabric].items():
            assert effects & obligations == \
                CONTRACT[fabric][key] & obligations, (fabric, key)


def test_spec_tables_are_internally_consistent():
    """The contract names only events the simulator emits and fields a
    fabric has: a misspelt effect could never be observed."""
    assert set(CONTRACT) == set(FABRICS)
    for fabric, keys in CONTRACT.items():
        for key, effects in keys.items():
            for effect in effects:
                if effect.startswith("coh."):
                    kind, _, state = effect.partition(":")
                    assert kind in TAXONOMY, (fabric, key, effect)
                    assert (kind == "coh.grant") == bool(state)
                elif not effect.startswith("l1:"):
                    assert effect[-1] in "+-", (fabric, key, effect)
                    assert effect[:-1] in (
                        "core.sticky", "chip.sticky", "lost_info",
                        "check_all"), (fabric, key, effect)


def test_directory_broadcast_transitions_emit_the_rebuild(committed):
    """Only a broadcast rebuilds: it alone emits ``coh.broadcast`` and
    clears lost-info."""
    for key, effects in committed["directory"].items():
        broadcast = key[1] == "broadcast"
        assert ("coh.broadcast" in effects) == broadcast, key
        assert ("lost_info-" in effects) == broadcast, key


def test_writes_that_cancel_within_a_transition_record_nothing(committed):
    """A broadcast grant sets check-all only when it NACKs and the grant
    then clears it: the net change is never ``check_all+``."""
    table = committed["directory"]
    for variant in ("broadcast", "targeted"):
        for stimulus in ("GETS", "GETM"):
            assert "check_all+" not in table[stimulus, variant, "grant"]
    assert "check_all+" in table["GETS", "broadcast", "nack"]


# -- the recorder --------------------------------------------------------

class Sink:
    """Collects the events one action emits."""

    def __init__(self):
        self.events = []

    def record(self, kind, **fields):
        self.events.append((kind, fields))


def recorded(model, actions):
    """Apply ``actions``, feeding the recorder what the checker would."""
    recorder = TransitionRecorder()
    for action in actions:
        before = model.encode()
        model.stats.recorder = sink = Sink()
        model.apply(action)
        recorder(model, action, sink.events, before, model.encode())
    return recorder.table


def test_recorder_reads_the_net_state_change():
    """A transactional reader loses its L2 copy: its chip directory keeps
    it as a sticky core and the memory directory a sticky chip."""
    model = ProtocolModel(ModelConfig(fabric="multichip"))
    table = recorded(model, [("begin", 0), ("read", 0, 0),
                             ("l2_evict", 0, 0)])
    assert set(table) == {("GETS", "inter", "grant"),
                          ("L2_EVICT", "-", "done")}
    assert table["GETS", "inter", "grant"] == {
        "coh.grant:EXCLUSIVE", "coh.request", "chip.owner+",
        "core.owner+", "l1:-->E", "l2+", "rights:-->M"}
    assert table["L2_EVICT", "-", "done"] == {
        "coh.l2_victim", "chip.owner-", "chip.sticky+", "core.owner-",
        "core.sticky+", "l1:E->-", "l2-", "rights:M->-"}


def test_recorder_classifies_snoop_requests():
    recorder = TransitionRecorder()
    result = check(ModelConfig(fabric="snooping"), state_cap=300,
                   observer=recorder)
    assert result.clean
    requests = {key for key in recorder.table
                if key[0] in ("GETS", "GETM")}
    assert ("GETS", "snoop", "grant") in requests
    assert {variant for _stimulus, variant, _outcome in requests} \
        == {"snoop"}


def test_table_json_is_deterministic(tmp_path):
    """Two recordings of one exploration write the same bytes, and a
    written table reads back unchanged."""
    written = []
    for run in ("first", "second"):
        recorder = TransitionRecorder()
        check(ModelConfig(cores=3, blocks=1), state_cap=400,
              observer=recorder)
        path = write_table(str(tmp_path / run), "directory",
                           recorder.table, ["3-cores"])
        with open(path, encoding="utf-8") as handle:
            written.append(handle.read())
        assert read_table(str(tmp_path / run), "directory") \
            == recorder.table
    assert written[0] == written[1]


def test_outside_names_unknown_keys_and_effects():
    committed = {("SCRUB", "-", "done"): frozenset({"l1:S->-"})}
    observed = {("SCRUB", "-", "done"): frozenset({"l1:S->-", "l2-"}),
                ("GETM", "phantom", "grant"): frozenset()}
    assert outside(observed, committed) == [
        "GETM/phantom/grant: not in the table",
        "SCRUB/-/done: l2- not in the table"]
    assert outside(committed, committed) == []
    assert name(("GETS", "targeted", "grant")) == "GETS/targeted/grant"


# -- repro analyze: baseline exit codes ----------------------------------

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


def test_cli_baseline_roundtrip(tmp_path, capsys):
    baseline = str(tmp_path / "corpus.json")
    assert main(["analyze", CORPUS_DIR, "--update-baseline",
                 "--baseline", baseline]) == 0
    capsys.readouterr()
    assert main(["analyze", CORPUS_DIR, "--baseline", baseline]) == 0
    out = capsys.readouterr().out
    assert "0 new" in out
