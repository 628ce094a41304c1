"""The model-checking matrix (:mod:`repro.mc.matrix`), as tier-1 runs it.

* every tier-1 row reproduces its pinned outcome with the protocol
  recorder attached; CI's ``modelcheck`` job runs the other rows
  (``python -m repro.mc.matrix``), and that runner fails on any row that
  does not reproduce;
* what a tier-1 row without a mutation observes lies inside the
  committed ``docs/protocol_tables/``, and the paper's contract rejects
  what each ``no-scrub`` conviction row observes at ``SCRUB/-/done``;
* a ``sticky-discharge`` or ``eager-e-grant`` row observes nothing
  outside the committed table: an invariant convicts it, not a table;
* each row's published ``repro mc`` arguments run that row's config
  under its cap;
* ``docs/modelcheck.md`` publishes the table the matrix renders.

The conviction rows' pairs and ``docs/verification.md``'s ``repro mc``
column are checked in ``tests/test_mutation_matrix.py``.
"""

import functools
import json
import os

import pytest

import repro.mc
from repro.cli import main
from repro.mc import (Counterexample, ModelCheckResult, TransitionRecorder,
                      check, matrix)
from repro.mc.checker import CounterexampleStep
from repro.mc.matrix import CI, ROWS, TIER1, Outcome, render, rows
from repro.mc.tables import outside, read_table, violations

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLES_DIR = os.path.join(REPO, "docs", "protocol_tables")


@functools.lru_cache(maxsize=None)
def explored(row):
    """One recorded run of ``row``: its outcome and observed table."""
    recorder = TransitionRecorder()
    result = check(row.config, state_cap=row.state_cap, observer=recorder)
    return Outcome.of(result), recorder.table


def named(row):
    return row.name


@pytest.mark.parametrize("row", rows(TIER1), ids=named)
def test_row_reproduces(row):
    outcome, _table = explored(row)
    assert outcome == row.expected


@pytest.mark.parametrize(
    "row", [row for row in rows(TIER1) if row.config.mutation is None],
    ids=named)
def test_row_observes_only_the_committed_table(row):
    _outcome, table = explored(row)
    assert outside(table, read_table(TABLES_DIR, row.config.fabric)) == []


@pytest.mark.parametrize(
    "row", [row for row in rows(TIER1) if row.config.mutation == "no-scrub"],
    ids=named)
def test_contract_rejects_the_no_scrub_table(row):
    """Without the scrub a reused frame keeps its L1 copies: the
    check is seen failing on the transition it guards."""
    _outcome, table = explored(row)
    assert ("SCRUB", "-", "done") in table
    assert "SCRUB/-/done: never l1:S->-" in violations(row.config.fabric,
                                                       table)


@pytest.mark.parametrize(
    "row", [row for row in rows(TIER1)
            if row.config.mutation in ("sticky-discharge", "eager-e-grant")],
    ids=named)
def test_a_dropped_guard_is_convicted_by_an_invariant(row):
    """A sticky discharge or E grant that skips its signature guard
    does nothing the real fabric never does: the row observes no key or
    effect outside the committed table, and the ``read-coverage`` or
    ``tm-isolation`` invariant convicts it instead."""
    outcome, table = explored(row)
    assert outside(table, read_table(TABLES_DIR, row.config.fabric)) == []
    assert outcome.violation == {"sticky-discharge": "read-coverage",
                                 "eager-e-grant": "tm-isolation"}[
                                     row.config.mutation]


def test_rows_are_well_formed():
    """Each row runs in exactly one job, has a name of its own, and
    pins a counterexample length exactly when it pins a violation."""
    assert {row.where for row in ROWS} == {TIER1, CI}
    names = [row.name for row in ROWS]
    assert len(set(names)) == len(names)
    for row in ROWS:
        assert (row.violation is None) == (row.steps is None), row.name


def test_published_arguments_run_the_row(monkeypatch, capsys):
    ran = []

    def fake_check(mcfg, state_cap):
        ran.append((mcfg, state_cap))
        return ModelCheckResult(config=mcfg, states=1, transitions=0,
                                depth=0, fixed_point=True,
                                state_cap=state_cap)

    monkeypatch.setattr(repro.mc, "check", fake_check)
    for row in ROWS:
        assert main(["mc", *row.arguments().split()]) == 0
    capsys.readouterr()
    assert ran == [(row.config, row.state_cap) for row in ROWS]


def test_docs_publish_the_matrix():
    path = os.path.join(REPO, "docs", "modelcheck.md")
    with open(path, encoding="utf-8") as handle:
        doc = handle.read()
    table = render()
    assert table in doc, \
        f"docs/modelcheck.md's matrix is stale; it should read:\n{table}"


def pinned(row):
    """A result that reproduces ``row``, as the CI runner compares it."""
    cx = violation = None
    if row.violation is not None:
        violation = (row.violation, "pinned")
        cx = Counterexample(row.violation, "pinned",
                            [CounterexampleStep(i + 1, {}, "step")
                             for i in range(row.steps)])
    return ModelCheckResult(config=row.config, states=row.states,
                            transitions=row.transitions, depth=row.depth,
                            fixed_point=row.fixed_point,
                            state_cap=row.state_cap, violation=violation,
                            counterexample=cx)


def test_ci_runner_fails_unless_every_row_reproduces(monkeypatch, tmp_path,
                                                     capsys):
    by_run = {(row.config, row.state_cap): row for row in rows(CI)}
    monkeypatch.setattr(
        matrix, "check",
        lambda mcfg, state_cap, observer: pinned(by_run[(mcfg, state_cap)]))
    assert matrix.main(["--dump-dir", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"{row.name}.cx.json" for row in rows(CI) if row.violation)

    off = rows(CI)[-1]

    def one_transition_off(mcfg, state_cap, observer):
        result = pinned(by_run[(mcfg, state_cap)])
        if mcfg == off.config:
            result.transitions += 1
        return result

    monkeypatch.setattr(matrix, "check", one_transition_off)
    capsys.readouterr()
    assert matrix.main([]) == 1
    out = capsys.readouterr().out
    assert f"MISMATCH {off.name} " in out
    assert f"{len(rows(CI)) - 1} of {len(rows(CI))} row(s) reproduced" in out


def test_tables_runner_records_every_row_without_a_mutation(
        monkeypatch, tmp_path, capsys):
    """``--tables`` adds the tier-1 rows without a mutation, records
    exactly the rows without one, and writes a table per fabric naming
    the rows it unions."""
    observed = {}

    def fake_check(mcfg, state_cap, observer):
        row = next(row for row in ROWS
                   if (row.config, row.state_cap) == (mcfg, state_cap))
        observed[row.name] = observer is not None
        return pinned(row)

    monkeypatch.setattr(matrix, "check", fake_check)
    assert matrix.main(["--tables", str(tmp_path)]) == 0
    assert "row(s) reproduced" in capsys.readouterr().out
    expected = [row for row in ROWS
                if row.where == CI or row.config.mutation is None]
    assert observed == {row.name: row.config.mutation is None
                        for row in expected}
    for fabric in ("directory", "snooping", "multichip"):
        with open(tmp_path / f"{fabric}.json", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["rows"] == [row.name for row in expected
                                   if row.config.fabric == fabric
                                   and row.config.mutation is None]


def test_ci_runs_the_matrix():
    """CI runs the matrix, records the tables into the committed
    directory and fails when they differ."""
    path = os.path.join(REPO, ".github", "workflows", "ci.yml")
    with open(path, encoding="utf-8") as handle:
        ci = handle.read()
    assert "python -m repro.mc.matrix --dump-dir mc-artifacts" in ci
    assert "--tables docs/protocol_tables" in ci
    assert "git diff --exit-code docs/protocol_tables" in ci
    assert "path: mc-artifacts/" in ci
