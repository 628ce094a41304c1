"""The model-checking matrix (:mod:`repro.mc.matrix`), as tier-1 runs it.

* every tier-1 row reproduces its pinned outcome; CI's ``modelcheck``
  job runs the other rows (``python -m repro.mc.matrix``), and that
  runner fails on any row that does not reproduce;
* each row's published ``repro mc`` arguments run that row's config
  under its cap;
* ``docs/modelcheck.md`` publishes the table the matrix renders.

The conviction rows' pairs and ``docs/verification.md``'s ``repro mc``
column are checked in ``tests/test_mutation_matrix.py``.
"""

import os

import pytest

import repro.mc
from repro.cli import main
from repro.mc import Counterexample, ModelCheckResult, check, matrix
from repro.mc.checker import CounterexampleStep
from repro.mc.matrix import CI, ROWS, TIER1, Outcome, render, rows

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("row", rows(TIER1), ids=lambda row: row.name)
def test_row_reproduces(row):
    result = check(row.config, state_cap=row.state_cap)
    assert Outcome.of(result) == row.expected


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
        lambda mcfg, state_cap: pinned(by_run[(mcfg, state_cap)]))
    assert matrix.main(["--dump-dir", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"{row.name}.cx.json" for row in rows(CI) if row.violation)

    off = rows(CI)[-1]

    def one_transition_off(mcfg, state_cap):
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


def test_ci_runs_the_matrix():
    path = os.path.join(REPO, ".github", "workflows", "ci.yml")
    with open(path, encoding="utf-8") as handle:
        ci = handle.read()
    assert "python -m repro.mc.matrix --dump-dir mc-artifacts" in ci
    assert "path: mc-artifacts/" in ci
