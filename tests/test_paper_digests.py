"""Every number ``repro paper --scale quick`` prints is pinned.

All experiments run at ``QUICK`` scale with the default seed and
``jobs=1``. The committed ``paper_digests.json`` holds:

* ``cells``: the result digest of every simulation cell, by experiment
  and cell name, captured where every cell runs
  (:meth:`repro.harness.sweep.Cell.run`) under the name its batch
  (:func:`repro.harness.sweep.execute_tasks`) gives it;
* ``rows``: one digest of each experiment's ``--json`` rows, which also
  covers the experiments that run no cell (``table1``, ``table4``,
  ``ext-classic``, ``ext-hashed``).

A change that is meant to move results rewrites the table with
``PYTHONPATH=src python -m tests.test_paper_digests`` and says so.
"""

import io
import json
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from repro.cli import main
from repro.harness import experiments as E
from repro.harness import sweep
from repro.svc.repository import result_digest

TABLE = Path(__file__).with_name("paper_digests.json")


def run_quick_paper():
    """Run ``repro --json paper --scale quick --jobs 1``.

    Returns the exit status, the printed payload, every experiment's cell
    names in run order, and the digests in the layout of :data:`TABLE`.
    """
    current = []
    keys = {}
    cells = {}
    names = {}  # id(cell) -> its name in the running batch
    run, execute = sweep.Cell.run, sweep.execute_tasks

    def naming_execute(named_cells, *args, **kwargs):
        named_cells = list(named_cells)
        names.update((id(cell), name) for name, cell in named_cells)
        return execute(named_cells, *args, **kwargs)

    def recording_run(cell):
        result = run(cell)
        name = names[id(cell)]
        keys.setdefault(current[-1], []).append(name)
        cells.setdefault(current[-1], {})[name] = result_digest(
            result.to_dict())
        return result

    def named(name, run):
        def run_named(scale, seed, jobs):
            current.append(name)
            return run(scale, seed, jobs)
        return run_named

    experiments = {name: (named(name, run), render, check)
                   for name, (run, render, check) in E.EXPERIMENTS.items()}
    out = io.StringIO()
    with mock.patch.object(sweep.Cell, "run", recording_run), \
            mock.patch.object(sweep, "execute_tasks", naming_execute), \
            mock.patch.object(E, "execute_tasks", naming_execute), \
            mock.patch.dict(E.EXPERIMENTS, experiments), \
            redirect_stdout(out):
        status = main(["--json", "paper", "--scale", "quick", "--jobs", "1"])
    payload = json.loads(out.getvalue())
    rows = {name: result_digest(entry["rows"])
            for name, entry in payload.items()}
    return status, payload, keys, {"cells": cells, "rows": rows}


@pytest.fixture(scope="module")
def quick_paper():
    return run_quick_paper()


def test_every_experiment_runs_clean_at_quick_scale(quick_paper):
    status, payload, _keys, _digests = quick_paper
    assert list(payload) == list(E.EXPERIMENTS)
    broken = {name: entry.get("error") or entry["failures"]
              for name, entry in payload.items()
              if entry.get("error") or entry["failures"]}
    assert not broken
    assert status == 0


def test_cell_keys_are_unique_within_an_experiment(quick_paper):
    _status, _payload, keys, _digests = quick_paper
    repeated = {name: sorted(k for k, n in Counter(names).items() if n > 1)
                for name, names in keys.items()}
    assert not {name: ks for name, ks in repeated.items() if ks}


def test_digests_are_pinned(quick_paper):
    _status, _payload, _keys, digests = quick_paper
    pinned = json.loads(TABLE.read_text())
    moved = []
    for name in sorted(set(pinned["rows"]) | set(digests["rows"])):
        if pinned["rows"].get(name) != digests["rows"].get(name):
            moved.append(f"{name}: rows")
        want = pinned["cells"].get(name, {})
        got = digests["cells"].get(name, {})
        moved += [f"{name}/{key}: cell" for key in sorted(set(want) | set(got))
                  if want.get(key) != got.get(key)]
    assert not moved, ("quick-scale paper results moved; rewrite "
                       f"{TABLE.name} only if that is intended: {moved}")


if __name__ == "__main__":
    _status, _payload, _keys, digests = run_quick_paper()
    TABLE.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {TABLE}: {sum(map(len, digests['cells'].values()))} "
          f"cell(s) in {len(digests['cells'])} experiment(s), "
          f"{len(digests['rows'])} rows digest(s)")
