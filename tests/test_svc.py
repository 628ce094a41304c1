"""Tests for the sweep-service building blocks (no live fleet).

Covers :mod:`repro.svc.spec` (submission contract),
:mod:`repro.svc.repository` (SQLite persistence + dedupe + recovery,
LRU pruning, the job table as queue and state machine, and the
concurrent-access guarantees the sweep CLI and the service rely on)
and the import cost of :mod:`repro.svc.client`. The live end-to-end
paths (worker fleet, HTTP) are in ``test_svc_service.py``.
"""

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys
import threading
import time

import pytest

from repro.harness.runner import run_workload
from repro.harness import sweep as sweep_mod
from repro.harness.sweep import Cell, run_sweep
from repro.svc import repository as repository_mod
from repro.svc.repository import RunRepository, StateError, result_digest
from repro.svc.spec import SpecError, SweepSpec


#: Builds and expands a spec in a fresh interpreter, then checks that
#: ``repro.harness.experiments`` was never imported.
_LEAN_SPEC_PROBE = """
import sys
from repro.svc.spec import SweepSpec
SweepSpec(workload="Mp3d").cache_keys()
assert "repro.harness.experiments" not in sys.modules
"""

#: Imports the service client in a fresh interpreter and lists every
#: simulator package it loaded.
_LEAN_CLIENT_PROBE = """
import sys
import repro.svc.client
print(sorted(name for name in sys.modules
             if name.split(".")[:2] in (["repro", "cpu"],
                                        ["repro", "harness"],
                                        ["repro", "coherence"])))
"""

#: ``import repro`` loads no simulator; each documented name resolves on
#: first use. Prints the names ``from repro import *`` left unbound.
_LAZY_PACKAGE_PROBE = """
import sys
import repro
assert "repro.harness" not in sys.modules
from repro import *
from repro.harness.runner import run_workload as defined
assert run_workload is defined
print(sorted(set(repro.__all__) - set(globals())))
"""


def run_probe(probe):
    """Run ``probe`` in a fresh interpreter over this checkout's source."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    return subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=False)


def tiny_spec(**overrides):
    """One-cell spec (Mp3d, BS_64) — the cheapest real submission."""
    fields = dict(workload="Mp3d", mode="sizes", sizes=(64,),
                  threads=2, units=1)
    fields.update(overrides)
    return SweepSpec(**fields)


class TestSweepSpec:
    def test_round_trip(self):
        spec = tiny_spec(timeout=5.0, retries=2)
        back = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.cache_keys() == spec.cache_keys()

    def test_defaults_match_cli_sweep(self):
        spec = SweepSpec(workload="Mp3d")
        assert spec.mode == "designs"
        assert spec.baseline_label == "Perfect"
        assert SweepSpec(workload="Mp3d",
                         mode="figure4").baseline_label == "Lock"
        assert SweepSpec(workload="Mp3d",
                         mode="sizes").baseline_label is None

    def test_figure4_grid(self):
        labels = SweepSpec(workload="Mp3d", mode="figure4").labels()
        assert labels == ["Lock", "Perfect", "BS_2Kb", "CBS_2Kb",
                          "DBS_2Kb", "BS_64"]

    def test_validation(self):
        with pytest.raises(SpecError):
            SweepSpec(workload="NoSuchThing")
        with pytest.raises(SpecError):
            SweepSpec(workload="Mp3d", mode="nope")
        with pytest.raises(SpecError):
            SweepSpec(workload="Mp3d", threads=0)
        with pytest.raises(SpecError):
            SweepSpec(workload="Mp3d", mode="sizes", kind="perfect")
        with pytest.raises(SpecError):
            SweepSpec(workload="Mp3d", mode="sizes", sizes=())
        with pytest.raises(SpecError):
            SweepSpec(workload="Mp3d", retries=-1)
        with pytest.raises(SpecError):
            SweepSpec(workload="Mp3d", timeout=0.0)
        with pytest.raises(SpecError, match="timeout"):
            SweepSpec(workload="Mp3d", timeout=float("nan"))
        # The grid is expanded once: a config the config layer refuses,
        # and duplicate labels, are spec errors before anything runs.
        with pytest.raises(SpecError, match="power of two"):
            SweepSpec(workload="Mp3d", bits=100)
        with pytest.raises(SpecError, match="power of two"):
            SweepSpec(workload="Mp3d", mode="sizes", sizes=(100,))
        with pytest.raises(SpecError, match="power of two"):
            SweepSpec(workload="Mp3d", mode="sizes", granularity=3)
        with pytest.raises(SpecError, match="duplicate"):
            SweepSpec(workload="Mp3d", mode="sizes", sizes=(64, 64))
        # Integer fields take integers only, and the default machine's
        # 32 contexts bound the thread count.
        for field in ("threads", "units", "seed", "bits", "granularity",
                      "cycle_limit", "retries"):
            for value in (8.7, True, "12"):
                with pytest.raises(SpecError, match=field):
                    SweepSpec(workload="Mp3d", **{field: value})
        with pytest.raises(SpecError, match="32 contexts"):
            SweepSpec(workload="Mp3d", threads=33)
        assert SweepSpec(workload="Mp3d", threads=32).threads == 32
        for timeout in (True, "5"):
            with pytest.raises(SpecError, match="timeout"):
                SweepSpec(workload="Mp3d", timeout=timeout)

    def test_from_dict_rejects_junk(self):
        with pytest.raises(SpecError):
            SweepSpec.from_dict("not an object")
        with pytest.raises(SpecError):
            SweepSpec.from_dict({})
        with pytest.raises(SpecError):
            SweepSpec.from_dict({"workload": "Mp3d", "wat": 1})
        with pytest.raises(SpecError):
            SweepSpec.from_dict({"workload": "Mp3d", "threads": "lots"})
        with pytest.raises(SpecError, match="power of two"):
            SweepSpec.from_dict({"workload": "Mp3d", "bits": 100})
        for sizes in ("2048", ["64"], [64.0], [True], 64, [64, 64]):
            with pytest.raises(SpecError, match="sizes|duplicate"):
                SweepSpec.from_dict({"workload": "Mp3d", "mode": "sizes",
                                     "sizes": sizes})
        for verify in ("false", "true", 0, 1, None):
            with pytest.raises(SpecError, match="verify"):
                SweepSpec.from_dict({"workload": "Mp3d", "verify": verify})
        for text in ('{"workload": "Mp3d", "timeout": NaN}',
                     '{"workload": "Mp3d", "timeout": Infinity}'):
            with pytest.raises(SpecError, match="timeout"):
                SweepSpec.from_dict(json.loads(text))
        # Integers only as JSON integers: no silent truncation of 8.7,
        # no true-as-1, no numeric strings; timeouts only as numbers.
        for junk in ({"threads": 8.7}, {"threads": True}, {"seed": "12"},
                     {"units": 2.0}, {"retries": False}, {"bits": "2048"},
                     {"threads": 33}, {"timeout": "5"},
                     {"timeout": True}):
            with pytest.raises(SpecError):
                SweepSpec.from_dict({"workload": "Mp3d", **junk})
        assert SweepSpec.from_dict(
            {"workload": "Mp3d", "timeout": 5}).timeout == 5

    def test_spec_validates_against_the_suite_alone(self):
        proc = run_probe(_LEAN_SPEC_PROBE)
        assert proc.returncode == 0, proc.stderr

    def test_cache_keys_match_cli_path(self):
        """The service content-address IS the CLI cache's address."""
        spec = tiny_spec()
        for label, cfg in spec.variants():
            # The cell run_sweep builds for this variant.
            expected = Cell(label, cfg, spec.make_workload(), seed=spec.seed,
                            cycle_limit=spec.cycle_limit,
                            verify=spec.verify).key
            assert spec.cache_keys()[label] == expected

    def test_cache_keys_fingerprint_the_shared_workload_once(
            self, monkeypatch):
        spec = SweepSpec(workload="Mp3d", threads=2, units=1)
        cells = spec.cells()
        expected = {cell.label: cell.key for cell in cells}
        fingerprinted = []
        # The spec imports the harness when first asked for keys.
        real = sweep_mod.workload_fingerprint
        monkeypatch.setattr(sweep_mod, "workload_fingerprint",
                            lambda w: fingerprinted.append(w) or real(w))
        assert spec.cache_keys(cells) == expected
        assert fingerprinted == [cells[0].workload]
        assert spec.cache_keys() == expected

    def test_spec_cell_runs_the_exact_cell(self):
        spec = tiny_spec()
        [(label, cfg)] = spec.variants()
        [cell] = spec.cells()
        assert cell.label == label and cell.key == spec.cache_keys()[label]
        direct = run_workload(cfg, spec.make_workload(), seed=spec.seed,
                              config_label=label)
        via_cell = cell.run()
        assert result_digest(via_cell.to_dict()) == \
            result_digest(direct.to_dict())


class TestLazyImports:
    def test_client_import_loads_no_simulator(self):
        """A ``ServiceClient`` user pays for HTTP and JSON, not for the
        machine the server simulates."""
        proc = run_probe(_LEAN_CLIENT_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_package_names_resolve_on_first_use(self):
        proc = run_probe(_LAZY_PACKAGE_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def queued_jobs(repo, priorities):
    """One queued tiny job per priority, in submission order; their ids."""
    spec = tiny_spec()
    keys = spec.cache_keys()
    return [repo.create_job(spec, priority=p, cache_keys=keys)["id"]
            for p in priorities]


class TestStateMachine:
    """``RunRepository.transition``: a compare-and-set per edge."""

    def test_legal_paths(self, tmp_path):
        repo = RunRepository(tmp_path / "svc.db")
        paths = [("running", "done"), ("running", "failed"),
                 ("running", "cancelled"), ("cancelled",),
                 ("running", "queued", "running", "done")]
        for path, job_id in zip(paths, queued_jobs(repo, [0] * 5)):
            old = "queued"
            for new in path:
                assert repo.transition(job_id, old, new), (old, new)
                old = new
            job = repo.get_job(job_id)
            assert job["state"] == path[-1]
            assert (job["started_at"] is not None) == ("running" in path)
            assert job["finished_at"] is not None
        # Restart recovery clears the start stamp, as recover() does.
        [job_id] = queued_jobs(repo, [0])
        repo.transition(job_id, "queued", "running")
        assert repo.transition(job_id, "running", "queued")
        back = repo.get_job(job_id)
        assert (back["state"], back["started_at"]) == ("queued", None)

    def test_illegal_paths(self, tmp_path):
        repo = RunRepository(tmp_path / "svc.db")
        [job_id] = queued_jobs(repo, [0])
        before = repo.get_job(job_id)
        for old, new in [("done", "running"), ("queued", "done"),
                         ("failed", "queued"), ("cancelled", "running"),
                         ("queued", "queued"), ("bogus", "done"),
                         ("queued", "bogus")]:
            with pytest.raises(StateError):
                repo.transition(job_id, old, new)
        # A legal edge from a state the job is not in moves nothing.
        assert not repo.transition(job_id, "running", "done")
        assert not repo.transition("ghost", "queued", "running")
        assert repo.get_job(job_id) == before


class TestJobQueue:
    """The ``jobs`` table is the job queue: claims, cancels, recovery."""

    def test_fifo_within_priority(self, tmp_path):
        repo = RunRepository(tmp_path / "svc.db")
        ids = queued_jobs(repo, [0, 0, 0])
        claimed = [repo.claim_next_job() for _ in ids]
        assert [job["id"] for job in claimed] == ids
        for job in claimed:
            assert job["state"] == "running"
            assert job["started_at"] is not None
            assert [c["state"] for c in job["cells"]] == ["pending"]
        assert repo.claim_next_job() is None
        assert repo.queued_count() == 0

    def test_claim_from_empty_queue_returns_none(self, tmp_path):
        repo = RunRepository(tmp_path / "svc.db")
        t0 = time.monotonic()
        assert repo.claim_next_job() is None  # returns, never waits
        assert time.monotonic() - t0 < 2.0
        assert repo.queued_count() == 0
        [job_id] = queued_jobs(repo, [0])
        assert repo.claim_next_job()["id"] == job_id
        assert repo.claim_next_job() is None
        assert repo.get_job(job_id)["state"] == "running"

    def test_priority_orders_first(self, tmp_path):
        repo = RunRepository(tmp_path / "svc.db")
        low, high, mid, high2 = queued_jobs(repo, [0, 5, 3, 5])
        assert repo.queued_count() == 4
        assert [repo.claim_next_job()["id"] for _ in range(4)] \
            == [high, high2, mid, low]

    def test_cancelled_job_is_never_claimed(self, tmp_path):
        repo = RunRepository(tmp_path / "svc.db")
        a, b = queued_jobs(repo, [0, 0])
        assert repo.transition(a, "queued", "cancelled")
        assert not repo.transition(a, "queued", "cancelled")
        assert repo.queued_count() == 1
        assert repo.claim_next_job()["id"] == b
        assert repo.claim_next_job() is None
        assert repo.get_job(a)["state"] == "cancelled"
        assert repo.get_job(a)["cell_counts"] == {"cancelled": 1}

    def test_cancel_takes_unfinished_cells_with_it(self, tmp_path):
        """One transaction moves a running job and its unfinished cells
        to cancelled; a finished cell keeps its outcome."""
        repo = RunRepository(tmp_path / "svc.db")
        spec = SweepSpec(workload="Mp3d", mode="figure4", threads=2,
                         units=1)
        job = repo.create_job(spec, cache_keys=spec.cache_keys())
        assert repo.claim_next_job()["id"] == job["id"]
        done, running = spec.labels()[:2]
        repo.update_cell(job["id"], done, state="done", source="executed")
        repo.update_cell(job["id"], running, state="running")
        assert repo.transition(job["id"], "running", "cancelled")
        cells = {c["label"]: c["state"]
                 for c in repo.get_job(job["id"])["cells"]}
        assert cells.pop(done) == "done"
        assert set(cells.values()) == {"cancelled"}
        assert len(cells) == len(spec.labels()) - 1

    def test_recovered_job_is_claimed_again(self, tmp_path):
        repo = RunRepository(tmp_path / "svc.db")
        low, high = queued_jobs(repo, [0, 9])
        assert repo.claim_next_job()["id"] == high
        repo.recover()  # a restart: the running job is queued again
        assert repo.queued_count() == 2
        assert [repo.claim_next_job()["id"] for _ in range(2)] \
            == [high, low]

    def test_claim_racing_cancel_has_one_winner(self, tmp_path):
        """Each job is claimed or cancelled, never both.

        Two schedulers claim in queue order while two API threads cancel
        the same jobs, from each end of the queue.
        """
        repo = RunRepository(tmp_path / "svc.db")
        ids = queued_jobs(repo, [0] * 100)
        claimed, cancelled = [], []
        start = threading.Barrier(4)

        def claim():
            start.wait()
            for _ in ids:
                job = repo.claim_next_job()
                if job is not None:
                    claimed.append(job["id"])

        def cancel(order):
            start.wait()
            for job_id in order:
                if repo.transition(job_id, "queued", "cancelled"):
                    cancelled.append(job_id)

        threads = [threading.Thread(target=claim),
                   threading.Thread(target=claim),
                   threading.Thread(target=cancel, args=(ids,)),
                   threading.Thread(target=cancel, args=(ids[::-1],))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(claimed + cancelled) == sorted(ids)  # no job twice
        states = {job["id"]: job["state"]
                  for job in repo.list_jobs(limit=len(ids))}
        assert {states[job_id] for job_id in claimed} <= {"running"}
        assert {states[job_id] for job_id in cancelled} <= {"cancelled"}


class TestRunRepository:
    def _result(self):
        spec = tiny_spec()
        [(label, cfg)] = spec.variants()
        return run_workload(cfg, spec.make_workload(), seed=spec.seed,
                            config_label=label)

    def test_store_and_load_run(self, tmp_path):
        repo = RunRepository(tmp_path / "svc.db")
        result = self._result()
        digest = repo.store_run("k1", result)
        assert digest == result_digest(result.to_dict())
        assert repo.run_digest("k1") == digest
        loaded = repo.load_run("k1")
        assert result_digest(loaded.to_dict()) == digest
        assert repo.load_run("missing") is None
        assert repo.run_count() == 1

    def test_first_write_wins(self, tmp_path):
        repo = RunRepository(tmp_path / "svc.db")
        result = self._result()
        first = repo.store_run("k1", result)
        repo.store_run("k1", result)
        assert repo.run_count() == 1
        assert repo.run_digest("k1") == first

    def test_store_without_last_used_is_migrated(self, tmp_path):
        """A store written before LRU pruning gains ``last_used``."""
        db_path = tmp_path / "svc.db"
        record = self._result().to_dict()
        conn = sqlite3.connect(db_path)
        with conn:
            conn.execute("CREATE TABLE runs (cache_key TEXT PRIMARY KEY, "
                         "digest TEXT NOT NULL, result_json TEXT NOT NULL, "
                         "created_at REAL NOT NULL)")
            conn.execute("INSERT INTO runs VALUES (?, ?, ?, ?)",
                         ("old", result_digest(record), json.dumps(record),
                          1.0))
        conn.close()
        repo = RunRepository(db_path)
        repo.store_run("new", self._result())
        # The old run's recency starts at its creation, so it goes first.
        assert repo.prune(max_entries=1) == 1
        assert repo.load_run("old") is None
        assert repo.load_run("new") is not None

    def test_job_lifecycle(self, tmp_path):
        repo = RunRepository(tmp_path / "svc.db")
        spec = tiny_spec()
        job = repo.create_job(spec, priority=2,
                              cache_keys=spec.cache_keys())
        assert job["state"] == "queued"
        assert job["priority"] == 2
        assert [c["state"] for c in job["cells"]] == ["pending"]
        assert SweepSpec.from_dict(job["spec"]) == spec

        assert repo.claim_next_job()["id"] == job["id"]
        label = job["cells"][0]["label"]
        repo.update_cell(job["id"], label, state="done", source="executed",
                         attempts=1, wall_time=0.5)
        with pytest.raises(ValueError, match="unknown cell fields"):
            repo.update_cell(job["id"], label, colour="red")
        assert repo.transition(job["id"], "running", "done")
        final = repo.get_job(job["id"])
        assert final["state"] == "done"
        assert final["started_at"] is not None
        assert final["finished_at"] is not None
        assert final["cell_counts"] == {"done": 1}
        assert repo.get_job("ghost") is None

    def test_list_jobs_includes_counts(self, tmp_path):
        repo = RunRepository(tmp_path / "svc.db")
        spec = tiny_spec()
        a = repo.create_job(spec, cache_keys=spec.cache_keys())
        b = repo.create_job(spec, cache_keys=spec.cache_keys())
        assert a["id"] != b["id"]
        listed = repo.list_jobs()
        assert [j["id"] for j in listed] == [b["id"], a["id"]]  # newest first
        assert all(j["cell_counts"] == {"pending": 1} for j in listed)
        assert repo.transition(a["id"], "queued", "running")
        assert [j["id"] for j in repo.list_jobs(state="running")] \
            == [a["id"]]

    def test_results_for_job_and_dedupe(self, tmp_path):
        """Two submissions of one spec share the same stored run."""
        repo = RunRepository(tmp_path / "svc.db")
        spec = tiny_spec()
        keys = spec.cache_keys()
        a = repo.create_job(spec, cache_keys=keys)
        b = repo.create_job(spec, cache_keys=keys)
        result = self._result()
        label = next(iter(keys))
        digest = repo.store_run(keys[label], result)
        for jid, source in ((a["id"], "executed"), (b["id"], "repository")):
            repo.update_cell(jid, label, state="done", source=source)
        assert repo.run_count() == 1  # one execution serves both jobs
        res_a = repo.results_for_job(a["id"])
        res_b = repo.results_for_job(b["id"])
        assert res_a[label]["digest"] == digest
        assert res_b[label]["digest"] == digest
        assert res_b[label]["result"] == res_a[label]["result"]
        assert res_a[label]["source"] == "executed"
        assert res_b[label]["source"] == "repository"

    def test_cell_outcome_commits_with_its_ledger_row(self, tmp_path):
        """A failed ledger update rolls back the result stored with it,
        and a repository hit's recency refresh with its ledger row."""
        db_path = tmp_path / "svc.db"
        repo = RunRepository(db_path)
        spec = tiny_spec()
        keys = spec.cache_keys()
        [(label, key)] = keys.items()
        job = repo.create_job(spec, cache_keys=keys)
        result = self._result()
        # The trigger fails the ledger row's move to done after the run
        # was inserted in the same transaction.
        other = sqlite3.connect(db_path)
        with other:
            other.execute(
                "CREATE TRIGGER ledger_fails BEFORE UPDATE OF state ON "
                "cells WHEN NEW.state = 'done' "
                "BEGIN SELECT RAISE(ABORT, 'ledger update failed'); END")
        try:
            with pytest.raises(sqlite3.IntegrityError,
                               match="ledger update failed"):
                repo.store_cell_result(job["id"], label, key, result,
                                       state="done", source="executed")
            assert repo.run_count() == 0
            assert repo.load_run(key) is None
            assert repo.get_job(job["id"])["cells"][0]["state"] \
                == "pending"

            repo.store_run(key, result)
            with other:
                other.execute("UPDATE runs SET last_used = 1.0")
            with pytest.raises(sqlite3.IntegrityError,
                               match="ledger update failed"):
                repo.serve_cell_from_store(job["id"], label, key)
            assert other.execute("SELECT last_used FROM runs").fetchall() \
                == [(1.0,)]
            assert repo.get_job(job["id"])["cells"][0]["state"] \
                == "pending"

            with other:
                other.execute("DROP TRIGGER ledger_fails")
            assert repo.serve_cell_from_store(job["id"], label, key)
            [cell] = repo.get_job(job["id"])["cells"]
            assert (cell["state"], cell["source"]) == ("done", "repository")
            assert other.execute("SELECT last_used FROM runs").fetchone()[0] \
                > 1.0
        finally:
            other.close()
            repo.close()

    def test_results_label_filter(self, tmp_path):
        repo = RunRepository(tmp_path / "svc.db")
        spec = SweepSpec(workload="Mp3d", mode="figure4", threads=2,
                         units=1)
        job = repo.create_job(spec, cache_keys=spec.cache_keys())
        filtered = repo.results_for_job(job["id"], labels=["Lock"])
        assert list(filtered) == ["Lock"]
        assert filtered["Lock"]["state"] == "pending"
        assert filtered["Lock"]["digest"] is None

    def test_recover_requeues_interrupted(self, tmp_path):
        repo = RunRepository(tmp_path / "svc.db")
        spec = tiny_spec()
        job = repo.create_job(spec, cache_keys=spec.cache_keys())
        label = job["cells"][0]["label"]
        assert repo.claim_next_job()["id"] == job["id"]
        repo.update_cell(job["id"], label, state="running")
        done_job = repo.create_job(spec, cache_keys=spec.cache_keys())
        assert repo.claim_next_job()["id"] == done_job["id"]
        assert repo.transition(done_job["id"], "running", "done")

        repo.recover()
        assert repo.queued_count() == 1
        assert repo.claim_next_job()["id"] == job["id"]
        repo.recover()
        after = repo.get_job(job["id"])
        assert after["state"] == "queued"
        assert after["cells"][0]["state"] == "pending"
        assert repo.get_job(done_job["id"])["state"] == "done"

    def test_recover_keeps_finished_cells(self, tmp_path):
        repo = RunRepository(tmp_path / "svc.db")
        spec = SweepSpec(workload="Mp3d", mode="figure4", threads=2,
                         units=1)
        job = repo.create_job(spec, cache_keys=spec.cache_keys())
        assert repo.claim_next_job()["id"] == job["id"]
        repo.update_cell(job["id"], "Lock", state="done",
                         source="executed")
        repo.update_cell(job["id"], "Perfect", state="running")
        repo.recover()
        after = repo.get_job(job["id"])
        states = {c["label"]: c["state"] for c in after["cells"]}
        assert states["Lock"] == "done"       # finished work survives
        assert states["Perfect"] == "pending"  # interrupted re-queued

    def test_threaded_access(self, tmp_path):
        """API threads + scheduler thread hit one SQLite file safely."""
        repo = RunRepository(tmp_path / "svc.db")
        spec = tiny_spec()
        errors = []

        def hammer():
            try:
                for _ in range(5):
                    job = repo.create_job(spec,
                                          cache_keys=spec.cache_keys())
                    assert repo.transition(job["id"], "queued", "running")
                    repo.get_job(job["id"])
                    repo.list_jobs()
                    assert repo.transition(job["id"], "running", "done")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(repo.list_jobs(limit=100)) == 20

    def test_calls_share_one_connection(self, tmp_path, monkeypatch):
        """The repository opens SQLite once, not once per call."""
        real_connect = sqlite3.connect
        opened = []

        def counting_connect(*args, **kwargs):
            opened.append(args)
            return real_connect(*args, **kwargs)

        monkeypatch.setattr(repository_mod.sqlite3, "connect",
                            counting_connect)
        repo = RunRepository(tmp_path / "svc.db")
        spec = tiny_spec()
        keys = spec.cache_keys()
        [(label, key)] = keys.items()
        result = self._result()
        try:
            job = repo.create_job(spec, cache_keys=keys)
            assert repo.claim_next_job()["id"] == job["id"]
            repo.update_cell(job["id"], label, state="running",
                             attempts=1)
            assert not repo.serve_cell_from_store(job["id"], label, key)
            repo.store_run(key, result)
            repo.store_cell_result(job["id"], label, key, result,
                                   state="done", source="executed")
            assert repo.serve_cell_from_store(job["id"], label, key)
            assert repo.load_run(key) is not None
            assert repo.run_digest(key) == result_digest(result.to_dict())
            assert repo.run_count() == 1
            assert repo.get_job(job["id"])["cell_counts"] == {"done": 1}
            assert repo.results_for_job(job["id"])[label]["digest"]
            assert repo.transition(job["id"], "running", "done")
            assert repo.get_job(job["id"])["state"] == "done"
            assert len(repo.list_jobs()) == 1
            assert repo.queued_count() == 0
            repo.recover()
            assert repo.claim_next_job() is None
            assert repo.prune(max_entries=10) == 0
        finally:
            repo.close()
        assert len(opened) == 1

    def test_threads_share_the_connection_safely(self, tmp_path):
        """More threads than cores, switching often: no update is lost.

        Each call's transaction holds the connection alone; without the
        lock, one thread's BEGIN, ``lastrowid`` or rollback lands inside
        another thread's transaction.
        """
        repo = RunRepository(tmp_path / "svc.db")
        result = self._result()
        digest = result_digest(result.to_dict())
        spec = SweepSpec(workload="Mp3d", mode="figure4", threads=2,
                         units=1)
        labels = spec.labels()
        threads_n, jobs_per_thread = 8, 4
        job_ids = {}
        errors = []

        def work(n):
            try:
                ids = []
                for i in range(jobs_per_thread):
                    # Threads n and n + 4 store the same keys.
                    keys = {label: f"k{n % 4}-{i}-{label}"
                            for label in labels}
                    job = repo.create_job(spec, cache_keys=keys)
                    ids.append(job["id"])
                    for label in labels:
                        repo.update_cell(job["id"], label, state="running",
                                         attempts=1)
                        repo.store_cell_result(
                            job["id"], label, keys[label], result,
                            state="done", source="executed", wall_time=n)
                        assert repo.run_digest(keys[label]) == digest
                    assert repo.get_job(job["id"])["cell_counts"] \
                        == {"done": len(labels)}
                job_ids[n] = ids
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,))
                       for n in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
            repo.close()

        assert errors == []
        # A fresh connection sees only what was committed.
        repo = RunRepository(tmp_path / "svc.db")
        try:
            for n, ids in job_ids.items():
                assert len(ids) == jobs_per_thread
                for job_id in ids:
                    cells = repo.get_job(job_id)["cells"]
                    assert [(c["state"], c["source"], c["attempts"],
                             c["wall_time"]) for c in cells] \
                        == [("done", "executed", 1, n)] * len(labels)
            assert len(repo.list_jobs(limit=1000)) \
                == threads_n * jobs_per_thread
            stored = {f"k{m}-{i}-{label}" for m in range(4)
                      for i in range(jobs_per_thread) for label in labels}
            assert repo.run_count() == len(stored)
            assert {repo.run_digest(key) for key in stored} == {digest}
        finally:
            repo.close()


def _store_same_key(db_path, key, barrier, payload_path):
    """Child process: wait at the barrier, then store the shared key."""
    import pickle
    with open(payload_path, "rb") as fh:
        result = pickle.load(fh)
    store = RunRepository(db_path)
    barrier.wait(timeout=30)
    for _ in range(5):
        store.store_run(key, result)


class TestConcurrentResultCache:
    """Concurrent writers and readers of one run store."""

    def test_parallel_same_key_writers(self, tmp_path):
        """N processes storing one key concurrently leave one run.

        ``store_run`` is first-write-wins inside a SQLite transaction,
        so no content address is ever stored with two digests.
        """
        spec = tiny_spec()
        [(label, cfg)] = spec.variants()
        result = run_workload(cfg, spec.make_workload(), seed=spec.seed,
                              config_label=label)
        payload_path = tmp_path / "payload.pkl"
        import pickle
        with open(payload_path, "wb") as fh:
            pickle.dump(result, fh)
        key = spec.cache_keys()[label]
        db_path = tmp_path / "sweeps.db"
        store = RunRepository(db_path)

        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(4)
        procs = [ctx.Process(target=_store_same_key,
                             args=(str(db_path), key, barrier,
                                   str(payload_path)))
                 for _ in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)

        loaded = store.load_run(key)
        assert loaded is not None
        digest = result_digest(result.to_dict())
        assert result_digest(loaded.to_dict()) == digest
        # Exactly one row, carrying one digest.
        assert store.run_count() == 1
        assert store.run_digest(key) == digest

    def test_reader_during_writes_sees_whole_entries(self, tmp_path):
        spec = tiny_spec()
        [(label, cfg)] = spec.variants()
        result = run_workload(cfg, spec.make_workload(), seed=spec.seed,
                              config_label=label)
        db_path = tmp_path / "sweeps.db"
        key = spec.cache_keys()[label]
        writer = RunRepository(db_path)
        reader = RunRepository(db_path)
        digest = result_digest(result.to_dict())
        for _ in range(10):
            writer.store_run(key, result)
            seen = reader.load_run(key)
            assert seen is not None
            assert result_digest(seen.to_dict()) == digest


class TestRepositoryCacheInterop:
    def test_sweep_cache_entry_satisfies_service_key(self, tmp_path):
        """A direct ``repro sweep`` warms the store the service reads."""
        spec = tiny_spec()
        store = RunRepository(tmp_path / "sweeps.db")
        sweep = run_sweep(spec.variants(), spec.workload_factory(),
                          seed=spec.seed,
                          baseline_label=spec.baseline_label, cache=store)
        assert sweep.meta["cache"]["misses"] == 1
        [(label, _cfg)] = spec.variants()
        hit = store.load_run(spec.cache_keys()[label])
        assert hit is not None
        assert result_digest(hit.to_dict()) == \
            result_digest(sweep.results[label].to_dict())
