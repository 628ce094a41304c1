"""End-to-end tests for the live sweep service: fleet, HTTP, faults.

These spin up real worker processes (and, for the API tests, a real
HTTP server on a loopback ephemeral port). Everything stays tiny —
Mp3d at 2 threads x 1 unit — except the one benchmark-parity test,
which replays the committed ``BENCH_fig4_cell.json`` full-scale cell
through the service and demands a byte-identical result digest.
"""

import contextlib
import http.client
import json
import multiprocessing
import os
import re
import signal
import socket
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from urllib.parse import urlparse

import pytest

import repro.harness.runner as runner_mod
import repro.svc.client as client_mod
from repro.harness import sweep as sweep_mod
from repro.harness.fleet import WorkerFleet
from repro.harness.sweep import run_sweep
from repro.svc.api import SweepServer, serve
from repro.svc.client import ClientError, ServiceClient
from repro.svc.repository import RunRepository, result_digest
from repro.svc.service import EVENT_COUNTERS, ServiceError, SweepService
from repro.svc.spec import SweepSpec

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="fault injection needs fork-inherited patches")

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def tiny_spec(**overrides):
    fields = dict(workload="Mp3d", mode="sizes", sizes=(64,),
                  threads=2, units=1)
    fields.update(overrides)
    return SweepSpec(**fields)


def fig4_spec(**overrides):
    fields = dict(workload="Mp3d", mode="figure4", threads=2, units=1)
    fields.update(overrides)
    return SweepSpec(**fields)


class _Nap:
    """A fleet item that is not a cell: sleeps, then returns its length."""

    def __init__(self, seconds):
        self.seconds = seconds

    def run(self):
        time.sleep(self.seconds)
        return self.seconds


#: Starts a three-worker fleet, hands one worker a 0.3 s item, prints the
#: worker pids and SIGKILLs itself mid-item.
_ORPHAN_PROBE = """
import os, signal, time
from repro.harness.fleet import WorkerFleet

class Nap:
    def run(self):
        time.sleep(0.3)

fleet = WorkerFleet(3)
fleet.start()
assert fleet.dispatch(Nap()) is not None
print(*(w.proc.pid for w in fleet._workers.values()), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid):
    """Whether ``pid`` is a live process; an unreaped zombie is not."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def wait_terminal(service, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = service.job(job_id)
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} not terminal after {timeout}s: "
                         f"{service.job(job_id)}")


def assert_metrics_count_events(service, job_ids):
    """Every ``/metrics`` counter equals the count of its job events.

    The counters are computed from the service's own ``svc.*`` events;
    this checks them against the jobs' ``/events`` streams, each of which
    must open with ``svc.job.submitted``.
    """
    events = []
    for job_id in job_ids:
        stream = service.job_events(job_id)
        assert stream[0].kind == "svc.job.submitted", job_id
        events += stream
    snapshot = service.metrics_snapshot()
    for name, (kind, source) in EVENT_COUNTERS.items():
        assert snapshot[name] == sum(
            1 for e in events
            if e.kind == kind and source in (None, e.fields.get("source"))
        ), name
    for kind in {e.kind for e in events}:
        assert snapshot[f"events.{kind}"] == sum(
            1 for e in events if e.kind == kind), kind
    return snapshot


def start_server(db, log_path, timeout=60.0):
    """``repro serve`` in its own session; returns (process, client)."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--db", str(db)],
            env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
    deadline = time.monotonic() + timeout
    while True:
        with open(log_path) as log:
            match = re.search(r"listening on (http://\S+)", log.read())
        if match:
            return proc, ServiceClient(match.group(1))
        if proc.poll() is not None or time.monotonic() > deadline:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise AssertionError(f"repro serve did not start; "
                                 f"see {log_path}")
        time.sleep(0.01)


@pytest.fixture
def service(tmp_path):
    svc = SweepService(tmp_path / "svc.db", workers=2, drain_timeout=15.0)
    svc.start()
    try:
        yield svc
    finally:
        svc.shutdown(drain=False)


class TestServiceEndToEnd:
    def test_submit_runs_and_matches_direct_run_sweep(self, service):
        spec = fig4_spec()
        job = service.submit(spec.to_dict())
        assert job["state"] == "queued"
        assert len(job["cells"]) == 6
        final = wait_terminal(service, job["id"])
        assert final["state"] == "done"
        assert final["cell_counts"] == {"done": 6}

        results = service.results(job["id"])
        direct = run_sweep(spec.variants(), spec.workload_factory(),
                           seed=spec.seed,
                           baseline_label=spec.baseline_label)
        for label, run in direct.results.items():
            assert results[label]["digest"] == \
                result_digest(run.to_dict()), label
            assert results[label]["source"] == "executed"
            assert results[label]["result"] == run.to_dict()

        kinds = [e.kind for e in service.job_events(job["id"])]
        assert kinds[0] == "svc.job.submitted"
        assert kinds[-1] == "svc.job.done"
        assert "svc.job.started" in kinds
        assert kinds.count("svc.cell.done") == 6

    def test_second_submission_dedupes_to_zero_executions(self, service):
        spec = fig4_spec()
        first = service.submit(spec.to_dict())
        wait_terminal(service, first["id"])
        executed_before = service.metrics_snapshot()["svc.cells.executed"]

        second = service.submit(spec.to_dict())
        final = wait_terminal(service, second["id"])
        assert final["state"] == "done"
        results = service.results(second["id"])
        assert {entry["source"] for entry in results.values()} \
            == {"repository"}
        snapshot = service.metrics_snapshot()
        assert snapshot["svc.cells.executed"] == executed_before
        assert snapshot["svc.cells.repo_hits"] == 6
        # Both jobs resolve to identical digests (same content address).
        first_digests = {label: e["digest"] for label, e
                         in service.results(first["id"]).items()}
        second_digests = {label: e["digest"] for label, e
                          in results.items()}
        assert first_digests == second_digests

    def test_cell_done_carries_the_workers_cpu_time(self, service):
        """An executed cell reports the worker's CPU time around
        ``Cell.run``, which fits inside its dispatch-to-result wall time;
        a repository hit reports 0.0 for both."""
        spec = fig4_spec()
        for source in ("executed", "repository"):
            job = service.submit(spec.to_dict())
            assert wait_terminal(service, job["id"])["state"] == "done"
            done = [e.fields for e in service.job_events(job["id"])
                    if e.kind == "svc.cell.done"]
            assert len(done) == 6
            for fields in done:
                assert fields["source"] == source
                if source == "executed":
                    assert 0 < fields["cpu_time"] <= fields["wall_time"]
                else:
                    assert fields["cpu_time"] == fields["wall_time"] == 0.0

    def test_prewarmed_cache_serves_cells(self, tmp_path):
        db_path = tmp_path / "sweeps.db"
        spec = tiny_spec()
        run_sweep(spec.variants(), spec.workload_factory(), seed=spec.seed,
                  baseline_label=spec.baseline_label,
                  cache=RunRepository(db_path))
        svc = SweepService(db_path, workers=1)
        svc.start()
        try:
            job = svc.submit(spec.to_dict())
            final = wait_terminal(svc, job["id"])
            assert final["state"] == "done"
            results = svc.results(job["id"])
            assert {e["source"] for e in results.values()} \
                == {"repository"}
            assert svc.metrics_snapshot().get("svc.cells.executed",
                                              0) == 0
        finally:
            svc.shutdown(drain=False)

    def test_prune_keeps_finished_job_results(self, service):
        spec = tiny_spec()
        job = service.submit(spec.to_dict())
        assert wait_terminal(service, job["id"])["state"] == "done"
        before = service.results(job["id"])
        # A run no job references, as a CLI sweep would leave behind.
        [label] = spec.labels()
        service.repository.store_run(
            "unreferenced",
            runner_mod.RunResult.from_dict(before[label]["result"]))
        assert service.repository.prune(max_entries=0) == 1
        after = service.results(job["id"])
        assert after == before
        assert all(entry["result"] is not None for entry in after.values())

    def test_bench_digest_parity(self, service):
        """The committed BENCH_fig4_cell digest, reproduced via workers.

        The benchmark record pins the digest of ``sweep.to_dict()``
        without ``meta`` for the full-scale serial Mp3d figure4 sweep
        (``repro.perf.suite._sweep_digest``). Rebuilding that payload
        from the service's stored per-cell records must give the same
        bytes — the service changes *where* cells run, never what they
        produce.
        """
        bench_path = os.path.join(os.path.dirname(__file__), os.pardir,
                                  "BENCH_fig4_cell.json")
        with open(bench_path) as fh:
            bench = json.load(fh)
        threads = bench["config"]["scales"]["full"]["threads"]
        units = bench["config"]["scales"]["full"]["units"]
        committed = bench["trajectory"][-1]["extra"]["result_digest"]

        spec = fig4_spec(threads=threads, units=units,
                         seed=bench["config"]["seed"])
        job = service.submit(spec.to_dict())
        final = wait_terminal(service, job["id"], timeout=300.0)
        assert final["state"] == "done"
        results = service.results(job["id"])
        payload = {"baseline_label": spec.baseline_label,
                   "results": {label: results[label]["result"]
                               for label in spec.labels()}}
        assert result_digest(payload) == committed

    def test_priority_orders_queued_jobs(self, tmp_path):
        # No scheduler: submissions stay queued, so ordering is exact.
        svc = SweepService(tmp_path / "svc.db", workers=1)
        low = svc.submit(tiny_spec().to_dict(), priority=0)
        high = svc.submit(tiny_spec(units=2).to_dict(), priority=5)
        assert svc.health()["queue_depth"] == 2
        assert svc.repository.claim_next_job()["id"] == high["id"]
        assert svc.repository.claim_next_job()["id"] == low["id"]

    def test_health_and_metrics_shape(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["workers_alive"] == 2
        assert health["queue_depth"] == 0
        snapshot = service.metrics_snapshot()
        for key in ("svc.uptime_seconds", "svc.cells.per_second",
                    "svc.cache.hit_rate", "svc.workers.alive",
                    "svc.workers.restarts", "svc.queue.depth"):
            assert key in snapshot, key

    def test_metrics_count_the_events(self, tmp_path):
        """A cancelled queued job, a job and its resubmission."""
        svc = SweepService(tmp_path / "svc.db", workers=1)
        try:
            cancelled = svc.submit(tiny_spec(sizes=(128,)).to_dict())
            svc.cancel(cancelled["id"])
            svc.start()
            spec = tiny_spec(sizes=(64, 256))
            first = svc.submit(spec.to_dict())
            assert wait_terminal(svc, first["id"])["state"] == "done"
            second = svc.submit(spec.to_dict())
            assert wait_terminal(svc, second["id"])["state"] == "done"
            # The cancelled job was never claimed: it started nothing.
            assert [e.kind for e in svc.job_events(cancelled["id"])] \
                == ["svc.job.submitted", "svc.job.cancelled"]
            snapshot = assert_metrics_count_events(
                svc, [cancelled["id"], first["id"], second["id"]])
        finally:
            svc.shutdown(drain=False)
        assert {name: snapshot[name] for name in EVENT_COUNTERS} == {
            "svc.jobs.submitted": 3, "svc.jobs.done": 2,
            "svc.jobs.failed": 0, "svc.jobs.cancelled": 1,
            "svc.cells.executed": 2, "svc.cells.repo_hits": 2,
            "svc.cells.failed": 0, "svc.cells.requeued": 0,
            "svc.worker.timeouts": 0}
        assert snapshot["events.svc.job.started"] == 2
        assert snapshot["events.svc.cell.dispatch"] == 2
        assert snapshot["svc.queue.depth"] == 0
        assert snapshot["svc.cache.hit_rate"] == 0.5


def log_write_transactions(monkeypatch):
    """Log every repository transaction that changes a row.

    Each repository call is one transaction (``RunRepository._connect``);
    this wrapper reads the connection's ``total_changes`` inside it, under
    the repository's lock, so another thread's write is never counted
    here. Each entry names the repository method that wrote.
    """
    writes = []
    real = RunRepository._connect

    @contextlib.contextmanager
    def counting(self):
        with real(self) as conn:
            before = conn.total_changes
            yield conn
            if conn.total_changes > before:
                # 0: this generator, 1: its __exit__, 2: the method.
                writes.append(sys._getframe(2).f_code.co_name)

    monkeypatch.setattr(RunRepository, "_connect", counting)
    return writes


class TestDurableWrites:
    """What one job writes to the store, and how often it is expanded."""

    def test_write_transactions_per_job(self, tmp_path, monkeypatch):
        """A fresh 5-cell job commits 13 times, its resubmission 8.

        Fresh: create, claim, per cell the dispatch record and the result
        stored with its ledger row, and the final transition. Resubmitted:
        create, claim, one repository hit per cell, the transition.
        """
        spec = SweepSpec(workload="Mp3d", mode="designs", threads=2,
                         units=1)
        svc = SweepService(tmp_path / "svc.db", workers=1)
        svc.start()
        try:
            writes = log_write_transactions(monkeypatch)
            fresh = svc.submit(spec.to_dict())
            assert wait_terminal(svc, fresh["id"])["state"] == "done"
            assert len(writes) == 13, writes
            del writes[:]
            again = svc.submit(spec.to_dict())
            assert wait_terminal(svc, again["id"])["state"] == "done"
            assert len(writes) == 8, writes
        finally:
            svc.shutdown(drain=False)

    def test_each_submission_is_expanded_once(self, tmp_path, monkeypatch):
        """The scheduler runs the cells built at submission; only a job
        recovered from the store is expanded again."""
        expanded = []
        real_cells = SweepSpec.cells
        monkeypatch.setattr(SweepSpec, "cells",
                            lambda spec: expanded.append(spec)
                            or real_cells(spec))
        db = tmp_path / "svc.db"
        spec = tiny_spec()
        recovered_spec = tiny_spec(seed=7)
        # Accepted by an earlier process, left queued in the store.
        store = RunRepository(db)
        recovered = store.create_job(recovered_spec,
                                     cache_keys=recovered_spec.cache_keys())
        store.close()
        del expanded[:]
        svc = SweepService(db, workers=1)
        svc.start()
        try:
            job = svc.submit(spec.to_dict())
            for job_id in (recovered["id"], job["id"]):
                assert wait_terminal(svc, job_id)["state"] == "done"
        finally:
            svc.shutdown(drain=False)
        assert sorted(expanded, key=lambda s: s.seed) \
            == sorted([spec, recovered_spec], key=lambda s: s.seed)
        assert svc._expansions == {}


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path):
        svc = SweepService(tmp_path / "svc.db", workers=1)  # not started
        job = svc.submit(tiny_spec().to_dict())
        cancelled = svc.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        assert cancelled["cell_counts"] == {"cancelled": 1}
        assert svc.health()["queue_depth"] == 0
        assert svc.repository.claim_next_job() is None

    def test_cancel_terminal_job_is_an_error(self, service):
        job = service.submit(tiny_spec().to_dict())
        wait_terminal(service, job["id"])
        with pytest.raises(ServiceError):
            service.cancel(job["id"])

    def test_cancel_unknown_job(self, service):
        with pytest.raises(ServiceError):
            service.cancel("ghost")


class TestShutdownAndRecovery:
    def test_drain_then_restart_resumes(self, tmp_path):
        first = SweepService(tmp_path / "svc.db", workers=2,
                             drain_timeout=30.0)
        first.start()
        job = first.submit(fig4_spec().to_dict())
        first.shutdown(drain=True)  # likely mid-job

        ledger = RunRepository(tmp_path / "svc.db")
        try:
            after = ledger.get_job(job["id"])
        finally:
            ledger.close()
        assert after["state"] in ("queued", "done")
        for cell in after["cells"]:
            assert cell["state"] in ("pending", "done")

        second = SweepService(tmp_path / "svc.db", workers=2)
        second.start()
        try:
            final = wait_terminal(second, job["id"])
            assert final["state"] == "done"
            assert final["cell_counts"] == {"done": 6}
            assert second.repository.run_count() == 6
        finally:
            second.shutdown(drain=False)

    def test_late_result_is_stored_under_the_running_jobs_key(self,
                                                              tmp_path):
        # A result that reaches shutdown()'s drain instead of the
        # scheduler belongs to the job the scheduler is still running;
        # the cell itself carries no job id.
        svc = SweepService(tmp_path / "svc.db", workers=1)
        try:
            job = svc.submit(tiny_spec().to_dict())
            assert svc.repository.claim_next_job()["id"] == job["id"]
            [cell] = tiny_spec().cells()
            result = cell.run()
            svc._current_job = job["id"]
            svc._store_late_result(cell.label, result)
            assert svc.job(job["id"])["cell_counts"] == {"done": 1}
            [entry] = svc.results(job["id"]).values()
            assert entry["source"] == "executed"
            assert entry["digest"] == result_digest(result.to_dict())
        finally:
            svc.repository.close()

    def test_clean_shutdown_checkpoints_and_removes_the_log(self,
                                                             tmp_path):
        """Closing the last connection folds the WAL into the database."""
        db = tmp_path / "svc.db"
        svc = SweepService(db, workers=1)
        svc.start()
        try:
            job = svc.submit(tiny_spec().to_dict())
            wait_terminal(svc, job["id"])
            assert os.path.exists(f"{db}-wal")  # the service holds it open
        finally:
            svc.shutdown(drain=True)
        assert not os.path.exists(f"{db}-wal")

    @pytest.mark.skipif(not hasattr(os, "killpg"),
                        reason="needs POSIX process groups")
    def test_sigkill_mid_job_loses_and_duplicates_nothing(self, tmp_path):
        """A server killed mid-job restarts from its committed state."""
        db = tmp_path / "svc.db"
        spec = SweepSpec(workload="Mp3d", mode="figure4", threads=8,
                         units=3)
        servers = []
        try:
            proc, client = start_server(db, tmp_path / "serve-1.log")
            servers.append(proc)
            job_id = client.submit(spec.to_dict())["id"]
            deadline = time.monotonic() + 60
            while True:
                job = client.job(job_id)
                done_before = job["cell_counts"].get("done", 0)
                if done_before or time.monotonic() > deadline:
                    break
                time.sleep(0.002)
            os.killpg(proc.pid, signal.SIGKILL)  # server and its worker
            proc.wait(timeout=30)
            assert job["state"] == "running"
            assert 1 <= done_before < 6

            proc, client = start_server(db, tmp_path / "serve-2.log")
            servers.append(proc)
            final = client.wait(job_id, timeout=60)
            executed = client.metrics().get("svc.cells.executed", 0)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            for server in servers:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(server.pid, signal.SIGKILL)
                server.wait()

        # Work was left at the kill, and none of it ran twice.
        assert 1 <= executed <= 6 - done_before
        assert final["state"] == "done"
        assert final["cell_counts"] == {"done": 6}
        assert not os.path.exists(f"{db}-wal")  # clean second shutdown
        conn = sqlite3.connect(db)
        try:
            stored = conn.execute(
                "SELECT cache_key, digest FROM runs").fetchall()
        finally:
            conn.close()
        keys = {c["label"]: c["cache_key"] for c in final["cells"]}
        assert sorted(key for key, _ in stored) == sorted(keys.values())
        direct = run_sweep(spec.variants(), spec.workload_factory(),
                           seed=spec.seed,
                           baseline_label=spec.baseline_label)
        assert dict(stored) == {
            keys[label]: result_digest(run.to_dict())
            for label, run in direct.results.items()}

    def test_drain_event_emitted(self, tmp_path):
        svc = SweepService(tmp_path / "svc.db", workers=1)
        drains = []
        svc.bus.subscribe(drains.append, kinds=["svc.drain"])
        svc.start()
        svc.shutdown(drain=True)
        assert [e.kind for e in drains] == ["svc.drain"]


@needs_fork
class TestWorkerFaults:
    def _patch_crash(self, monkeypatch, crash_flag, label_to_kill,
                     exit_code=17, once=True):
        real = sweep_mod.run_workload

        def wrapper(cfg, workload, **kwargs):
            if kwargs.get("config_label") == label_to_kill:
                if not once or not os.path.exists(crash_flag):
                    with open(crash_flag, "a") as fh:
                        fh.write("x")
                    os._exit(exit_code)
            return real(cfg, workload, **kwargs)

        monkeypatch.setattr(sweep_mod, "run_workload", wrapper)

    def test_crash_mid_cell_requeued_and_job_completes(self, tmp_path,
                                                       monkeypatch):
        spec = tiny_spec()
        [label] = spec.labels()
        self._patch_crash(monkeypatch, str(tmp_path / "crashed"), label)
        svc = SweepService(tmp_path / "svc.db", workers=1)
        svc.start()  # after the patch: fork inherits it
        try:
            job = svc.submit(spec.to_dict())
            final = wait_terminal(svc, job["id"])
            assert final["state"] == "done"
            [cell] = final["cells"]
            assert cell["attempts"] == 2
            assert cell["retries"] == 1
            assert svc.fleet.restarts >= 1
            kinds = [e.kind for e in svc.job_events(job["id"])]
            assert "svc.cell.requeued" in kinds
            assert svc.metrics_snapshot()["svc.cells.requeued"] == 1
            assert_metrics_count_events(svc, [job["id"]])
            # The eventual result is still the correct deterministic one.
            direct = run_sweep(spec.variants(), spec.workload_factory(),
                               seed=spec.seed)
            assert svc.results(job["id"])[label]["digest"] == \
                result_digest(direct.results[label].to_dict())
        finally:
            svc.shutdown(drain=False)

    def test_persistent_crash_exhausts_retries(self, tmp_path,
                                               monkeypatch):
        spec = tiny_spec(retries=1)
        [label] = spec.labels()
        self._patch_crash(monkeypatch, str(tmp_path / "crashed"), label,
                          once=False)
        svc = SweepService(tmp_path / "svc.db", workers=1)
        svc.start()
        try:
            job = svc.submit(spec.to_dict())
            final = wait_terminal(svc, job["id"])
            assert final["state"] == "failed"
            [cell] = final["cells"]
            assert cell["state"] == "failed"
            assert "crashed" in cell["error"]
            assert "exit code 17" in cell["error"]
            kinds = [e.kind for e in svc.job_events(job["id"])]
            assert kinds[-1] == "svc.job.failed"
        finally:
            svc.shutdown(drain=False)

    def test_sibling_jobs_survive_a_crashing_one(self, tmp_path,
                                                 monkeypatch):
        bad = tiny_spec(retries=0)
        good = tiny_spec(sizes=(256,))
        [label] = bad.labels()
        self._patch_crash(monkeypatch, str(tmp_path / "crashed"), label,
                          once=False)
        # Distinct labels (BS_64 vs BS_256): only the bad cell crashes.
        assert good.labels() != bad.labels()
        svc = SweepService(tmp_path / "svc.db", workers=1)
        svc.start()
        try:
            bad_job = svc.submit(bad.to_dict())
            good_job = svc.submit(good.to_dict())
            assert wait_terminal(svc, bad_job["id"])["state"] == "failed"
            assert wait_terminal(svc, good_job["id"])["state"] == "done"
        finally:
            svc.shutdown(drain=False)

    def _patch_slow_once(self, monkeypatch, flag):
        real = sweep_mod.run_workload

        def wrapper(cfg, workload, **kwargs):
            if not os.path.exists(flag):
                with open(flag, "a") as fh:
                    fh.write("x")
                time.sleep(30)
            return real(cfg, workload, **kwargs)

        monkeypatch.setattr(sweep_mod, "run_workload", wrapper)

    def test_timeout_requeued_and_reported_by_service(self, tmp_path,
                                                      monkeypatch):
        spec = tiny_spec(timeout=1.0, retries=1)
        [label] = spec.labels()
        self._patch_slow_once(monkeypatch, str(tmp_path / "slow"))
        svc = SweepService(tmp_path / "svc.db", workers=1)
        svc.start()
        try:
            job = svc.submit(spec.to_dict())
            final = wait_terminal(svc, job["id"])
            assert final["state"] == "done"
            [cell] = final["cells"]
            assert cell["timeouts"] == 1
            [event] = [e for e in svc.job_events(job["id"])
                       if e.kind == "svc.worker.timeout"]
            assert event.fields["job"] == job["id"]
            assert event.fields["label"] == label
            assert "worker" in event.fields
        finally:
            svc.shutdown(drain=False)

    def test_cancel_running_job_kills_its_worker(self, tmp_path,
                                                 monkeypatch):
        flag = tmp_path / "slow"
        self._patch_slow_once(monkeypatch, str(flag))
        svc = SweepService(tmp_path / "svc.db", workers=1)
        svc.start()
        try:
            job = svc.submit(tiny_spec().to_dict())
            deadline = time.monotonic() + 30
            while not flag.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert flag.exists()  # the cell is running in the worker
            svc.cancel(job["id"])
            assert wait_terminal(svc, job["id"])["state"] == "cancelled"
            # The killed worker is replaced: the next job still runs.
            after = svc.submit(tiny_spec(sizes=(256,)).to_dict())
            assert wait_terminal(svc, after["id"])["state"] == "done"
            assert svc.fleet.restart_count() >= 1
        finally:
            svc.shutdown(drain=False)


@needs_fork
class TestWorkerFleet:
    def test_dispatch_poll_done(self):
        spec = tiny_spec()
        [label] = spec.labels()
        fleet = WorkerFleet(1)
        fleet.start()
        try:
            [cell] = spec.cells()
            assert fleet.dispatch(cell) is not None
            assert fleet.dispatch(cell) is None  # saturated
            deadline = time.monotonic() + 60
            messages = []
            while not messages and time.monotonic() < deadline:
                messages = fleet.poll(wait=0.1)
            [message] = messages
            assert message.kind == "done"
            assert message.item is cell  # the parent's own object
            assert message.item.label == label
            assert message.result.cycles > 0
            assert 0 < message.cpu_time <= message.wall_time
        finally:
            fleet.stop()

    def test_custom_run_and_terminate(self):
        fleet = WorkerFleet(2)
        fleet.start()
        try:
            long_nap, short_nap = _Nap(30.0), _Nap(0.0)
            assert fleet.dispatch(long_nap) is not None
            assert fleet.dispatch(short_nap) is not None
            assert fleet.terminate([long_nap]) == [long_nap]
            deadline = time.monotonic() + 30
            done = []
            while not done and time.monotonic() < deadline:
                done = [m for m in fleet.poll(wait=0.1) if m.kind == "done"]
            [message] = done
            assert message.item is short_nap and message.result == 0.0
            assert fleet.alive_count() == 2  # the killed worker replaced
        finally:
            fleet.stop()

    def test_drain_stops_idle_workers_cleanly(self):
        fleet = WorkerFleet(2)
        fleet.start()
        assert fleet.alive_count() == 2
        fleet.drain(timeout=10.0)
        assert fleet.alive_count() == 0

    def test_killed_worker_is_reported_and_replaced(self):
        spec = tiny_spec(threads=8, units=50)  # long enough to catch
        [label] = spec.labels()
        fleet = WorkerFleet(1)
        fleet.start()
        try:
            [cell] = spec.cells()
            assert fleet.dispatch(cell) is not None
            victim = next(iter(fleet._workers.values()))
            victim.proc.terminate()
            deadline = time.monotonic() + 30
            crashed = []
            while not crashed and time.monotonic() < deadline:
                crashed = [m for m in fleet.poll(wait=0.1)
                           if m.kind == "crashed"]
            [message] = crashed
            assert message.item.label == label
            assert fleet.restarts == 1
            assert fleet.alive_count() == 1  # replacement spawned
        finally:
            fleet.stop()

    @pytest.mark.skipif(not os.path.isdir("/proc"),
                        reason="reads process states from /proc")
    def test_workers_exit_when_parent_is_killed(self):
        # Orphaned workers would hold the probe's stdout open, so read
        # the pid line instead of waiting for the pipe to close.
        probe = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_PROBE], stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC_DIR))
        pids = []
        try:
            pids = [int(pid) for pid in probe.stdout.readline().split()]
            assert len(pids) == 3
            assert probe.wait(timeout=30) == -signal.SIGKILL
            deadline = time.monotonic() + 5
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if _running(pid)] == []
        finally:
            for pid in filter(_running, pids):  # leak nothing on failure
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            if probe.poll() is None:
                probe.kill()
                probe.wait()
            probe.stdout.close()


@contextlib.contextmanager
def _listening(service):
    """A started :class:`SweepServer` over ``service``, closed on exit."""
    server = serve(service, port=0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _client_of(server):
    host, port = server.server_address[:2]
    return ServiceClient(f"http://{host}:{port}")


def _handler_threads():
    return [t for t in threading.enumerate() if t.name == "svc-http"]


class TestHTTPApi:
    @pytest.fixture
    def endpoint(self, service):
        with _listening(service) as server:
            yield _client_of(server)

    def test_full_submit_poll_fetch_cycle(self, endpoint):
        assert endpoint.healthz()["status"] == "ok"
        spec = fig4_spec()
        job = endpoint.submit(spec.to_dict())
        assert job["state"] == "queued"
        final = endpoint.wait(job["id"], timeout=120)
        assert final["state"] == "done"

        results = endpoint.results(job["id"])
        assert set(results) == set(spec.labels())
        direct = run_sweep(spec.variants(), spec.workload_factory(),
                           seed=spec.seed,
                           baseline_label=spec.baseline_label)
        for label, run in direct.results.items():
            assert results[label]["digest"] == \
                result_digest(run.to_dict())

        # label filter + field projection + digests-only
        lock_only = endpoint.results(job["id"], labels=["Lock"])
        assert list(lock_only) == ["Lock"]
        projected = endpoint.results(job["id"], labels=["Lock"],
                                     fields="label,cycles")
        assert set(projected["Lock"]["result"]) == {"label", "cycles"}
        digests = endpoint.results(job["id"], digests_only=True)
        assert all(e["result"] is None for e in digests.values())
        assert all(e["digest"] for e in digests.values())

        events = list(endpoint.events(job["id"]))
        assert events[0]["kind"] == "svc.job.submitted"
        assert events[-1]["kind"] == "svc.job.done"

        listed = endpoint.jobs()
        assert [j["id"] for j in listed] == [job["id"]]
        assert endpoint.metrics()["svc.cells.executed"] == 6

    def test_follow_streams_until_terminal(self, endpoint):
        job = endpoint.submit(tiny_spec().to_dict())
        kinds = [e["kind"] for e in endpoint.events(job["id"],
                                                    follow=True)]
        assert kinds[-1] in ("svc.job.done", "svc.job.failed")
        assert endpoint.job(job["id"])["state"] == "done"

    def test_error_statuses(self, endpoint):
        with pytest.raises(ClientError) as info:
            endpoint.job("ghost")
        assert info.value.status == 404
        with pytest.raises(ClientError) as info:
            endpoint.submit({"workload": "NoSuchThing"})
        assert info.value.status == 400
        with pytest.raises(ClientError) as info:
            endpoint.submit({})
        assert info.value.status == 400
        # A spec whose grid cannot be built is a 400 too, and the server
        # keeps answering afterwards.
        with pytest.raises(ClientError) as info:
            endpoint.submit({"workload": "Mp3d", "bits": 100})
        assert info.value.status == 400
        assert "power of two" in str(info.value)
        # Malformed fields, and a grid the default machine cannot run,
        # are 400s at submission rather than failed cells afterwards.
        for junk in ({"threads": 8.7}, {"threads": True}, {"seed": "12"},
                     {"threads": 33}, {"timeout": "5"}):
            with pytest.raises(ClientError) as info:
                endpoint.submit({"workload": "Mp3d", **junk})
            assert info.value.status == 400, junk
        assert endpoint.healthz()["status"] == "ok"
        job = endpoint.submit(tiny_spec().to_dict())
        endpoint.wait(job["id"], timeout=120)
        with pytest.raises(ClientError) as info:
            endpoint.cancel(job["id"])
        assert info.value.status == 409
        with pytest.raises(ClientError) as info:
            endpoint.cancel("ghost")
        assert info.value.status == 404

    def test_keep_alive_responses_do_not_stall(self, endpoint):
        """Requests on one kept-alive connection are not held by Nagle."""
        url = urlparse(endpoint.base_url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        elapsed = []
        try:
            for _ in range(10):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert json.loads(response.read())["status"] == "ok"
                elapsed.append(time.perf_counter() - start)
        finally:
            conn.close()
        # The first request opens the connection; the stall, when present,
        # hits every later one (about 40 ms of delayed ACK each).
        assert statistics.median(elapsed[1:]) < 0.020, elapsed

    def test_each_response_leaves_in_one_send(self, endpoint, monkeypatch):
        """Headers and body collect in the handler's buffered writer and
        go out in one send, so no response waits on a delayed ACK."""
        url = urlparse(endpoint.base_url)
        sends = []

        def counting(real):
            def send(sock, data, *args):
                if sock.getsockname()[1] == url.port:  # the server's end
                    sends.append(len(data))
                return real(sock, data, *args)
            return send

        for name in ("send", "sendall"):
            monkeypatch.setattr(socket.socket, name,
                                counting(getattr(socket.socket, name)))

        def request(method, path, body=None):
            del sends[:]
            conn = http.client.HTTPConnection(url.hostname, url.port,
                                              timeout=30)
            try:
                conn.request(method, path, body=body)
                response = conn.getresponse()
                payload = response.read()
            finally:
                conn.close()
            assert len(sends) == 1, (method, path, sends)
            return response.status, json.loads(payload)

        assert request("GET", "/healthz")[0] == 200
        status, job = request("POST", "/sweeps",
                              json.dumps(tiny_spec().to_dict()))
        assert status == 201
        endpoint.wait(job["id"], timeout=120)
        assert request("GET", f"/sweeps/{job['id']}")[0] == 200
        assert request("GET", f"/sweeps/{job['id']}/results")[0] == 200
        assert request("GET", "/sweeps/ghost")[0] == 404

    def test_sequential_requests_share_one_handler_thread(self, service,
                                                          monkeypatch):
        """A connection goes to an idle handler thread when there is
        one: twenty requests in a row start one thread, not twenty."""
        served = []
        finish = SweepServer.finish_request

        def recording(server, request, client_address):
            served.append(threading.current_thread())
            finish(server, request, client_address)

        monkeypatch.setattr(SweepServer, "finish_request", recording)
        before = set(_handler_threads())
        with _listening(service) as server:
            client = _client_of(server)
            for _ in range(20):
                assert client.healthz()["status"] == "ok"
                # The client has its response before the handler thread
                # has closed the connection and gone back to waiting.
                deadline = time.monotonic() + 5
                while server._idle == 0 and time.monotonic() < deadline:
                    time.sleep(0.001)
            assert len(served) == 20
            assert len(set(served)) == 1
            assert set(_handler_threads()) - before == set(served)

    def test_polls_complete_while_an_event_stream_is_open(self, tmp_path):
        """A followed stream holds its handler thread until the job ends;
        requests on other connections get threads of their own."""
        # Never started, so its scheduler claims nothing: the job stays
        # queued and its stream open until the cancel.
        idle = SweepService(tmp_path / "idle.db", workers=1)
        try:
            with _listening(idle) as server:
                client = _client_of(server)
                job = client.submit(tiny_spec().to_dict())
                stream = client.events(job["id"], follow=True)
                assert next(stream)["kind"] == "svc.job.submitted"
                for _ in range(5):
                    assert client.job(job["id"])["state"] == "queued"
                    assert client.healthz()["status"] == "ok"
                assert client.cancel(job["id"])["state"] == "cancelled"
                assert [e["kind"] for e in stream] == ["svc.job.cancelled"]
        finally:
            idle.shutdown(drain=False)

    def test_server_close_releases_idle_handler_threads(self, service):
        before = set(_handler_threads())
        with _listening(service) as server:
            client = _client_of(server)
            for _ in range(3):
                assert client.healthz()["status"] == "ok"
            assert set(_handler_threads()) - before
        deadline = time.monotonic() + 5
        while (set(_handler_threads()) - before
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert set(_handler_threads()) - before == set()

    def test_unreachable_server(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=1.0)
        with pytest.raises(ClientError) as info:
            client.healthz()
        assert info.value.status == 0


class _FakeClock:
    """``time.monotonic`` and ``time.sleep`` for ``repro.svc.client``."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class TestClientWait:
    def _client(self, monkeypatch, states):
        clock = _FakeClock()
        monkeypatch.setattr(client_mod, "time", clock)
        client = ServiceClient("http://127.0.0.1:9")
        monkeypatch.setattr(
            client, "job",
            lambda job_id: {"id": job_id, "state": next(states)})
        return client, clock

    def test_poll_pause_doubles_from_5ms_to_250ms(self, monkeypatch):
        states = iter(["queued"] + ["running"] * 8 + ["done"])
        client, clock = self._client(monkeypatch, states)
        assert client.wait("j1")["state"] == "done"
        assert clock.sleeps == pytest.approx(
            [0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.25, 0.25, 0.25])

    def test_deadline_still_raises(self, monkeypatch):
        client, clock = self._client(monkeypatch, iter(
            lambda: "running", None))
        with pytest.raises(ClientError) as info:
            client.wait("j1", timeout=2.0)
        assert "still 'running' after 2s" in str(info.value)
        assert 2.0 <= clock.now < 2.0 + 0.25
