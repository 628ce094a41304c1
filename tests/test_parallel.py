"""Tests for the sweep engine (serial and parallel) and its result store."""

import json
import multiprocessing
import os
import sqlite3
import time

import pytest

from repro import workloads
from repro.common.config import SignatureKind, SystemConfig
from repro.harness import fleet as fleet_mod
from repro.harness import sweep as sweep_mod
from repro.harness.runner import run_workload
from repro.harness.sweep import (Cell, SweepExecutionError, SweepResult,
                                 code_version, execute_tasks, run_sweep,
                                 workload_fingerprint)
from repro.svc.repository import RunRepository
from repro.svc.spec import SweepSpec
from repro.workloads import BigFootprint, SharedCounter, Workload

#: Every workload the package exports.
CATALOG = [cls for cls in vars(workloads).values()
           if isinstance(cls, type) and issubclass(cls, Workload)
           and cls is not Workload]


def small():
    return SystemConfig.small(num_cores=2, threads_per_core=1)


def factory():
    return SharedCounter(num_threads=2, units_per_thread=3)


def variants():
    return [("a", small()),
            ("b", small().with_signature(SignatureKind.BIT_SELECT,
                                         bits=64))]


class TestDeterminism:
    def test_jobs2_equals_serial(self):
        serial = run_sweep(variants(), factory)
        parallel = run_sweep(variants(), factory, jobs=2)
        assert parallel == serial
        assert parallel.labels() == serial.labels()
        # Full-depth check, independent of dataclass __eq__ details.
        assert parallel.to_dict()["results"] == serial.to_dict()["results"]

    def test_meta_on_every_path(self):
        for jobs in (1, 2):
            meta = run_sweep(variants(), factory, jobs=jobs).meta
            assert meta["jobs"] == jobs
            assert meta["cache"] == {"hits": 0, "misses": 2,
                                     "enabled": False}
            assert set(meta["variants"]) == {"a", "b"}

    def test_jobs_auto(self):
        sweep = run_sweep(variants(), factory, jobs=0)
        assert sweep.meta["jobs"] >= 1

    def test_parallel_validates_like_serial(self):
        with pytest.raises(ValueError):
            run_sweep([("x", small()), ("x", small())], factory, jobs=2)
        with pytest.raises(ValueError):
            run_sweep(variants(), factory, jobs=2, baseline_label="nope")

    def test_spawned_workers_equal_serial(self, monkeypatch):
        # Cells are sent to workers as values, so a fleet that spawns its
        # workers (inheriting nothing) gives the inline results.
        serial = run_sweep(variants(), factory)
        monkeypatch.setattr(fleet_mod, "_mp_context",
                            lambda: multiprocessing.get_context("spawn"))
        spawned = run_sweep(variants(), factory, jobs=2)
        assert spawned == serial
        assert spawned.to_dict()["results"] == serial.to_dict()["results"]


class TestResultCache:
    """Sweeps against the result store (a :class:`RunRepository`)."""

    def test_cold_then_warm(self, tmp_path):
        cache = RunRepository(tmp_path / "sweeps.db")
        cold = run_sweep(variants(), factory, cache=cache)
        assert cold.meta["cache"] == {"hits": 0, "misses": 2,
                                      "enabled": True}
        warm = run_sweep(variants(), factory, cache=cache)
        assert warm.meta["cache"] == {"hits": 2, "misses": 0,
                                      "enabled": True}
        assert warm == cold
        assert all(v["cached"] for v in warm.meta["variants"].values())

    def test_cache_hit_skips_execution(self, tmp_path, monkeypatch):
        cache = RunRepository(tmp_path / "sweeps.db")
        run_sweep(variants(), factory, cache=cache)

        def exploding(*args, **kwargs):
            raise AssertionError("run_workload must not execute on a hit")

        monkeypatch.setattr(sweep_mod, "run_workload", exploding)
        warm = run_sweep(variants(), factory, cache=cache)
        assert warm.meta["cache"]["hits"] == 2
        assert all(v["attempts"] == 0
                   for v in warm.meta["variants"].values())

    def test_partial_cache_runs_only_missing_cells(self, tmp_path):
        cache = RunRepository(tmp_path / "sweeps.db")
        run_sweep(variants()[:1], factory, cache=cache)
        sweep = run_sweep(variants(), factory, cache=cache)
        per = sweep.meta["variants"]
        assert per["a"]["cached"] and not per["b"]["cached"]

    def test_key_sensitivity(self):
        def key(cfg=None, workload=None, seed=1, label="x"):
            return Cell(label, cfg or small(), workload or factory(),
                        seed=seed).key

        base = key()
        assert base == key()
        assert base != key(seed=2)
        assert base != key(label="y")
        other_cfg = small().with_signature(SignatureKind.BIT_SELECT, bits=64)
        assert base != key(cfg=other_cfg)
        other_wl = SharedCounter(num_threads=2, units_per_thread=4)
        assert base != key(workload=other_wl)
        # The trace directory is where artifacts land, not part of the run.
        traced = Cell("x", small(), factory(), seed=1, trace_dir="out")
        assert traced.key == base

    def test_constructor_arguments_reach_the_key(self, tmp_path):
        # blocks_per_sweep is not in describe(): before the fingerprint
        # hashed the instance, the 96-block sweep returned the stored
        # 32-block result.
        cache = RunRepository(tmp_path / "sweeps.db")
        perfect = [("Perfect", small())]

        def footprint(blocks):
            return lambda: BigFootprint(num_threads=2, units_per_thread=2,
                                        blocks_per_sweep=blocks)

        small_sweep = run_sweep(perfect, footprint(32), cache=cache)
        big_sweep = run_sweep(perfect, footprint(96), cache=cache)
        assert big_sweep.meta["cache"]["hits"] == 0
        assert big_sweep == run_sweep(perfect, footprint(96))
        assert big_sweep.cycles("Perfect") != small_sweep.cycles("Perfect")
        again = run_sweep(perfect, footprint(96), cache=cache)
        assert again.meta["cache"]["hits"] == 1
        assert again == big_sweep

    @pytest.mark.parametrize("cls", CATALOG, ids=lambda cls: cls.name)
    def test_fresh_instances_fingerprint_equally(self, cls):
        def make():
            return cls(num_threads=4, units_per_thread=2)

        assert workload_fingerprint(make()) == workload_fingerprint(make())
        # Workloads are values: running one changes neither its result
        # on a second run nor its fingerprint, so a cell may hold (and
        # several cells may share) one instance.
        workload = make()
        before = workload_fingerprint(workload)
        cfg = SystemConfig.small()
        first = run_workload(cfg, workload).to_dict()
        assert run_workload(cfg, workload).to_dict() == first
        assert workload_fingerprint(workload) == before

    def test_code_version_stable_and_short(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestFailureHandling:
    def _patch(self, monkeypatch, hook):
        real = run_workload

        def wrapper(cfg, workload, **kwargs):
            hook(kwargs.get("config_label", ""))
            return real(cfg, workload, **kwargs)

        monkeypatch.setattr(sweep_mod, "run_workload", wrapper)

    def test_crash_retries_then_surfaces_error(self, monkeypatch):
        self._patch(monkeypatch,
                    lambda label: os._exit(13) if label == "b" else None)
        with pytest.raises(SweepExecutionError) as info:
            run_sweep(variants(), factory, jobs=2, retries=1)
        err = info.value
        # The sibling's result is preserved, and the error is explicit
        # about what crashed and how often it was tried.
        assert set(err.completed) == {"a"}
        assert err.completed["a"].commits > 0
        assert "exit code 13" in err.failures["b"]
        assert "2 attempt(s)" in err.failures["b"]

    def test_crash_once_then_succeeds_on_retry(self, monkeypatch, tmp_path):
        flag = tmp_path / "crashed-once"

        def crash_first_time(label):
            if label == "b" and not flag.exists():
                flag.write_text("x")
                os._exit(13)

        serial = run_sweep(variants(), factory)
        self._patch(monkeypatch, crash_first_time)
        sweep = run_sweep(variants(), factory, jobs=2, retries=1)
        assert sweep == serial
        assert sweep.meta["variants"]["b"]["attempts"] == 2

    def test_worker_exception_not_retried(self, monkeypatch):
        def raise_on_b(label):
            if label == "b":
                raise ValueError("deliberate model failure")

        self._patch(monkeypatch, raise_on_b)
        with pytest.raises(SweepExecutionError) as info:
            run_sweep(variants(), factory, jobs=2, retries=5)
        assert set(info.value.completed) == {"a"}
        assert "deliberate model failure" in info.value.failures["b"]

    def test_timeout_kills_variant_keeps_siblings(self, monkeypatch):
        self._patch(monkeypatch,
                    lambda label: time.sleep(30) if label == "b" else None)
        with pytest.raises(SweepExecutionError) as info:
            run_sweep(variants(), factory, jobs=2, timeout=1.0)
        assert set(info.value.completed) == {"a"}
        assert "timed out" in info.value.failures["b"]

    def test_inline_failure_keeps_siblings(self, monkeypatch, tmp_path):
        # jobs=1 without timeout runs in-process; failures behave the same,
        # with or without a store.
        def raise_on_b(label):
            if label == "b":
                raise ValueError("inline failure")

        self._patch(monkeypatch, raise_on_b)
        for cache in (None, RunRepository(tmp_path / "sweeps.db")):
            with pytest.raises(SweepExecutionError) as info:
                run_sweep(variants(), factory, jobs=1, cache=cache)
            assert set(info.value.completed) == {"a"}


class TestOneEngine:
    """Every path validates first and runs its cells through ``Cell.run``,
    which calls this module's ``run_workload``."""

    def _count(self, monkeypatch):
        calls = []
        real = run_workload

        def wrapper(cfg, workload, **kwargs):
            calls.append(kwargs.get("config_label", ""))
            return real(cfg, workload, **kwargs)

        monkeypatch.setattr(sweep_mod, "run_workload", wrapper)
        return calls

    def test_serial_validation_precedes_every_cell(self, monkeypatch):
        calls = self._count(monkeypatch)
        with pytest.raises(ValueError, match="baseline"):
            run_sweep(variants(), factory, jobs=1, baseline_label="nope")
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep([("x", small()), ("x", small())], factory, jobs=1)
        assert calls == []

    def test_sweep_and_spec_cells_run_each_cell_once(self, monkeypatch):
        calls = self._count(monkeypatch)
        run_sweep(variants(), factory, jobs=1)
        assert calls == ["a", "b"]
        spec = SweepSpec(workload="Mp3d", mode="sizes", sizes=(64, 256),
                         threads=2, units=1)
        calls.clear()
        for cell in spec.cells():
            cell.run()
        assert calls == spec.labels()


class TestExecuteTasks:
    def _cells(self):
        return [(label, Cell(label, cfg, factory()))
                for label, cfg in variants()]

    def test_order_preserved(self):
        outcomes = execute_tasks(self._cells(), jobs=2)
        assert list(outcomes) == ["a", "b"]
        assert all(o.attempts == 1 and not o.cached
                   for o in outcomes.values())
        assert all(o.wall_time > 0 for o in outcomes.values())

    def test_duplicate_keys_rejected(self):
        cells = self._cells()
        cells[1] = (cells[0][0], cells[1][1])
        with pytest.raises(ValueError):
            execute_tasks(cells)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            execute_tasks(self._cells(), jobs=-1)
        with pytest.raises(ValueError):
            execute_tasks(self._cells(), retries=-1)


class TestJsonRoundTrip:
    def test_sweep_result_round_trips(self):
        sweep = run_sweep(variants(), factory, jobs=2,
                          baseline_label="a")
        encoded = json.dumps(sweep.to_dict())
        back = SweepResult.from_dict(json.loads(encoded))
        assert back == sweep
        assert back.baseline_label == "a"
        assert back.meta["jobs"] == 2
        assert back.speedup("b") == sweep.speedup("b")

    def test_histograms_survive(self):
        sweep = run_sweep(variants()[:1], factory)
        back = SweepResult.from_dict(json.loads(json.dumps(sweep.to_dict())))
        orig = sweep.results["a"].histograms
        assert back.results["a"].histograms == orig
        assert orig  # the run must actually have produced histograms


class TestCacheEviction:
    """The store's LRU ``prune``."""

    def _fill(self, store, n):
        result = run_workload(small(), factory(), config_label="a")
        keys = []
        for i in range(n):
            key = Cell("a", small(), factory(), seed=i).key
            store.store_run(key, result)
            keys.append(key)
        return keys

    def test_unbounded_by_default(self, tmp_path):
        store = RunRepository(tmp_path / "sweeps.db")
        self._fill(store, 5)
        assert store.run_count() == 5

    def test_lru_not_fifo_hits_refresh_recency(self, tmp_path):
        store = RunRepository(tmp_path / "sweeps.db")
        keys = self._fill(store, 4)
        # Age the runs explicitly, oldest first, so the order does not
        # hang on clock resolution.
        conn = sqlite3.connect(store.path)
        with conn:
            for i, key in enumerate(keys):
                conn.execute("UPDATE runs SET last_used = ? "
                             "WHERE cache_key = ?", (i, key))
        conn.close()
        assert store.load_run(keys[0]) is not None  # touch the oldest
        assert store.prune(max_entries=2) == 2
        assert store.load_run(keys[0]) is not None  # survived: recently used
        assert store.load_run(keys[3]) is not None
        assert store.load_run(keys[1]) is None
        assert store.load_run(keys[2]) is None

    def test_prune_reports_and_counts(self, tmp_path):
        store = RunRepository(tmp_path / "sweeps.db")
        self._fill(store, 5)
        assert store.prune(max_entries=2) == 3
        assert store.prune(max_entries=2) == 0  # already within cap
        assert store.run_count() == 2

    def test_invalid_cap_rejected(self, tmp_path):
        store = RunRepository(tmp_path / "sweeps.db")
        self._fill(store, 3)
        with pytest.raises(ValueError):
            store.prune(max_entries=-1)
        assert store.run_count() == 3  # nothing evicted


class TestRetryAndTimeoutMeta:
    """SweepResult meta surfaces per-variant retry counts; timeouts fail."""

    def _patch(self, monkeypatch, hook):
        real = run_workload

        def wrapper(cfg, workload, **kwargs):
            hook(kwargs.get("config_label", ""))
            return real(cfg, workload, **kwargs)

        monkeypatch.setattr(sweep_mod, "run_workload", wrapper)

    def test_clean_run_reports_zero_counts(self):
        meta = run_sweep(variants(), factory, jobs=2).meta
        assert meta["retries"] == 0
        for per in meta["variants"].values():
            assert per["retries"] == 0

    def test_crash_retry_is_counted(self, monkeypatch, tmp_path):
        flag = tmp_path / "crashed-once"

        def crash_first_time(label):
            if label == "b" and not flag.exists():
                flag.write_text("x")
                os._exit(13)

        self._patch(monkeypatch, crash_first_time)
        meta = run_sweep(variants(), factory, jobs=2, retries=1).meta
        assert meta["variants"]["b"]["retries"] == 1
        assert meta["variants"]["a"]["retries"] == 0
        assert meta["retries"] == 1

    def test_timeout_not_retried_by_default(self, monkeypatch):
        self._patch(monkeypatch,
                    lambda label: time.sleep(30) if label == "b" else None)
        with pytest.raises(SweepExecutionError) as info:
            run_sweep(variants(), factory, jobs=2, timeout=1.0, retries=3)
        assert "timed out" in info.value.failures["b"]
        assert "1 attempt(s)" in info.value.failures["b"]
