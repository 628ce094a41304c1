"""Tests for the bus-fed event log and its wiring into the system."""

import pytest

from repro.common.config import SystemConfig
from repro.harness.runner import run_workload
from repro.harness.system import System
from repro.obs.analysis import reconstruct
from repro.workloads import SharedCounter


class TestTraceRecorder:
    """The :class:`RingBufferLog` that ``System.attach_bus`` returns."""

    def _recorder(self, **kwargs):
        """(bus, log, sim): the test moves ``sim.now`` by hand."""
        system = System(SystemConfig.small(num_cores=1, threads_per_core=1),
                        seed=1)
        bus, log = system.attach_bus(**kwargs)
        return bus, log, system.sim

    def test_records_with_time(self):
        bus, log, sim = self._recorder()
        sim.now = 42
        bus.record("tm.begin", thread=1, depth=1)
        assert len(log) == 1
        event = log.events()[0]
        assert event.time == 42
        assert event.kind == "tm.begin"
        assert event.fields["thread"] == 1

    def test_kind_filter(self):
        bus, log, _ = self._recorder(kinds={"tm.commit"})
        bus.record("tm.begin", thread=1)
        bus.record("tm.commit", thread=1)
        assert [e.kind for e in log.events()] == ["tm.commit"]

    def test_ring_buffer_drops_oldest(self):
        bus, log, sim = self._recorder(max_events=3)
        for i in range(5):
            sim.now = i
            bus.record("x", i=i)
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.fields["i"] for e in log.events()] == [2, 3, 4]

    def test_query_by_thread(self):
        bus, log, _ = self._recorder()
        bus.record("tm.stall", thread=1)
        bus.record("tm.stall", thread=2)
        assert len(log.events(kind="tm.stall", thread=2)) == 1

    def test_transactions_reconstruction(self):
        bus, log, sim = self._recorder()
        sim.now = 10
        bus.record("tm.begin", thread=0, depth=1)
        sim.now = 15
        bus.record("tm.stall", thread=0)
        sim.now = 30
        bus.record("tm.abort", thread=0, undone=2)
        sim.now = 40
        bus.record("tm.begin", thread=0, depth=1)
        sim.now = 55
        bus.record("tm.commit", thread=0, outer=True)
        attempts = reconstruct(log.events(), thread=0)
        assert len(attempts) == 2
        assert attempts[0].outcome == "abort"
        assert attempts[0].stalls == 1
        assert [(a.start, a.end, a.outcome, a.stalls)
                for a in attempts[1:]] == [(40, 55, "commit", 0)]

    def test_nested_begin_not_new_attempt(self):
        bus, log, _ = self._recorder()
        bus.record("tm.begin", thread=0, depth=1)
        bus.record("tm.begin", thread=0, depth=2)
        bus.record("tm.commit", thread=0, outer=False)
        bus.record("tm.commit", thread=0, outer=True)
        assert len(reconstruct(log.events(), thread=0)) == 1

    def test_render_and_counts(self):
        bus, log, _ = self._recorder()
        bus.record("a", x=1)
        bus.record("a")
        bus.record("b")
        assert log.counts() == {"a": 2, "b": 1}
        assert "a x=1" in log.render()

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            self._recorder(max_events=0)


class TestSystemWiring:
    def test_run_with_tracer_captures_lifecycle(self):
        cfg = SystemConfig.small(num_cores=2, threads_per_core=1)
        system = System(cfg, seed=1)
        _bus, log = system.attach_bus()
        threads = system.place_threads(2)
        slot = threads[0].slot
        proc = system.sim.spawn(system.manager.begin(slot))
        system.sim.run()
        proc = system.sim.spawn(system.manager.commit(slot))
        system.sim.run()
        kinds = log.counts()
        assert kinds.get("tm.begin") == 1
        assert kinds.get("tm.commit") == 1

    def test_full_workload_trace(self):
        cfg = SystemConfig.small(num_cores=2, threads_per_core=2)
        system = System(cfg, seed=1)
        _bus, log = system.attach_bus()
        # run_workload builds its own system, so drive manually.
        from repro.common.rng import make_rng
        from repro.cpu.executor import ThreadExecutor
        wl = SharedCounter(num_threads=4, units_per_thread=3,
                           compute_between=20)
        threads = system.place_threads(4)
        procs = []
        for i, t in enumerate(threads):
            rng = make_rng(1, "t", i)
            ex = ThreadExecutor(cfg, t, system.manager,
                                wl.program(i, rng), rng, system.stats)
            procs.append(system.sim.spawn(ex.run()))
        system.sim.run_until_done(procs, limit=10_000_000)
        commits = log.events(kind="tm.commit")
        assert len(commits) == 12
        for tid in range(4):
            attempts = reconstruct(log.events(), thread=tid)
            outcomes = [a.outcome for a in attempts]
            assert outcomes.count("commit") == 3
            assert all(a.duration > 0 for a in attempts)

    def test_no_recorder_is_free(self):
        cfg = SystemConfig.small(num_cores=1, threads_per_core=1)
        system = System(cfg, seed=1)
        assert system.stats.recorder is None
        system.stats.emit("anything", x=1)  # must not raise
