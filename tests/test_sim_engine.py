"""Tests for the discrete-event kernel (engine, futures, resources)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DeadlockError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.future import Future, Signal
from repro.sim.resources import SimLock


class TestScheduling:
    def test_actions_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(10, lambda: order.append("b"))
        sim.schedule(5, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 20

    def test_fifo_among_equal_times(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(7, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_until_stops_early(self):
        sim = Simulator()
        hits = []
        sim.schedule(5, lambda: hits.append(5))
        sim.schedule(50, lambda: hits.append(50))
        sim.run(until=10)
        assert hits == [5]
        assert sim.now == 10
        sim.run()
        assert hits == [5, 50]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)


class TestProcesses:
    def test_delay_yields_advance_time(self):
        sim = Simulator()

        def proc():
            yield 10
            yield 5
            return "done"

        p = sim.spawn(proc())
        sim.run()
        assert p.done.done
        assert p.done.value == "done"
        assert sim.now == 15

    def test_future_wait_and_resume_value(self):
        sim = Simulator()
        fut = Future("f")
        seen = []

        def waiter():
            value = yield fut
            seen.append((sim.now, value))

        sim.spawn(waiter())
        sim.schedule(42, lambda: fut.resolve("payload"))
        sim.run()
        assert seen == [(42, "payload")]

    def test_yield_from_composition(self):
        sim = Simulator()

        def inner():
            yield 3
            return 7

        def outer():
            value = yield from inner()
            yield 2
            return value + 1

        p = sim.spawn(outer())
        sim.run()
        assert p.done.value == 8
        assert sim.now == 5

    def test_bad_yield_type_raises(self):
        sim = Simulator()

        def proc():
            yield "nope"

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until_done_detects_deadlock(self):
        sim = Simulator()
        fut = Future("never")

        def stuck():
            yield fut

        p = sim.spawn(stuck())
        with pytest.raises(DeadlockError):
            sim.run_until_done([p])

    def test_run_until_done_respects_limit(self):
        sim = Simulator()

        def slow():
            yield 10_000

        p = sim.spawn(slow())
        with pytest.raises(DeadlockError):
            sim.run_until_done([p], limit=100)


N_FUTURES = 3
N_ACTIONS = 6
_delays = st.integers(min_value=0, max_value=3)
# An action's ops: schedule a later action (by offset, so the plan
# terminates), resolve a future (waking its waiters) or spawn a process.
_ops = st.one_of(
    st.tuples(st.just("schedule"), _delays, st.integers(0, N_ACTIONS - 1)),
    st.tuples(st.just("resolve"), st.integers(0, N_FUTURES - 1)),
    st.tuples(st.just("spawn"), st.integers(0, 3)),
)
_steps = st.one_of(st.tuples(st.just("delay"), _delays),
                   st.tuples(st.just("wait"), st.integers(0, N_FUTURES - 1)))
_plans = st.fixed_dictionaries({
    "roots": st.lists(st.tuples(_delays, st.integers(0, N_ACTIONS - 1)),
                      min_size=1, max_size=6),
    "actions": st.lists(st.lists(_ops, max_size=3),
                        min_size=N_ACTIONS, max_size=N_ACTIONS),
    "procs": st.lists(st.lists(_steps, max_size=4), min_size=4, max_size=4),
    "starts": st.lists(st.integers(0, 3), max_size=3),
})


class _OrderProbe:
    """Runs a random plan and logs every schedule and every execution.

    Each schedule the kernel makes (an explicit ``schedule``, a spawn, a
    process's delay yield, a future waking a waiter) is logged as
    ``(when, ticket)`` just before the kernel draws its sequence number,
    so tickets are drawn in the kernel's ``seq`` order. The entry that
    runs logs ``(now, ticket)``.
    """

    def __init__(self, plan):
        self.plan = plan
        self.sim = Simulator()
        self.scheduled, self.ran = [], []
        self.futures = [Future(f"f{i}") for i in range(N_FUTURES)]
        self.waiters = [[] for _ in range(N_FUTURES)]

    def _ticket(self, delay):
        self.scheduled.append((self.sim.now + delay, len(self.scheduled)))
        return len(self.scheduled) - 1

    def schedule(self, delay, index):
        ticket = self._ticket(delay)
        self.sim.schedule(delay, lambda: self._act(index, ticket))

    def spawn(self, index):
        ticket = self._ticket(0)
        self.sim.spawn(self._process(self.plan["procs"][index], ticket))

    def _act(self, index, ticket):
        self.ran.append((self.sim.now, ticket))
        for op in self.plan["actions"][index]:
            if op[0] == "schedule" and index + 1 + op[2] < N_ACTIONS:
                self.schedule(op[1], index + 1 + op[2])
            elif op[0] == "resolve" and not self.futures[op[1]].done:
                for cell in self.waiters[op[1]]:
                    cell.append(self._ticket(0))
                self.futures[op[1]].resolve(None)
            elif op[0] == "spawn":
                self.spawn(op[1])

    def _process(self, script, ticket):
        self.ran.append((self.sim.now, ticket))
        for kind, arg in script:
            if kind == "delay":
                ticket = self._ticket(arg)
                yield arg
            elif self.futures[arg].done:
                ticket = self._ticket(0)
                yield self.futures[arg]
            else:
                cell = []
                self.waiters[arg].append(cell)
                yield self.futures[arg]
                ticket = cell[0]
            self.ran.append((self.sim.now, ticket))


def _reference_order(scheduled):
    """The kernel's contract: every scheduled entry runs once, at its
    ``when``, in ascending ``(when, seq)`` order. An entry scheduled while
    another runs has ``when >= now`` and a larger ``seq``, so the whole
    run is one ascending sequence: the sorted list of every schedule."""
    return sorted(scheduled)


class TestOrderingContract:
    @settings(max_examples=200, deadline=None)
    @given(_plans)
    def test_execution_matches_when_seq_reference(self, plan):
        probe = _OrderProbe(plan)
        for delay, index in plan["roots"]:
            probe.schedule(delay, index)
        for index in plan["starts"]:
            probe.spawn(index)
        probe.sim.run()
        assert probe.ran == _reference_order(probe.scheduled)
        assert probe.sim.events_executed == len(probe.ran)


class TestFuture:
    def test_double_resolve_rejected(self):
        fut = Future("x")
        fut.resolve(1)
        with pytest.raises(SimulationError):
            fut.resolve(2)

    def test_value_before_resolve_rejected(self):
        with pytest.raises(SimulationError):
            Future("x").value

    def test_callback_after_resolve_runs_immediately(self):
        fut = Future("x")
        fut.resolve(9)
        seen = []
        fut.add_callback(seen.append)
        assert seen == [9]


class TestSignal:
    def test_fire_wakes_all_current_waiters(self):
        sig = Signal("s")
        futs = [sig.wait() for _ in range(3)]
        assert sig.fire("v") == 3
        assert all(f.done and f.value == "v" for f in futs)

    def test_fire_does_not_affect_later_waiters(self):
        sig = Signal("s")
        sig.fire()
        fut = sig.wait()
        assert not fut.done
        assert sig.fire() == 1 and fut.done


class TestSimLock:
    def test_mutual_exclusion_and_fifo(self):
        sim = Simulator()
        lock = SimLock("l")
        trace = []

        def worker(name, hold):
            yield from lock.acquire()
            trace.append(("acq", name, sim.now))
            yield hold
            trace.append(("rel", name, sim.now))
            lock.release()

        sim.spawn(worker("a", 10))
        sim.spawn(worker("b", 10))
        sim.spawn(worker("c", 10))
        sim.run()
        # Strict alternation: acquire happens only after previous release.
        assert [t[0] for t in trace] == ["acq", "rel"] * 3
        assert [t[1] for t in trace] == ["a", "a", "b", "b", "c", "c"]

    def test_release_unheld_raises(self):
        with pytest.raises(SimulationError):
            SimLock().release()
