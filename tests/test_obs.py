"""Tests for the observability subsystem (:mod:`repro.obs`).

Covers the typed event taxonomy, the bus and its sinks, the analyzers
(lifecycle reconstruction, conflict graph, abort attribution), the exporters (JSONL, Chrome Trace Event), the log's query
surface, and cross-layer event emission from the real machine (coherence
directory/snooping, OS model, undo log, interconnect).
"""

import json

import pytest

from dataclasses import replace

from repro.common.config import CoherenceStyle, SignatureKind, SystemConfig
from repro.common.rng import make_rng
from repro.cpu.executor import ThreadExecutor
from repro.harness.runner import run_workload
from repro.harness.system import System
from repro.obs import (CATEGORIES, AbortAttribution, ConflictGraph, Event,
                       EventBus, JsonlWriter, RingBufferLog, attribute_aborts,
                       attribute_stalls, chrome_trace, classify_abort,
                       dominant_via, event_from_dict, export_chrome_trace,
                       export_jsonl, load_jsonl, namespace_of, reconstruct,
                       render_attribution, validate_chrome_trace,
                       validate_kind)
from repro.obs.events import NAMESPACES, TAXONOMY
from repro.workloads import BigFootprint, SharedCounter


class TestEvents:
    def test_taxonomy_kinds_use_known_namespaces(self):
        for kind in TAXONOMY:
            assert namespace_of(kind) in NAMESPACES

    def test_validate_kind(self):
        validate_kind("tm.commit")
        with pytest.raises(ValueError, match="unknown event kind"):
            validate_kind("tm.typo")

    def test_event_str_matches_legacy_format(self):
        event = Event(42, "tm.begin", {"thread": 1, "depth": 1})
        assert str(event) == "[42] tm.begin depth=1 thread=1"

    def test_dict_round_trip(self):
        event = Event(7, "coh.nack", {"block": 3, "blockers": [(1, True,
                                                                "sticky")]})
        rebuilt = event_from_dict(json.loads(json.dumps(event.to_dict())))
        assert rebuilt.time == 7 and rebuilt.kind == "coh.nack"
        assert rebuilt.namespace == "coh"


class TestEventBus:
    def _bus(self):
        clock = {"now": 0}
        return EventBus(clock=lambda: clock["now"]), clock

    def test_fan_out_to_all_subscribers(self):
        bus, _ = self._bus()
        seen_a, seen_b = [], []
        bus.subscribe(seen_a.append)
        bus.subscribe(seen_b.append)
        bus.record("tm.begin", thread=0)
        assert len(seen_a) == len(seen_b) == 1
        assert bus.emitted == 1

    def test_kind_and_namespace_filters(self):
        bus, _ = self._bus()
        by_kind, by_ns, both = [], [], []
        bus.subscribe(by_kind.append, kinds={"tm.commit"})
        bus.subscribe(by_ns.append, namespaces={"coh"})
        bus.subscribe(both.append, kinds={"net.msg"}, namespaces={"tm"})
        bus.record("tm.commit", thread=0)
        bus.record("coh.nack", block=1)
        bus.record("net.msg", route="core_to_bank")
        assert [e.kind for e in by_kind] == ["tm.commit"]
        assert [e.kind for e in by_ns] == ["coh.nack"]
        # kinds and namespaces union: tm.* events and net.msg both match.
        assert [e.kind for e in both] == ["tm.commit", "net.msg"]

    def test_strict_mode_rejects_unknown_kinds(self):
        clock = {"now": 0}
        bus = EventBus(clock=lambda: clock["now"], strict=True)
        bus.record("tm.commit", thread=0)
        with pytest.raises(ValueError):
            bus.record("tm.typo")

    def test_record_uses_clock(self):
        bus, clock = self._bus()
        seen = []
        bus.subscribe(seen.append)
        clock["now"] = 99
        bus.record("tm.begin", thread=0)
        assert seen[0].time == 99


class TestRingBufferLog:
    def test_namespace_filter(self):
        log = RingBufferLog(kinds={"tm", "coh.nack"})
        for kind in ("tm.begin", "tm.commit", "coh.nack", "coh.grant",
                     "net.msg"):
            log.append(Event(0, kind))
        assert sorted(log.counts()) == ["coh.nack", "tm.begin", "tm.commit"]


class TestClassification:
    def test_non_conflict_causes_are_other(self):
        for cause in ("preemption", "squash", "explicit", None):
            assert classify_abort(cause, fp=True, via="sticky") == "other"

    def test_precedence(self):
        assert classify_abort("summary", fp=True) == "summary"
        assert classify_abort("conflict", fp=True, via="sticky") \
            == "false_positive"
        assert classify_abort("conflict", via="sticky") == "sticky"
        assert classify_abort("conflict", via="broadcast") == "capacity"
        assert classify_abort("conflict") == "true_conflict"
        assert classify_abort("remote") == "true_conflict"

    def test_dominant_via(self):
        assert dominant_via(["targeted", "broadcast", "sticky"]) == "sticky"
        assert dominant_via(["targeted", "broadcast"]) == "broadcast"
        assert dominant_via(["targeted"]) == "targeted"
        assert dominant_via([]) == "targeted"


class TestReconstruct:
    def _stream(self):
        return [
            Event(10, "tm.begin", {"thread": 0, "depth": 1}),
            Event(12, "tm.begin", {"thread": 1, "depth": 1}),
            Event(15, "tm.conflict", {"thread": 0, "source": "coherence",
                                      "fp": False,
                                      "blockers": [(1, False, "targeted")]}),
            Event(15, "tm.stall", {"thread": 0, "blockers": 1}),
            Event(20, "tm.abort", {"thread": 1, "outer": False}),
            Event(30, "tm.commit", {"thread": 1, "outer": True}),
            Event(40, "tm.abort", {"thread": 0, "outer": True,
                                   "cause": "conflict", "fp": True,
                                   "via": "targeted"}),
            Event(50, "tm.begin", {"thread": 0, "depth": 1}),
        ]

    def test_multi_thread_lifecycles(self):
        attempts = reconstruct(self._stream())
        assert [(a.thread, a.outcome) for a in attempts] == [
            (0, "abort"), (1, "commit"), (0, "open")]
        aborted = attempts[0]
        assert aborted.stalls == 1 and aborted.conflicts == 1
        assert aborted.duration == 30
        assert aborted.category == "false_positive"
        committed = attempts[1]
        assert committed.inner_aborts == 1
        assert attempts[2].duration is None
        assert aborted.to_dict()["category"] == "false_positive"

    def test_thread_filter(self):
        attempts = reconstruct(self._stream(), thread=1)
        assert [a.thread for a in attempts] == [1]

    def test_inner_abort_keeps_outer_attempt_open(self):
        # Regression for the legacy bug: a partial (inner) abort used to
        # close the whole outer record as "abort".
        attempts = reconstruct([
            Event(10, "tm.begin", {"thread": 0, "depth": 1}),
            Event(20, "tm.begin", {"thread": 0, "depth": 2}),
            Event(30, "tm.abort", {"thread": 0, "outer": False,
                                   "full": False}),
            Event(50, "tm.commit", {"thread": 0, "outer": True}),
        ])
        assert len(attempts) == 1
        assert attempts[0].outcome == "commit"
        assert attempts[0].end == 50
        assert attempts[0].inner_aborts == 1

    def test_legacy_abort_without_outer_field_closes(self):
        # Pre-obs recordings carry no "outer" field: treated as outer.
        attempts = reconstruct([
            Event(10, "tm.begin", {"thread": 0, "depth": 1}),
            Event(30, "tm.abort", {"thread": 0, "undone": 2}),
        ])
        assert [(a.outcome, a.end) for a in attempts] == [("abort", 30)]

    def test_conflict_graph(self):
        graph = ConflictGraph.from_events(self._stream())
        assert graph.nodes() == [0, 1]
        assert [(e.src, e.dst, e.count) for e in graph.edges()] \
            == [(1, 0, 1)]
        graph.add(1, 0, fp=True)
        graph.add(2, 0)
        edge = graph.edges()[0]
        assert (edge.src, edge.dst, edge.count) == (1, 0, 2)
        assert edge.false_positives == 1
        assert graph.to_dict()["edges"][0]["count"] == 2


class TestAttribution:
    def test_add_and_fraction(self):
        attribution = AbortAttribution()
        attribution.add("true_conflict", 3)
        attribution.add("no_such_category")  # folds into "other"
        assert attribution.total == 4
        assert attribution.counts["true_conflict"] / attribution.total \
            == 0.75
        assert attribution.counts["other"] == 1

    def test_from_counters(self):
        attribution = AbortAttribution.from_counters(
            {"tm.aborts.false_positive": 5, "tm.aborts.sticky": 2,
             "tm.aborts": 7})
        assert attribution.total == 7
        assert attribution.counts["false_positive"] == 5

    def test_attribute_aborts_skips_inner(self):
        events = [
            Event(1, "tm.abort", {"thread": 0, "outer": False,
                                  "cause": "conflict"}),
            Event(2, "tm.abort", {"thread": 0, "outer": True,
                                  "cause": "conflict", "via": "sticky"}),
            Event(3, "tm.abort", {"thread": 1, "outer": True,
                                  "category": "summary"}),
        ]
        attribution = attribute_aborts(events)
        assert attribution.to_dict() == {"true_conflict": 0,
                                         "false_positive": 0, "sticky": 1,
                                         "capacity": 0, "summary": 1,
                                         "other": 0}

    def test_attribute_stalls(self):
        events = [Event(1, "tm.stall", {"thread": 0, "fp": True}),
                  Event(2, "tm.stall", {"thread": 1}),
                  Event(3, "tm.commit", {"thread": 1, "outer": True})]
        attribution = attribute_stalls(events)
        assert attribution.counts["false_positive"] == 1
        assert attribution.counts["true_conflict"] == 1

    def test_render(self):
        attribution = AbortAttribution()
        attribution.add("sticky", 2)
        text = render_attribution(attribution, title="Stalls")
        assert "Stalls" in text and "sticky" in text and "2" in text
        for cat in CATEGORIES:
            assert cat in text


class TestExport:
    def _events(self):
        return [
            Event(10, "tm.begin", {"thread": 0, "depth": 1}),
            Event(15, "coh.nack", {"block": 3, "core": 0, "thread": 0,
                                   "blockers": [(1, False, "targeted")]}),
            Event(20, "net.msg", {"route": "core_to_bank", "src": 0,
                                  "dst": 1, "cls": "request", "hops": 2}),
            Event(40, "tm.commit", {"thread": 0, "outer": True}),
        ]

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        assert export_jsonl(self._events(), path) == 4
        events = load_jsonl(path)
        assert [e.kind for e in events] == [e.kind for e in self._events()]
        assert events[1].fields["blockers"] == [[1, False, "targeted"]]

    def test_jsonl_streaming_writer(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        bus = EventBus(clock=lambda: 0)
        with JsonlWriter(path) as writer:
            bus.subscribe(writer, namespaces={"tm"})
            bus.record("tm.begin", thread=0)
            bus.record("net.msg", route="x")
        assert [e.kind for e in load_jsonl(path)] == ["tm.begin"]

    def test_chrome_trace_structure(self):
        document = chrome_trace(self._events(), label="unit")
        entries = document["traceEvents"]
        phases = {e["ph"] for e in entries}
        assert phases == {"M", "X", "i"}
        slices = [e for e in entries if e["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["args"]["outcome"] == "commit"
        assert slices[0]["ts"] == 10 and slices[0]["dur"] == 30
        instants = [e for e in entries if e["ph"] == "i"]
        # begin/commit are represented by the slice, not duplicated.
        assert {e["name"] for e in instants} == {"coh.nack", "net.msg"}
        # Threadless events land on high namespace lanes.
        net = next(e for e in instants if e["name"] == "net.msg")
        assert net["tid"] >= 1000
        assert validate_chrome_trace(document) == len(entries)

    def test_export_and_validate_file(self, tmp_path):
        path = str(tmp_path / "run.trace.json")
        count = export_chrome_trace(self._events(), path, label="unit")
        assert validate_chrome_trace(path) == count
        with open(path, "r", encoding="utf-8") as fh:
            assert json.load(fh)["otherData"]["label"] == "unit"

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"foo": 1})
        with pytest.raises(ValueError, match="malformed"):
            validate_chrome_trace({"traceEvents": [{"no_ph": 1}]})
        with pytest.raises(ValueError, match="without ts"):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})


class TestLegacyShim:
    def test_legacy_api_surface(self):
        # The surface the pre-obs tests and downstream scripts relied on,
        # now on the log that attach_bus() returns; transactions are
        # rebuilt from its events by reconstruct().
        system = System(SystemConfig.small(num_cores=1, threads_per_core=1),
                        seed=1)
        bus, log = system.attach_bus(max_events=10)
        system.sim.now = 5
        bus.record("tm.begin", thread=0, depth=1)
        bus.record("tm.commit", thread=0, outer=True)
        assert len(log) == 2
        assert log.dropped == 0
        assert log.counts() == {"tm.begin": 1, "tm.commit": 1}
        assert log.events(kind="tm.begin", thread=0)
        [attempt] = reconstruct(log.events(), thread=0)
        assert (attempt.start, attempt.end, attempt.outcome) \
            == (5, 5, "commit")
        assert "tm.begin" in log.render()
        event = log.events()[0]
        assert event.time == 5 and event.fields["thread"] == 0


def _launch(system, workload, threads, seed=1):
    procs = []
    for i, thread in enumerate(threads):
        rng = make_rng(seed, "wl", i)
        ex = ThreadExecutor(system.cfg, thread, system.manager,
                            workload.program(i, rng), rng, system.stats)
        procs.append(system.sim.spawn(ex.run(), name=f"t{i}"))
    return procs


class TestCrossLayerEmission:
    """The satellite coverage: coherence-directory and osmodel paths."""

    def test_directory_victimization_and_sticky_events(self):
        cfg = SystemConfig.small(num_cores=2, threads_per_core=1
                                 ).with_signature(SignatureKind.PERFECT)
        system = System(cfg, seed=1)
        bus, log = system.attach_bus(strict=True)
        workload = BigFootprint(num_threads=2, units_per_thread=1,
                                blocks_per_sweep=96, seed=1)
        procs = _launch(system, workload, system.place_threads(2))
        system.sim.run_until_done(procs, limit=10_000_000)
        counts = log.counts()
        # The full request path is visible per-layer: fabric, net, log.
        assert counts["coh.request"] > 0
        assert counts["coh.grant"] > 0
        assert counts["net.msg"] > 0
        assert counts["log.append"] > 0
        assert counts["sim.spawn"] == 2 and counts["sim.process_done"] == 2
        # Over-L1-capacity write sets victimize transactional blocks, and
        # with the directory substrate those evictions create sticky state.
        sticky_victims = [e for e in log.events(kind="coh.l1_victim")
                          if e.fields["sticky"]]
        assert sticky_victims, "no sticky victimization recorded"
        assert all(e.fields["transactional"] for e in sticky_victims)
        assert system.stats.value("victimization.l1_tx") > 0

    def test_snooping_emits_snoop_events(self):
        cfg = replace(SystemConfig.small(num_cores=2, threads_per_core=1),
                      coherence=CoherenceStyle.SNOOPING)
        result = run_workload(cfg, SharedCounter(num_threads=2,
                                                 units_per_thread=2),
                              seed=1, trace=True)
        kinds = {e.kind for e in result.events}
        assert "coh.snoop" in kinds and "coh.grant" in kinds

    def test_osmodel_deschedule_and_summary_events(self):
        from repro.osmodel.scheduler import TimeSliceScheduler
        cfg = SystemConfig.small(num_cores=2, threads_per_core=1)
        system = System(cfg, seed=1)
        bus, log = system.attach_bus(strict=True)
        workload = SharedCounter(num_threads=6, units_per_thread=3,
                                 compute_between=200, inner_compute=400)
        threads = [system.new_thread() for _ in range(6)]
        for thread, slot in zip(threads, system.all_slots()):
            slot.bind(thread)
        procs = _launch(system, workload, threads)
        sched = TimeSliceScheduler(system, threads, quantum=150,
                                   rng=make_rng(1, "sched"))
        system.sim.spawn(sched.run(), name="scheduler")
        while not all(p.done.done for p in procs):
            assert system.sim.now < 20_000_000
            system.sim.run(until=system.sim.now + 50_000)
        sched.stop()
        system.sim.run(until=system.sim.now + 600)
        deschedules = log.events(kind="os.deschedule")
        in_tx = [e for e in deschedules if e.fields["in_tx"]]
        assert in_tx, "no mid-transaction deschedule recorded"
        assert log.events(kind="os.schedule")
        installs = log.events(kind="os.summary_install")
        assert installs
        assert {"slot", "asid", "exclude"} <= set(installs[0].fields)
        assert len(in_tx) == system.stats.value("os.deschedules_in_tx")

    def test_paging_daemon_page_move_events(self):
        from repro.osmodel.paging import PagingDaemon
        cfg = SystemConfig.small(num_cores=2, threads_per_core=1)
        system = System(cfg, seed=1)
        bus, log = system.attach_bus(strict=True)
        workload = SharedCounter(num_threads=2, units_per_thread=3,
                                 compute_between=300)
        procs = _launch(system, workload, system.place_threads(2))
        daemon = PagingDaemon(system, system.page_table(0), period=500,
                              rng=make_rng(3, "pager"))
        system.sim.spawn(daemon.run(), name="pager")
        while not all(p.done.done for p in procs):
            assert system.sim.now < 20_000_000
            system.sim.run(until=system.sim.now + 50_000)
        daemon.stop()
        moves = log.events(kind="os.page_move")
        assert len(moves) == daemon.moves > 0
        assert {"vpage", "old_frame", "new_frame"} <= set(moves[0].fields)


class TestAttributionAcceptance:
    """Acceptance criterion: the perfect-vs-bitselect split.

    On the snooping substrate every request probes every remote signature;
    with disjoint per-thread write sets a perfect signature cannot abort at
    all, so every abort under a small bit-select signature is aliasing.
    """

    def _run(self, kind, bits=2048, seed=7):
        cfg = replace(SystemConfig.small(), coherence=CoherenceStyle.SNOOPING)
        cfg = cfg.with_signature(kind, bits=bits)
        workload = BigFootprint(num_threads=4, units_per_thread=2,
                                blocks_per_sweep=96, seed=seed)
        return run_workload(cfg, workload, seed=seed, trace=True)

    def test_perfect_vs_bitselect_split(self):
        perfect = self._run(SignatureKind.PERFECT)
        bitselect = self._run(SignatureKind.BIT_SELECT, bits=64)
        assert perfect.aborts == 0
        assert perfect.aborts_false_positive == 0
        assert bitselect.aborts > 0
        assert bitselect.aborts_false_positive == bitselect.aborts
        assert bitselect.aborts_true_conflict == 0

    def test_counters_and_events_agree(self):
        result = self._run(SignatureKind.BIT_SELECT, bits=64)
        from_events = attribute_aborts(result.events)
        from_counters = AbortAttribution.from_counters(result.counters)
        assert from_events.to_dict() == from_counters.to_dict()
        assert from_events.total == result.aborts
        # The JSON record carries the split.
        record = result.to_dict()
        assert record["aborts_false_positive"] == result.aborts
        assert record["aborts_true_conflict"] == 0


class TestHarnessAndCliWiring:
    def test_run_workload_trace_flag(self):
        cfg = SystemConfig.small(num_cores=2, threads_per_core=1)
        workload = SharedCounter(num_threads=2, units_per_thread=2)
        untraced = run_workload(cfg, workload, seed=1)
        assert untraced.events is None
        traced = run_workload(cfg, SharedCounter(num_threads=2,
                                                 units_per_thread=2),
                              seed=1, trace=True)
        assert traced.events
        assert traced.cycles == untraced.cycles, \
            "tracing must not perturb the simulation"
        assert reconstruct(traced.events)

    def test_trace_kinds_filter(self):
        cfg = SystemConfig.small(num_cores=2, threads_per_core=1)
        result = run_workload(cfg, SharedCounter(num_threads=2,
                                                 units_per_thread=2),
                              seed=1, trace=True, trace_kinds=["tm"])
        assert result.events
        assert all(e.namespace == "tm" for e in result.events)

    def test_sweep_trace_dir_writes_artifacts(self, tmp_path):
        from repro.harness.sweep import run_sweep
        base = SystemConfig.small(num_cores=2, threads_per_core=1)
        variants = [("Perfect", base.with_signature(SignatureKind.PERFECT)),
                    ("BS_64", base.with_signature(SignatureKind.BIT_SELECT,
                                                  bits=64))]
        trace_dir = tmp_path / "traces"
        sweep = run_sweep(variants,
                          lambda: SharedCounter(num_threads=2,
                                                units_per_thread=2),
                          seed=1, trace_dir=str(trace_dir))
        plain = run_sweep(variants,
                          lambda: SharedCounter(num_threads=2,
                                                units_per_thread=2), seed=1)
        assert sweep.results == plain.results
        for label in ("Perfect", "BS_64"):
            chrome = trace_dir / f"{label}.trace.json"
            assert validate_chrome_trace(str(chrome)) > 0
            assert load_jsonl(str(trace_dir / f"{label}.jsonl"))
        # Events never ride on the returned results (pickle-size guard).
        assert all(r.events is None for r in sweep.results.values())

    def test_figure3_attribution_experiment(self):
        from repro.harness import experiments as E
        rows = E.figure3_attribution(seed=7, bit_sizes=(64,))
        by_sig = {r.signature: r for r in rows}
        assert set(by_sig) == {"Perfect", "BS_64"}
        assert by_sig["Perfect"].aborts == 0
        assert by_sig["BS_64"].aborts_false_positive > 0
        assert by_sig["BS_64"].aborts_true_conflict == 0
        assert "abort attribution" in E.render_figure3_attribution(rows)

    def test_cli_trace_subcommand(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "sc.trace.json"
        jsonl = tmp_path / "sc.jsonl"
        assert main(["trace", "SharedCounter", "--threads", "2",
                     "--units", "2", "--out", str(out),
                     "--jsonl", str(jsonl)]) == 0
        text = capsys.readouterr().out
        assert "Abort attribution" in text
        assert validate_chrome_trace(str(out)) > 0
        assert load_jsonl(str(jsonl))

    def test_cli_trace_json_payload(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "bf.trace.json"
        assert main(["--json", "trace", "BigFootprint", "--threads", "2",
                     "--units", "1", "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"]["path"] == str(out)
        assert set(payload["trace"]["attribution"]) == set(CATEGORIES)
        assert "aborts_false_positive" in payload

    def test_cli_trace_unknown_workload(self, capsys):
        from repro.cli import main
        assert main(["trace", "NoSuchWorkload"]) == 2
        assert "unknown workload" in capsys.readouterr().err
