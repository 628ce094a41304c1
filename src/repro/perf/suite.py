"""The pinned benchmark suite behind ``repro bench``.

Four cases, each measuring a different layer of the stack:

* ``fig4_cell`` — one full Figure 4 sweep cell (Mp3d across the six
  Lock/Perfect/BS/CBS/DBS configs): the end-to-end hot path the paper's
  headline result exercises (core → L1 → signature check → directory NACK).
* ``fig3_signatures`` — the Figure 3 signature microbenchmark: pure
  INSERT/CONFLICT membership throughput, no simulator in the loop.
* ``table3_conflict`` — the Table 3 conflict workload (BerkeleyDB across
  the seven signature variants): abort/stall-heavy behaviour, so the
  undo-log and NACK paths dominate.
* ``engine_stress`` — a raw :class:`repro.sim.engine.Simulator` event-queue
  stress (a future pipeline mixing zero- and nonzero-delay yields), with no
  memory system at all: the kernel's events/second ceiling.

Every case is pinned — fixed workload, scale, and seed — so successive
measurements of the same case are comparable, and each reports a
``result_digest`` (SHA-256 over the canonical result JSON) so the
trajectory itself witnesses that optimizations never changed simulated
behaviour: entries at the same scale must carry the same digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.common.config import SystemConfig, figure4_variants
from repro.common.rng import DEFAULT_SEED
from repro.harness import experiments as E
from repro.harness.sweep import SweepResult, run_sweep
from repro.sim.engine import Simulator
from repro.sim.future import Future
from repro.svc.repository import result_digest

#: Scales a case can run at. ``full`` is the tracked configuration (the
#: committed trajectory); ``quick`` is a smoke-sized variant for tests/CI
#: sanity, not comparable with ``full`` entries.
SCALES = ("quick", "full")


@dataclass(frozen=True)
class BenchCase:
    """One pinned benchmark: identity plus a runner keyed by scale."""

    name: str
    description: str
    config: Dict[str, Any]
    #: ``run(scale)`` executes the pinned work and returns raw totals:
    #: ``cycles``, ``aborts``, ``cells``, ``events``, ``extra``.
    run: Callable[[str], Dict[str, Any]] = field(compare=False)


def _sweep_digest(sweep: SweepResult) -> str:
    """Digest of a sweep's results; ``meta`` (wall times) is left out."""
    record = sweep.to_dict()
    del record["meta"]
    return result_digest(record)


# ---------------------------------------------------------------------------
# fig4_cell — one Figure 4 sweep cell, end to end
# ---------------------------------------------------------------------------

#: Pinned (threads, units) per scale for the Mp3d fig4 cell.
_FIG4_SCALE = {"quick": (8, 2), "full": (32, 10)}


def _run_fig4_cell(scale: str) -> Dict[str, Any]:
    threads, units = _FIG4_SCALE[scale]
    base = SystemConfig.default()
    variants = list(figure4_variants(base))

    def factory():
        return E.WORKLOAD_CLASSES["Mp3d"](
            num_threads=threads, units_per_thread=units, seed=DEFAULT_SEED)

    sweep = run_sweep(variants, factory, seed=DEFAULT_SEED,
                      baseline_label="Lock")
    results = list(sweep.results.values())
    return {
        "cycles": sum(r.cycles for r in results),
        "aborts": sum(r.aborts for r in results),
        "cells": len(results),
        "events": 0,
        "extra": {
            "scale": scale,
            "workload": "Mp3d",
            "threads": threads,
            "units_per_thread": units,
            "variant_cycles": {label: r.cycles
                               for label, r in sweep.results.items()},
            "result_digest": _sweep_digest(sweep),
        },
    }


# ---------------------------------------------------------------------------
# fig3_signatures — membership-op microbenchmark
# ---------------------------------------------------------------------------

_FIG3_SCALE = {
    "quick": dict(set_sizes=(2, 8, 32), bit_sizes=(64, 256), probes=300),
    "full": dict(set_sizes=(2, 8, 32, 128, 512),
                 bit_sizes=(64, 256, 1024, 2048), probes=2000),
}


def _run_fig3_signatures(scale: str) -> Dict[str, Any]:
    params = _FIG3_SCALE[scale]
    points = E.figure3(seed=DEFAULT_SEED, **params)
    # Each point performs `inserted` INSERTs and `probes` CONFLICT tests.
    ops = sum(p.inserted + params["probes"] for p in points)
    payload = [dict(kind=p.kind, bits=p.bits, inserted=p.inserted,
                    false_positive_rate=p.false_positive_rate)
               for p in points]
    return {
        "cycles": 0,
        "aborts": 0,
        "cells": len(points),
        "events": ops,
        "extra": {
            "scale": scale,
            "membership_ops": ops,
            "probes_per_point": params["probes"],
            "result_digest": result_digest(payload),
        },
    }


# ---------------------------------------------------------------------------
# table3_conflict — abort/stall-heavy conflict workload
# ---------------------------------------------------------------------------

_TABLE3_SCALE = {"quick": (8, 2), "full": (32, 4)}


def _run_table3_conflict(scale: str) -> Dict[str, Any]:
    threads, units = _TABLE3_SCALE[scale]

    def factory():
        return E.WORKLOAD_CLASSES["BerkeleyDB"](
            num_threads=threads, units_per_thread=units, seed=DEFAULT_SEED)

    sweep = run_sweep(E.table3_variants(SystemConfig.default()), factory,
                      seed=DEFAULT_SEED, baseline_label="Perfect")
    results = list(sweep.results.values())
    return {
        "cycles": sum(r.cycles for r in results),
        "aborts": sum(r.aborts for r in results),
        "cells": len(results),
        "events": 0,
        "extra": {
            "scale": scale,
            "workload": "BerkeleyDB",
            "threads": threads,
            "units_per_thread": units,
            "variant_aborts": {label: r.aborts
                               for label, r in sweep.results.items()},
            "result_digest": _sweep_digest(sweep),
        },
    }


# ---------------------------------------------------------------------------
# engine_stress — raw event-queue throughput
# ---------------------------------------------------------------------------

_STRESS_SCALE = {"quick": (4, 200), "full": (8, 2000)}

#: Per-stage latencies: a mix of zero-delay handoffs (future wake-ups due
#: in the current cycle) and short timed hops.
_STRESS_DELAYS = (0, 1, 0, 3)


def _stress_driver(first: List[Future], rounds: int):
    for i in range(rounds):
        first[i].resolve(i)
        yield i & 1  # alternate zero-delay and 1-cycle injection


def _stress_stage(inbox: List[Future], outbox: List[Future], delay: int):
    for i in range(len(inbox)):
        value = yield inbox[i]
        if delay:
            yield delay
        outbox[i].resolve(value + 1)


def _stress_sink(final: List[Future]):
    checksum = 0
    for fut in final:
        value = yield fut
        checksum = (checksum * 31 + value) & 0xFFFFFFFF
    return checksum


def run_engine_stress(stages: int, rounds: int) -> Dict[str, Any]:
    """Run the pipeline; returns totals (also used directly by tests)."""
    sim = Simulator()
    futures = [[Future(f"s{s}.r{r}") for r in range(rounds)]
               for s in range(stages + 1)]
    procs = [sim.spawn(_stress_driver(futures[0], rounds), name="driver")]
    for s in range(stages):
        delay = _STRESS_DELAYS[s % len(_STRESS_DELAYS)]
        procs.append(sim.spawn(
            _stress_stage(futures[s], futures[s + 1], delay),
            name=f"stage{s}"))
    sink = sim.spawn(_stress_sink(futures[stages]), name="sink")
    procs.append(sink)
    sim.run_until_done(procs)
    return {
        "cycles": sim.now,
        "events": sim.events_executed,
        "checksum": sink.done.value,
    }


def _run_engine_stress(scale: str) -> Dict[str, Any]:
    stages, rounds = _STRESS_SCALE[scale]
    totals = run_engine_stress(stages, rounds)
    return {
        "cycles": totals["cycles"],
        "aborts": 0,
        "cells": 0,
        "events": totals["events"],
        "extra": {
            "scale": scale,
            "stages": stages,
            "rounds": rounds,
            "result_digest": result_digest(totals),
        },
    }


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CASES: Dict[str, BenchCase] = {
    case.name: case for case in [
        BenchCase(
            name="fig4_cell",
            description="One Figure 4 sweep cell: Mp3d across the six "
                        "Lock/Perfect/BS/CBS/DBS configs, serial.",
            config={"workload": "Mp3d", "seed": DEFAULT_SEED,
                    "scales": {s: dict(zip(("threads", "units"), v))
                               for s, v in _FIG4_SCALE.items()}},
            run=_run_fig4_cell),
        BenchCase(
            name="fig3_signatures",
            description="Figure 3 signature microbenchmark: raw "
                        "INSERT/CONFLICT membership throughput.",
            config={"seed": DEFAULT_SEED, "scales": _FIG3_SCALE},
            run=_run_fig3_signatures),
        BenchCase(
            name="table3_conflict",
            description="Table 3 conflict workload: BerkeleyDB across the "
                        "seven signature variants, serial.",
            config={"workload": "BerkeleyDB", "seed": DEFAULT_SEED,
                    "scales": {s: dict(zip(("threads", "units"), v))
                               for s, v in _TABLE3_SCALE.items()}},
            run=_run_table3_conflict),
        BenchCase(
            name="engine_stress",
            description="Raw event-queue stress: a future pipeline mixing "
                        "zero- and nonzero-delay yields, no memory system.",
            config={"scales": {s: dict(zip(("stages", "rounds"), v))
                               for s, v in _STRESS_SCALE.items()}},
            run=_run_engine_stress),
    ]
}

#: Suite order (stable for reports and CI logs).
SUITE = tuple(CASES)
