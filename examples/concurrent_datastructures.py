#!/usr/bin/env python3
"""Concurrent data structures on LogTM-SE, with a transaction trace.

Two classic TM workloads run on the simulated CMP:

* a **bank ledger** — random transfers whose total must be conserved;
* a **sorted linked-list set** — transactional pointer chasing where every
  retry re-traverses current memory.

Both run with deliberately tiny (heavily aliasing) 64-bit signatures and
the aggressive contention manager, then the final structures are checked
against their serial oracles. An event bus with a ring-buffer log
captures the transaction lifecycle so the run ends with a per-thread
timeline.

Usage::

    python examples/concurrent_datastructures.py
"""

from dataclasses import replace

from repro import SignatureKind, SystemConfig
from repro.common.rng import make_rng
from repro.cpu.executor import ThreadExecutor
from repro.harness.report import render_table
from repro.harness.system import System
from repro.obs.analysis import reconstruct
from repro.workloads import BankTransfer, LinkedListSet

THREADS = 8


def run_traced(cfg, workload, seed=21):
    system = System(cfg, seed=seed)
    _bus, log = system.attach_bus()
    threads = system.place_threads(workload.num_threads)
    procs = []
    for i, thread in enumerate(threads):
        rng = make_rng(seed, "ds", workload.name, i)
        executor = ThreadExecutor(cfg, thread, system.manager,
                                  workload.program(i, rng), rng,
                                  system.stats)
        procs.append(system.sim.spawn(executor.run(), name=f"t{i}"))
    system.sim.run_until_done(procs, limit=500_000_000)
    return system, log


def summary_table(events, threads):
    """Per-thread attempts, outcomes, stalls and mean attempt length."""
    rows = []
    for tid in threads:
        attempts = reconstruct(events, thread=tid)
        durations = [a.duration for a in attempts if a.duration is not None]
        rows.append((tid, len(attempts),
                     sum(a.outcome == "commit" for a in attempts),
                     sum(a.outcome == "abort" for a in attempts),
                     sum(a.stalls for a in attempts),
                     sum(durations) / len(durations) if durations else 0.0))
    return render_table(
        ["Thread", "Attempts", "Commits", "Aborts", "Stalls",
         "Mean cycles"],
        rows, title="Per-thread transaction summary")


def main() -> None:
    cfg = SystemConfig.small(num_cores=4, threads_per_core=2)
    cfg = cfg.with_signature(SignatureKind.BIT_SELECT, bits=64)
    cfg = replace(cfg, tm=replace(cfg.tm, contention_policy="aggressive"))

    print("=== bank ledger: 8 threads x 12 transfers, BS_64 signatures,")
    print("    aggressive contention manager ===")
    bank = BankTransfer(num_threads=THREADS, units_per_thread=12,
                        num_accounts=24, compute_between=60)
    system, log = run_traced(cfg, bank)
    total = bank.total_balance(system, system.page_table(0))
    print(f"finished in {system.sim.now:,} cycles; "
          f"commits={system.stats.value('tm.commits')}, "
          f"aborts={system.stats.value('tm.aborts')}, "
          f"remote aborts requested="
          f"{system.stats.value('tm.remote_abort_requests')}")
    print(f"total balance = {total} "
          f"({'conserved: OK' if total == 0 else 'VIOLATED'})")
    if total != 0:
        raise SystemExit(1)
    print()
    print(summary_table(log.events(), range(THREADS)))

    print()
    print("=== sorted linked-list set: inserts + deletes, "
          "transactional pointer chasing ===")
    lst = LinkedListSet(num_threads=THREADS, units_per_thread=8,
                        key_space=48, delete_fraction=0.25, seed=21,
                        compute_between=40)
    system, log = run_traced(cfg, lst)
    keys = lst.walk(system, system.page_table(0))
    must_have, ambiguous = lst.expected_membership()
    ok = (keys == sorted(set(keys))
          and all(k in set(keys) for k in must_have)
          and all(k in set(must_have) | set(ambiguous) for k in keys))
    print(f"finished in {system.sim.now:,} cycles; "
          f"commits={system.stats.value('tm.commits')}, "
          f"aborts={system.stats.value('tm.aborts')}")
    print(f"final list ({len(keys)} keys): {keys}")
    print(f"serial-oracle check: {'OK' if ok else 'VIOLATED'}")
    if not ok:
        raise SystemExit(1)
    print()
    print("last trace events:")
    print(log.render(limit=8))


if __name__ == "__main__":
    main()
