"""Multi-process tests: the ASID filter (Section 2).

"Signatures have the potential to cause interference between memory
references in different processes... LogTM-SE prevents this problem by
adding an address space identifier to all coherence requests." These tests
run two unrelated processes on one machine with brutally aliasing
signatures and verify (a) the filter keeps them invisible to each other,
and (b) the ablation really does re-create the interference.
"""

from dataclasses import replace

import pytest

from repro.common.config import SignatureKind, SystemConfig
from repro.common.rng import make_rng
from repro.cpu.executor import ThreadExecutor
from repro.harness.system import System
from repro.workloads import SharedCounter


#: Where A and B run in the interference scenario: on different cores
#: (B answers a forwarded request) or on one core's two SMT contexts (B
#: answers A's sibling check).
PLACEMENTS = ("cross-core", "smt")


def run_two_processes(use_asid_filter: bool, bits: int = 8,
                      units: int = 6):
    """Two single-thread processes on two cores, tiny BS signatures."""
    cfg = SystemConfig.small(num_cores=2, threads_per_core=1)
    cfg = cfg.with_signature(SignatureKind.BIT_SELECT, bits=bits)
    cfg = replace(cfg, tm=replace(cfg.tm,
                                  use_asid_filter=use_asid_filter))
    system = System(cfg, seed=5)
    workloads, procs, threads = [], [], []
    for asid in (0, 1):
        wl = SharedCounter(num_threads=1, units_per_thread=units,
                           compute_between=30, inner_compute=100)
        workloads.append(wl)
        thread = system.new_thread(asid=asid)
        system.cores[asid].slots[0].bind(thread)
        threads.append(thread)
        rng = make_rng(5, "proc", asid)
        ex = ThreadExecutor(cfg, thread, system.manager,
                            wl.program(0, rng), rng, system.stats)
        procs.append(system.sim.spawn(ex.run(), name=f"p{asid}"))
    system.sim.run_until_done(procs, limit=200_000_000)
    return system, workloads, threads


class TestAsidFilter:
    def test_processes_do_not_interfere_with_filter(self):
        system, workloads, threads = run_two_processes(True)
        for asid, (wl, thread) in enumerate(zip(workloads, threads)):
            value = system.memory.load(
                system.page_table(asid).translate(wl.counter))
            assert value == 6, f"process {asid} lost work"
        # Single-threaded processes on distinct data: with the filter,
        # there are no transactional conflicts at all.
        assert system.stats.value("tm.stalls") == 0
        assert system.stats.value("tm.aborts") == 0

    def _interference_scenario(self, use_asid_filter: bool,
                               placement: str):
        """The paper's exact construction: process A's block "resides on"
        a core now running process B, whose aliasing signature answers.

        ``cross-core``:

        1. A's thread writes block X on core 0 (directory owner: core 0).
        2. A is descheduled; B's thread takes core 0 and fills a tiny
           write signature (aliases everything).
        3. A, rescheduled on core 1, re-reads X: the directory forwards
           the GETS to core 0, where B's signature answers.

        ``smt``: A and B share one core's two contexts. A writes X, B
        fills its tiny write signature, and A re-reads X, which is an L1
        hit — only the SMT sibling check stands between A and X.
        """
        smt = placement == "smt"
        cfg = (SystemConfig.small(num_cores=1, threads_per_core=2) if smt
               else SystemConfig.small(num_cores=2, threads_per_core=1))
        cfg = cfg.with_signature(SignatureKind.BIT_SELECT, bits=8)
        cfg = replace(cfg, tm=replace(cfg.tm,
                                      use_asid_filter=use_asid_filter))
        system = System(cfg, seed=3)
        t_a = system.new_thread(asid=0)
        t_b = system.new_thread(asid=1)
        system.cores[0].slots[0].bind(t_a)

        def run(gen):
            proc = system.sim.spawn(gen)
            system.sim.run()
            return proc

        run(t_a.slot.core.store(t_a.slot, 0x9000, 7))   # owner: core 0
        if smt:
            run(system.manager.schedule(t_b, system.cores[0].slots[1]))
        else:
            run(system.manager.deschedule(t_a.slot))
            run(system.manager.schedule(t_b, system.cores[0].slots[0]))
        run(system.manager.begin(t_b.slot))
        for i in range(8):  # saturate B's 8-bit write signature
            run(t_b.slot.core.store(t_b.slot, 0x2000_0000 + i * 64, i))
        if not smt:
            run(system.manager.schedule(t_a, system.cores[1].slots[0]))

        done = []

        def reader():
            value = yield from t_a.slot.core.load(t_a.slot, 0x9000)
            done.append(value)

        system.sim.spawn(reader())
        system.sim.run(until=system.sim.now + 3000)
        return system, t_b, done

    def test_filter_blocks_interference(self):
        for placement in PLACEMENTS:
            system, t_b, done = self._interference_scenario(True, placement)
            assert done == [7], \
                f"{placement}: A must proceed despite B's aliasing signature"

    def test_ablation_recreates_interference(self):
        """Without the ASID filter, B's saturated signature NACKs A's
        request to A's *own* data — one process stalls another, whether
        B answers a forwarded request or sits on A's own core."""
        for placement in PLACEMENTS:
            system, t_b, done = self._interference_scenario(False, placement)
            assert not done, \
                f"{placement}: A must be (falsely) blocked by process B"
            assert system.stats.value("mem.nontx_stalls") > 0, placement
            if placement == "smt":
                assert system.stats.value("tm.sibling_conflicts") > 0
            # Once B commits, A finally proceeds (interference, not
            # deadlock).
            system.sim.spawn(system.manager.commit(t_b.slot))
            system.sim.run()
            assert done == [7], placement

    def test_address_spaces_are_disjoint(self):
        """Same virtual addresses in different processes map to different
        frames (the substrate the filter's correctness argument rests on)."""
        cfg = SystemConfig.small(num_cores=2, threads_per_core=1)
        system = System(cfg, seed=1)
        a = system.page_table(0).translate(0x1000_0000)
        b = system.page_table(1).translate(0x1000_0000)
        assert a != b

    def test_filter_applies_even_with_perfect_signatures(self):
        """With disjoint frames and perfect signatures, the filter is
        invisible — no conflicts either way (a consistency check that the
        ablation's effect really comes from aliasing)."""
        system, workloads, _ = run_two_processes(True, bits=8)
        baseline_conflicts = system.stats.value("tm.conflicts_total")
        assert baseline_conflicts == 0


class TestSummaryPerProcess:
    def test_descheduled_process_does_not_block_other_process(self):
        """Summaries are per-process: process 1 never checks process 0's
        descheduled signatures."""
        cfg = SystemConfig.small(num_cores=2, threads_per_core=1)
        system = System(cfg, seed=2)
        t0 = system.new_thread(asid=0)
        t1 = system.new_thread(asid=1)
        system.cores[0].slots[0].bind(t0)

        def run(gen):
            proc = system.sim.spawn(gen)
            system.sim.run()
            return proc.done.value

        # Scheduling through the OS installs process 1's (empty) summary.
        run(system.manager.schedule(t1, system.cores[1].slots[0]))
        run(system.manager.begin(t0.slot))
        run(system.manager.deschedule(t0.slot))
        # Process 1's context has an empty summary; its accesses fly.
        assert t1.slot.summary.is_empty
        run(t1.slot.core.store(t1.slot, 0x100, 9))
        assert system.stats.value("tm.summary_conflicts") == 0
