"""Microbenchmarks: small targeted workloads for tests and ablations.

These are not from the paper's Table 2; they isolate single mechanisms —
shared-counter contention (atomicity under conflicts), nesting (open and
closed), large footprints (cache victimization / sticky states), the log
filter (redundant-store suppression), and false sharing (block-granularity
conflicts between logically disjoint words).
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.workloads.base import Op, Section, VirtualAllocator, Workload


class SharedCounter(Workload):
    """Every unit increments the same counter inside an atomic section.

    The final counter value must equal ``num_threads * units_per_thread``
    under both sync modes — the canonical atomicity check.
    """

    name = "SharedCounter"
    input_desc = "1 hot word"
    unit_name = "1 increment"

    def __init__(self, num_threads: int, units_per_thread: int = 10,
                 seed: int = 0, compute_between: int = 50,
                 inner_compute: int = 0) -> None:
        super().__init__(num_threads, units_per_thread, seed)
        self.compute_between = compute_between
        #: Compute cycles spent *inside* the atomic section — widens the
        #: transaction window (used to exercise mid-transaction events).
        self.inner_compute = inner_compute
        alloc = VirtualAllocator()
        self.counter = alloc.isolated_word()
        self.lock = alloc.isolated_word()

    def program(self, thread_index: int,
                rng: random.Random) -> Iterator[Section]:
        for unit in range(self.units_per_thread):
            ops = [Op.load(self.counter)]
            if self.inner_compute:
                ops.append(Op.compute(self.inner_compute))
            ops.append(Op.incr(self.counter))
            yield Section(ops=ops, lock=self.lock, unit=True,
                          label=f"counter[{thread_index}.{unit}]")
            yield Section(ops=[Op.compute(self.compute_between)],
                          label=f"gap[{thread_index}.{unit}]")


class NestedUpdate(Workload):
    """Exercises closed and open nesting inside real transactions.

    Each unit: outer transaction increments an outer word, then a closed
    nested child increments a child word, then an open-nested child bumps a
    statistics word (which stays committed even if the outer aborts and
    retries — the stats word therefore counts *attempts*, not commits).
    """

    name = "NestedUpdate"
    input_desc = "3 words"
    unit_name = "1 nested update"

    def __init__(self, num_threads: int, units_per_thread: int = 5,
                 seed: int = 0) -> None:
        super().__init__(num_threads, units_per_thread, seed)
        alloc = VirtualAllocator()
        self.outer_word = alloc.isolated_word()
        self.child_word = alloc.isolated_word()
        self.stats_word = alloc.isolated_word()
        self.lock = alloc.isolated_word()

    def program(self, thread_index: int,
                rng: random.Random) -> Iterator[Section]:
        for unit in range(self.units_per_thread):
            ops: List[Op] = [
                Op.incr(self.outer_word),
                Op.nest_begin(open_nest=False),
                Op.incr(self.child_word),
                Op.nest_end(),
                Op.nest_begin(open_nest=True),
                Op.incr(self.stats_word),
                Op.nest_end(),
                Op.compute(20),
            ]
            yield Section(ops=ops, lock=self.lock, unit=True,
                          label=f"nested[{thread_index}.{unit}]")


class BigFootprint(Workload):
    """Transactions whose write sets overflow a small L1.

    Used by victimization tests/ablations: with sticky states the overflowed
    transactional data stays isolated; without them isolation would be lost
    after eviction.
    """

    name = "BigFootprint"
    input_desc = "per-thread streams"
    unit_name = "1 sweep"

    def __init__(self, num_threads: int, units_per_thread: int = 2,
                 blocks_per_sweep: int = 128, seed: int = 0) -> None:
        super().__init__(num_threads, units_per_thread, seed)
        alloc = VirtualAllocator()
        self.blocks_per_sweep = blocks_per_sweep
        self.regions = [alloc.blocks(blocks_per_sweep)
                        for _ in range(num_threads)]
        self.shared_word = alloc.isolated_word()
        self.lock = alloc.isolated_word()

    def program(self, thread_index: int,
                rng: random.Random) -> Iterator[Section]:
        region = self.regions[thread_index]
        for unit in range(self.units_per_thread):
            ops = [Op.store(addr, unit) for addr in region]
            ops.append(Op.incr(self.shared_word))
            yield Section(ops=ops, lock=self.lock, unit=True,
                          label=f"sweep[{thread_index}.{unit}]")


class RepeatStores(Workload):
    """Stores the same block repeatedly: isolates the log filter's effect."""

    name = "RepeatStores"
    input_desc = "1 private block"
    unit_name = "1 burst"

    def __init__(self, num_threads: int, units_per_thread: int = 4,
                 stores_per_burst: int = 32, seed: int = 0) -> None:
        super().__init__(num_threads, units_per_thread, seed)
        alloc = VirtualAllocator()
        self.stores_per_burst = stores_per_burst
        self.words = [alloc.isolated_word() for _ in range(num_threads)]
        self.locks = [alloc.isolated_word() for _ in range(num_threads)]

    def program(self, thread_index: int,
                rng: random.Random) -> Iterator[Section]:
        word = self.words[thread_index]
        for unit in range(self.units_per_thread):
            ops = [Op.store(word, i) for i in range(self.stores_per_burst)]
            yield Section(ops=ops, lock=self.locks[thread_index], unit=True,
                          label=f"burst[{thread_index}.{unit}]")


class FalseSharing(Workload):
    """Each thread transactionally increments its own private word.

    ``packed=True`` lays the words out adjacently (all in one 64-byte
    block): logically disjoint, physically conflicting. ``packed=False``
    gives each word its own block.
    """

    name = "FalseSharing"
    input_desc = "per-thread counters"
    unit_name = "1 increment"
    start_skew = 0  # the packed words collide from the first cycle

    def __init__(self, num_threads: int, units_per_thread: int = 20,
                 packed: bool = True, seed: int = 0) -> None:
        super().__init__(num_threads, units_per_thread, seed)
        alloc = VirtualAllocator()
        if packed:
            self.words = alloc.words(num_threads)     # one shared block
        else:
            self.words = [alloc.isolated_word()        # one block each
                          for _ in range(num_threads)]
        self.locks = [alloc.isolated_word() for _ in range(num_threads)]

    def program(self, thread_index: int,
                rng: random.Random) -> Iterator[Section]:
        word = self.words[thread_index]
        for unit in range(self.units_per_thread):
            yield Section(ops=[Op.incr(word), Op.compute(30)],
                          lock=self.locks[thread_index], unit=True,
                          label=f"fs[{thread_index}.{unit}]")
