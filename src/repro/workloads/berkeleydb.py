"""BerkeleyDB lock-subsystem workload.

The paper's driver initializes a 1000-word database and spawns workers that
randomly read it; the measured stress lands on BerkeleyDB's *lock
subsystem*, whose mutex-protected critical sections become transactions
(Section 6.2). Under locks the subsystem serializes on a global mutex; under
TM the mostly-read operations commute, which is why BerkeleyDB is one of the
two workloads where transactions win 20-50% (Figure 4).

Structure of one unit of work (one database read):

* a few small lock-table transactions (acquire/release records in hash
  buckets) — writes to a couple of bucket words, reads of bucket metadata;
* the main read transaction — reads several database words (Zipf-skewed
  pages) and updates lock-manager metadata;
* occasionally an *escape action* inside the transaction, modeling the
  non-transactional system calls / memory allocation the paper handles with
  escape actions [20].

Table 2 row: input "1000 words", unit "1 database read", read set
avg 8.1 / max 30, write set avg 6.8 / max 28.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.common.rng import zipf_rank
from repro.workloads.base import Op, Section, VirtualAllocator, Workload

DB_WORDS = 1000
LOCK_TABLE_BUCKETS = 256


class BerkeleyDB(Workload):
    """Database read workload stressing a lock-manager subsystem."""

    name = "BerkeleyDB"
    input_desc = "1000 words"
    unit_name = "1 database read"

    def __init__(self, num_threads: int, units_per_thread: int = 8,
                 seed: int = 0, compute_between_units: int = 170000) -> None:
        super().__init__(num_threads, units_per_thread, seed)
        self.compute_between_units = compute_between_units
        alloc = VirtualAllocator()
        #: The database proper: 1000 words, several per cache block.
        self.db = alloc.words(DB_WORDS)
        #: Lock-table buckets: isolated words so conflicts are real, not
        #: false sharing.
        self.buckets = alloc.blocks(LOCK_TABLE_BUCKETS)
        #: Lock-manager metadata (allocation counters, free lists,
        #: per-region headers).
        self.lock_meta = alloc.blocks(16)
        #: The single subsystem mutex used in LOCKS mode (coarse-grained,
        #: as in the original library).
        self.subsystem_mutex = alloc.isolated_word()
        #: Per-thread scratch used by escape actions.
        self.scratch = alloc.blocks(num_threads)

    # -- transaction builders -------------------------------------------------

    def _lock_record_tx(self, rng: random.Random) -> List[Op]:
        """Lock-table operation: allocate/release lock records.

        Walks a few metadata words (free list, region header) and updates
        several hash buckets — the footprint that dominates Table 2's
        BerkeleyDB averages (read 8.1 / write 6.8 blocks).
        """
        ops: List[Op] = []
        for _ in range(rng.randint(3, 6)):
            ops.append(Op.load(self.lock_meta[rng.randrange(
                len(self.lock_meta))]))
        for _ in range(rng.randint(3, 7)):
            ops.append(Op.incr(self.buckets[rng.randrange(
                LOCK_TABLE_BUCKETS)]))
        if rng.random() < 0.04:
            # Occasional lock-region reorganization: the write-set tail
            # (Table 2 write max 28).
            start = rng.randrange(LOCK_TABLE_BUCKETS - 24)
            for i in range(start, start + rng.randint(12, 22)):
                ops.append(Op.store(self.buckets[i], i))
        ops.append(Op.compute(30))
        return ops

    def _db_read_tx(self, thread_index: int, rng: random.Random) -> List[Op]:
        """The main read: several db words + lock-manager bookkeeping."""
        ops: List[Op] = []
        # Reads land on distinct blocks (the db rows touched by one lookup
        # spread across pages), with a Zipf-skewed hot set.
        nreads = rng.randint(6, 16)
        blocks_per_db = DB_WORDS // 8
        for _ in range(nreads):
            block_rank = zipf_rank(rng, blocks_per_db, skew=0.4)
            word = self.db[block_rank * 8 + rng.randrange(8)]
            ops.append(Op.load(word))
        if rng.random() < 0.05:
            # Occasional long scan: the read-set tail (Table 2 read max 30).
            start = zipf_rank(rng, blocks_per_db - 20, skew=0.1)
            for i in range(start, start + rng.randint(10, 18)):
                ops.append(Op.load(self.db[i * 8]))
        # Escape action: system call / allocation inside the transaction.
        if rng.random() < 0.3:
            ops.append(Op.escape_begin())
            ops.append(Op.load(self.scratch[thread_index]))
            ops.append(Op.store(self.scratch[thread_index], rng.randrange(97)))
            ops.append(Op.escape_end())
        ops.append(Op.compute(80))
        # Lock-manager updates happen at the end of the operation: short
        # isolation tail on the hot words.
        for _ in range(rng.randint(3, 7)):
            ops.append(Op.incr(self.buckets[rng.randrange(
                LOCK_TABLE_BUCKETS)]))
        ops.append(Op.incr(self.lock_meta[rng.randrange(len(self.lock_meta))]))
        return ops

    # -- program ---------------------------------------------------------------

    def program(self, thread_index: int,
                rng: random.Random) -> Iterator[Section]:
        for unit in range(self.units_per_thread):
            # Lock-table traffic before the read (repeated requests for
            # locks on database objects stress the subsystem).
            for i in range(rng.randint(4, 8)):
                yield Section(ops=self._lock_record_tx(rng),
                              lock=self.subsystem_mutex,
                              label=f"bdb.lock_record[{thread_index}.{unit}.{i}]")
            yield Section(ops=self._db_read_tx(thread_index, rng),
                          lock=self.subsystem_mutex,
                          unit=True,
                          label=f"bdb.read[{thread_index}.{unit}]")
            yield Section(
                ops=[Op.compute(self.compute_between_units)],
                label=f"bdb.think[{thread_index}.{unit}]")
