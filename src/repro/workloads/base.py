"""Workload framework.

The paper converts lock-based multi-threaded programs to transactions by
replacing lock-protected critical sections (Section 6.2). Workloads here are
expressed the same way: each thread's program is a finite sequence of
:class:`Section` objects; an *atomic* section carries the lock that guards
it in LOCKS mode and runs as a transaction in TM mode, so the exact same
operation stream drives both baselines.

Operations are word-granularity loads/stores/increments on *virtual*
addresses plus compute delays; the increment op (a data-dependent
read-modify-write) is what makes serializability a testable property of the
functional memory rather than an assumption.
"""

from __future__ import annotations

import abc
import enum
import random
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence)

from repro.common.errors import WorkloadError


class OpKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    INCR = "incr"              # atomic fetch-add (data dependence)
    COMPUTE = "compute"        # local work, charges cycles
    NEST_BEGIN = "nest_begin"  # nested tx begin (TM mode; no-op under locks)
    NEST_END = "nest_end"
    ESCAPE_BEGIN = "escape_begin"  # non-transactional escape action [20]
    ESCAPE_END = "escape_end"
    CALL = "call"              # data-dependent code (pointer chasing etc.)


_tuple_new = tuple.__new__
_LOAD, _STORE, _INCR, _COMPUTE = (OpKind.LOAD, OpKind.STORE, OpKind.INCR,
                                  OpKind.COMPUTE)


class Op(NamedTuple):
    """One primitive operation of a thread program (immutable; a named
    tuple because programs build and read one per operation)."""

    kind: OpKind
    vaddr: int = 0
    value: int = 0
    cycles: int = 0
    open_nest: bool = False
    #: CALL payload: ``fn(core, slot)`` is a simulation sub-generator that
    #: issues accesses through the core's API. It is re-executed from
    #: scratch on every transaction retry (so traversals re-read current
    #: memory — exactly the semantics a real retried transaction has).
    fn: Optional[Callable] = None

    # The four per-operation builders fill every field positionally
    # (``kind, vaddr, value, cycles, open_nest, fn``) through
    # ``tuple.__new__``: the named tuple's own ``__new__`` parses keywords
    # and defaults, which more than doubles the cost of the most-built
    # object of a run.

    @staticmethod
    def load(vaddr: int) -> "Op":
        return _tuple_new(Op, (_LOAD, vaddr, 0, 0, False, None))

    @staticmethod
    def store(vaddr: int, value: int = 1) -> "Op":
        return _tuple_new(Op, (_STORE, vaddr, value, 0, False, None))

    @staticmethod
    def incr(vaddr: int, delta: int = 1) -> "Op":
        return _tuple_new(Op, (_INCR, vaddr, delta, 0, False, None))

    @staticmethod
    def compute(cycles: int) -> "Op":
        return _tuple_new(Op, (_COMPUTE, 0, 0, cycles, False, None))

    @staticmethod
    def nest_begin(open_nest: bool = False) -> "Op":
        return Op(OpKind.NEST_BEGIN, open_nest=open_nest)

    @staticmethod
    def nest_end() -> "Op":
        return Op(OpKind.NEST_END)

    @staticmethod
    def escape_begin() -> "Op":
        return Op(OpKind.ESCAPE_BEGIN)

    @staticmethod
    def escape_end() -> "Op":
        return Op(OpKind.ESCAPE_END)

    @staticmethod
    def call(fn: Callable) -> "Op":
        return Op(OpKind.CALL, fn=fn)


@dataclass
class Section:
    """A contiguous piece of a thread program.

    ``lock`` non-None marks a critical section: guarded by that spinlock
    under LOCKS, executed as one transaction under TM. ``unit`` marks the
    section that completes one of the workload's "units of work" (the
    paper's throughput metric, Table 2).
    """

    ops: List[Op]
    lock: Optional[int] = None
    unit: bool = False
    label: str = ""

    @property
    def atomic(self) -> bool:
        return self.lock is not None


class VirtualAllocator:
    """Bump allocator of virtual address ranges for a workload's layout."""

    def __init__(self, base: int = 0x1000_0000, block_bytes: int = 64,
                 page_bytes: int = 8192) -> None:
        self._next = base
        self._block = block_bytes
        self._page = page_bytes

    def _align(self, alignment: int) -> None:
        rem = self._next % alignment
        if rem:
            self._next += alignment - rem

    def words(self, count: int, align_block: bool = True) -> List[int]:
        """Allocate ``count`` consecutive words (8 bytes each)."""
        if align_block:
            self._align(self._block)
        base = self._next
        self._next += count * 8
        return [base + 8 * i for i in range(count)]

    def blocks(self, count: int) -> List[int]:
        """Allocate ``count`` block-aligned, block-sized regions: the
        addresses ``count`` successive :meth:`isolated_word` calls give."""
        self._align(self._block)
        base = self._next
        self._next += count * self._block
        return list(range(base, self._next, self._block))

    def word(self) -> int:
        return self.words(1)[0]

    def isolated_word(self) -> int:
        """A word alone in its cache block (avoids false sharing)."""
        return self.blocks(1)[0]

    def page(self) -> int:
        """A fresh page-aligned region of one page."""
        self._align(self._page)
        base = self._next
        self._next += self._page
        return base


class Workload(abc.ABC):
    """A benchmark: per-thread programs plus Table 2 metadata."""

    #: Workload name as it appears in the paper's tables.
    name: str = "workload"
    #: Input description (Table 2 "Input" column).
    input_desc: str = ""
    #: What one unit of work is (Table 2 "Unit of Work" column).
    unit_name: str = ""
    #: Thread starts are staggered uniformly over this many cycles: real
    #: programs never release every thread in the same cycle, and a
    #: symmetric start manufactures worst-case conflicts.
    start_skew: int = 1000

    def __init__(self, num_threads: int, units_per_thread: int,
                 seed: int = 0) -> None:
        if num_threads < 1:
            raise WorkloadError("need at least one thread")
        if units_per_thread < 1:
            raise WorkloadError("need at least one unit of work per thread")
        self.num_threads = num_threads
        self.units_per_thread = units_per_thread
        self.seed = seed

    @abc.abstractmethod
    def program(self, thread_index: int,
                rng: random.Random) -> Iterator[Section]:
        """The finite section stream executed by one thread."""

    @property
    def total_units(self) -> int:
        return self.num_threads * self.units_per_thread

    def describe(self) -> str:
        return (f"{self.name}(threads={self.num_threads}, "
                f"units/thread={self.units_per_thread})")

    def final_state(self, system) -> Dict[str, int]:
        """Oracle values read off the finished machine, which
        ``run_workload`` records as ``final.<name>`` counters."""
        return {}


def validate_sections(sections: Sequence[Section]) -> None:
    """Sanity-check a program fragment (used by workload tests)."""
    for section in sections:
        depth = 0
        escape = 0
        for op in section.ops:
            if op.kind is OpKind.NEST_BEGIN:
                depth += 1
            elif op.kind is OpKind.NEST_END:
                depth -= 1
                if depth < 0:
                    raise WorkloadError(f"unbalanced nest in {section.label}")
            elif op.kind is OpKind.ESCAPE_BEGIN:
                escape += 1
            elif op.kind is OpKind.ESCAPE_END:
                escape -= 1
                if escape < 0:
                    raise WorkloadError(
                        f"unbalanced escape in {section.label}")
            if op.kind in (OpKind.NEST_BEGIN, OpKind.NEST_END,
                           OpKind.ESCAPE_BEGIN, OpKind.ESCAPE_END):
                if not section.atomic:
                    raise WorkloadError(
                        f"nest/escape outside atomic section "
                        f"in {section.label}")
        if depth or escape:
            raise WorkloadError(f"unterminated nest/escape in {section.label}")
