"""Per-thread-context transactional state (Figure 1's circled additions).

Each hardware thread context carries: a read/write signature pair, a log
pointer + frames (the undo log), a log filter, the nesting depth, and a
register checkpoint — plus LogTM's conflict-resolution timestamp and
``possible_cycle`` flag. The summary signature register belongs to the
hardware slot (:class:`~repro.cpu.thread.HardwareSlot`), not to the thread.
This class is pure state with zero-latency transitions; all cycle
accounting lives in the CPU model.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.common.errors import TransactionError
from repro.common.stats import StatsRegistry
from repro.core.logfilter import LogFilter
from repro.core.undolog import UndoLog
from repro.coherence.msgs import Timestamp
from repro.mem.physical import PhysicalMemory
from repro.signatures.rwpair import ReadWriteSignature


class TxContext:
    """Transactional state of one SMT thread context."""

    __slots__ = ("thread_id", "signature", "log",
                 "log_filter", "stats", "timestamp", "possible_cycle",
                 "pending_abort", "pending_abort_fp", "aborted_by_os",
                 "write_buffer", "escape_depth", "needs_summary_recompute",
                 "_commits", "_aborts", "_read_hist", "_write_hist")

    def __init__(self, thread_id: int, signature: ReadWriteSignature,
                 stats: StatsRegistry, block_bytes: int = 64,
                 log_filter_entries: int = 32) -> None:
        self.thread_id = thread_id
        self.signature = signature
        self.log = UndoLog(block_bytes=block_bytes, stats=stats,
                           thread_id=thread_id)
        self.log_filter = LogFilter(entries=log_filter_entries)
        self.stats = stats
        self.timestamp: Optional[Timestamp] = None
        self.possible_cycle = False
        #: Set by an aggressive contention manager on a remote core: this
        #: transaction must abort at its next transactional instruction
        #: boundary (it cannot be unrolled mid-escape or asynchronously).
        self.pending_abort = False
        #: Whether the winning requester's conflict with us was pure
        #: signature aliasing — carried alongside ``pending_abort`` so the
        #: doomed transaction's abort attributes correctly.
        self.pending_abort_fp = False
        #: Set when the OS already unrolled this transaction (classic-LogTM
        #: preemption abort, or a lazy-mode commit-time squash); the
        #: executor observes it on resume and restarts the section.
        self.aborted_by_os = False
        #: Lazy version management (Bulk comparator): buffered stores,
        #: keyed by word-aligned virtual address. Empty in eager mode.
        self.write_buffer: dict = {}
        #: >0 while executing a non-transactional escape action [20]:
        #: accesses bypass signatures and logging.
        self.escape_depth = 0
        #: Set when this thread was descheduled mid-transaction and later
        #: rescheduled; its commit must trap to the OS to recompute the
        #: summary signature (Section 4.1).
        self.needs_summary_recompute = False
        self._commits = stats.counter("tm.commits")
        self._aborts = stats.counter("tm.aborts")
        self._read_hist = stats.histogram("tm.read_set_blocks")
        self._write_hist = stats.histogram("tm.write_set_blocks")

    # -- queries -------------------------------------------------------------

    @property
    def in_tx(self) -> bool:
        return self.log.depth > 0

    @property
    def depth(self) -> int:
        return self.log.depth

    @property
    def transactional(self) -> bool:
        """In a transaction and not inside an escape action."""
        return self.in_tx and self.escape_depth == 0

    # -- transaction lifecycle -------------------------------------------------

    def begin(self, now: int, checkpoint=None, is_open: bool = False) -> None:
        """Begin an outer or nested transaction."""
        if self.in_tx:
            # Nested begin: save the current signature into the new frame's
            # header so an open commit / partial abort can restore it; the
            # hardware signature keeps accumulating (Section 3.2).
            self.log.push_frame(checkpoint=checkpoint,
                                saved_signature=self.signature.snapshot(),
                                is_open=is_open)
        else:
            if is_open:
                raise TransactionError(
                    "outermost transaction cannot be open-nested")
            if self.timestamp is None:
                # LogTM retains the timestamp across aborts: a restarted
                # transaction keeps its (old) priority, so the oldest
                # transaction in any conflict eventually wins and the
                # system is free of starvation.
                self.timestamp = (now, self.thread_id)
            self.possible_cycle = False
            self.log.push_frame(checkpoint=checkpoint)
        # Required for correctness of nested logging; cheap at outer begin.
        self.log_filter.clear()

    def commit(self) -> bool:
        """Commit the innermost transaction; True if the outer one finished.

        Outer commit is the fast local operation: clear signatures, reset the
        log pointer. No data movement, no communication.
        """
        if not self.in_tx:
            raise TransactionError("commit outside a transaction")
        if self.escape_depth:
            raise TransactionError("commit inside an escape action")
        if self.log.depth == 1:
            self.log.pop_frame()
            self.log.reset()
            self.signature.clear()
            self.log_filter.clear()
            self.timestamp = None
            self.possible_cycle = False
            # A doom mark that raced with commit is moot: committing
            # resolved the conflict in our favor.
            self.pending_abort = False
            self.pending_abort_fp = False
            self.write_buffer.clear()
            self._commits.add()
            return True
        frame = self.log.current
        if frame.is_open:
            # Open commit: changes are globally committed; release isolation
            # on blocks only the child accessed by restoring the parent's
            # signature from the header.
            saved = frame.saved_signature
            self.log.discard_child()
            self.signature.restore(saved)
        else:
            # Closed commit: merge with the parent (records concatenate, the
            # accumulated hardware signature simply remains).
            self.log.merge_into_parent()
        self.log_filter.clear()
        return False

    def abort_innermost(self, memory: PhysicalMemory,
                        translate: Callable[[int], int]) -> int:
        """Software abort handler for one nesting level (partial abort).

        Unrolls the top log frame (restoring real values) and restores the
        parent's signature from the header — or clears the signature if this
        was the outermost level. Returns the number of undo records walked.
        """
        if not self.in_tx:
            raise TransactionError("abort outside a transaction")
        frame = self.log.current
        saved = frame.saved_signature
        undone = self.log.unroll_frame(memory, translate)
        if saved is not None:
            self.signature.restore(saved)
        else:
            self.signature.clear()
            self.log.reset()
            # The timestamp is deliberately retained (priority preserved
            # for the retry); only commit clears it.
        self.log_filter.clear()
        self.possible_cycle = False
        return undone

    def abort_all(self, memory: PhysicalMemory,
                  translate: Callable[[int], int]) -> int:
        """Unroll every nesting level (full abort). Returns records walked."""
        undone = 0
        while self.in_tx:
            undone += self.abort_innermost(memory, translate)
        # An abort may unwind out of an escape action; reset the balance.
        self.escape_depth = 0
        self.pending_abort = False
        self.pending_abort_fp = False
        # Lazy mode: discarding the buffer *is* the whole version rollback.
        self.write_buffer.clear()
        self._aborts.add()
        return undone

    def record_commit_footprint(self) -> None:
        """Capture read/write-set sizes for Table 2 (call just before commit
        of the *outer* transaction, while the exact sets are still intact)."""
        self._read_hist.record(self.signature.read.exact_size)
        self._write_hist.record(self.signature.write.exact_size)

    # -- escape actions -------------------------------------------------------

    def begin_escape(self) -> None:
        if not self.in_tx:
            raise TransactionError("escape action outside a transaction")
        self.escape_depth += 1

    def end_escape(self) -> None:
        if self.escape_depth <= 0:
            raise TransactionError("unbalanced escape end")
        self.escape_depth -= 1

    # -- state description (the model checker's snapshot) ------------------

    def state(self) -> Tuple:
        """(log depth, exact read set, exact write set, undo records) of a
        context at most one level deep: its filter bits and log filter
        follow from them."""
        if self.log.depth > 1:
            raise TransactionError("state() describes at most one level")
        return (self.log.depth, self.signature.read.exact_set(),
                self.signature.write.exact_set(), self.log.records())

    def set_state(self, state: Tuple) -> None:
        """Install a :meth:`state`. A transaction in it has the timestamp
        a begin at time 0 gives; every field it leaves out is idle."""
        depth, reads, writes, records = state
        self.signature.clear()
        for addr in reads:
            self.signature.insert_read(addr)
        for addr in writes:
            self.signature.insert_write(addr)
        self.log.reset()
        self.log_filter.clear()
        if depth:
            self.log.push_frame().records.extend(records)
            for record in records:
                self.log_filter.should_log(record.vblock)
        self.timestamp = (0, self.thread_id) if depth else None
        self.possible_cycle = self.pending_abort = self.pending_abort_fp = False
        self.aborted_by_os = self.needs_summary_recompute = False
        self.escape_depth = 0
        self.write_buffer.clear()

    # -- conflict bookkeeping ---------------------------------------------------

    def note_nacked_older(self, requester_ts: Optional[Timestamp]) -> None:
        """We NACKed someone; set possible_cycle if they are older (LogTM)."""
        if (self.timestamp is not None and requester_ts is not None
                and requester_ts < self.timestamp):
            self.possible_cycle = True

    def __repr__(self) -> str:
        state = f"depth={self.depth}" if self.in_tx else "idle"
        return f"TxContext(t{self.thread_id}, {state})"
