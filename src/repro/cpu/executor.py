"""Thread executor: interprets workload sections on a hardware context.

One executor drives one software thread. Atomic sections run as LogTM-SE
transactions (with the full abort/retry protocol) or under spinlocks,
depending on the system's :class:`~repro.common.config.SyncMode` — the same
operation stream either way, which is the paper's methodology for the
lock-vs-TM comparison.

The executor resolves its hardware slot from the software thread on every
operation, so the OS scheduler can deschedule it (it parks at the next
instruction boundary — possibly mid-transaction, the case Section 4.1's
summary signatures exist for) and later resume it on *any* context,
including a different core (thread migration).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, List

from repro.common.config import LockImpl, SyncMode, SystemConfig
from repro.common.errors import (AbortTransaction, PreemptedAccess,
                                 WorkloadError)
from repro.common.stats import StatsRegistry
from repro.core import locks
from repro.core.conflict import BackoffPolicy
from repro.cpu.thread import SoftwareThread
from repro.workloads.base import Op, OpKind, Section

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.manager import TMManager

#: Safety valve: a single transaction restarting this many times is a model
#: livelock, not workload behavior.
MAX_TX_ATTEMPTS = 10_000


class ThreadExecutor:
    """Runs one software thread's section stream to completion."""

    def __init__(self, cfg: SystemConfig, thread: SoftwareThread,
                 manager: TMManager, sections: Iterable[Section],
                 rng: random.Random, stats: StatsRegistry) -> None:
        self.cfg = cfg
        self.thread = thread
        self.manager = manager
        self.sections = sections
        self.rng = rng
        self.stats = stats
        self.backoff = BackoffPolicy(cfg.tm, rng)
        self.units_done = 0
        self._c_units = stats.counter("work.units")
        self._c_tx_attempts = stats.counter("tm.attempts")

    @property
    def slot(self):
        slot = self.thread.slot
        if slot is None:
            raise WorkloadError(
                f"thread {self.thread.tid} ran while descheduled")
        return slot

    @property
    def core(self):
        return self.slot.core

    def run(self):
        """Top-level process generator for this thread."""
        for section in self.sections:
            yield from self._preemption_point()
            if section.atomic:
                if self.cfg.sync is SyncMode.TRANSACTIONS:
                    yield from self._run_transactional(section)
                else:
                    yield from self._run_locked(section)
            else:
                yield from self._run_ops(section.ops)
            if section.unit:
                self.units_done += 1
                self._c_units.add()
        self.thread.finished = True
        self.thread.preempt_requested = False
        if self.thread.slot is not None:
            # Release the hardware context (no transactional state remains
            # at program end, so a plain unbind suffices) and wake any
            # scheduler waiting for this thread to park.
            self.thread.slot.unbind()
        self.thread.parked.fire(self.thread)
        return self.units_done

    # ------------------------------------------------------------------

    def _preemption_point(self):
        """Instruction boundary: honor a pending preemption request.

        The executor deschedules itself (saving transactional state via the
        manager), announces it has parked, and blocks until the scheduler
        resumes it on some context.
        """
        while True:
            if self.thread.preempt_requested and self.thread.slot is not None:
                self.thread.preempt_requested = False
                yield from self.manager.deschedule(self.thread.slot)
                self.thread.parked.fire(self.thread)
            if self.thread.slot is None:
                # Not scheduled (initial oversubscription or just parked):
                # block until the scheduler places us on a context.
                yield self.thread.resumed.wait()
                continue
            if self.thread.ctx.aborted_by_os:
                # Classic-LogTM preemption unrolled the transaction while
                # we were parked; restart it through the normal retry path.
                self.thread.ctx.aborted_by_os = False
                raise AbortTransaction("aborted by OS preemption",
                                       cause="preemption")
            return

    def _run_transactional(self, section: Section):
        """Begin/retry loop implementing abort-and-restart."""
        for attempt in range(MAX_TX_ATTEMPTS):
            self._c_tx_attempts.add()
            yield from self.manager.begin(self.slot)
            try:
                yield from self._run_ops(section.ops)
                yield from self.manager.commit(self.slot)
                return
            except AbortTransaction as exc:
                yield from self.manager.abort(self.slot, full=True,
                                              cause=exc)
                yield self.backoff.restart_delay(attempt + 1)
                yield from self._preemption_point()
        raise WorkloadError(
            f"transaction {section.label!r} aborted {MAX_TX_ATTEMPTS} times")

    def _run_locked(self, section: Section):
        if self.cfg.lock_impl is LockImpl.MUTEX:
            yield from self.manager.mutex_acquire(self.slot, section.lock)
        else:
            while True:
                yield from self._preemption_point()
                try:
                    yield from locks.acquire(
                        self.core, self.slot, section.lock, self.rng,
                        base_backoff=self.cfg.tm.backoff_base)
                    break
                except PreemptedAccess:
                    continue  # park, then retry the acquire
        try:
            yield from self._run_ops(section.ops)
        finally:
            # Lock mode cannot abort (no isolation), so the release always
            # runs; AbortTransaction is impossible outside a transaction.
            if self.cfg.lock_impl is LockImpl.MUTEX:
                yield from self.manager.mutex_release(self.slot, section.lock)
            else:
                while True:
                    yield from self._preemption_point()
                    try:
                        yield from locks.release(self.core, self.slot,
                                                 section.lock)
                        break
                    except PreemptedAccess:
                        continue

    def _run_ops(self, ops: List[Op]):
        thread = self.thread
        for op in ops:
            while True:
                # Fast path: scheduled, no preemption pending, not squashed
                # — the overwhelmingly common case. ``_preemption_point``
                # would check the same three conditions and return without
                # yielding, so skipping the sub-generator entirely is
                # behavior-identical and saves its setup/teardown per op.
                if (thread.preempt_requested or thread.slot is None
                        or thread.ctx.aborted_by_os):
                    yield from self._preemption_point()
                try:
                    # The four hot op kinds dispatch inline: ``_dispatch``
                    # would add one generator allocation and one frame to
                    # the resume chain per operation. Rare kinds (nesting,
                    # escapes, calls) still go through it. The test above
                    # left the thread bound, so they read ``thread.slot``
                    # without the checking ``slot`` property.
                    kind = op.kind
                    if kind is OpKind.LOAD:
                        slot = thread.slot
                        yield from slot.core.load(slot, op.vaddr)
                    elif kind is OpKind.STORE:
                        slot = thread.slot
                        yield from slot.core.store(slot, op.vaddr, op.value)
                    elif kind is OpKind.COMPUTE:
                        if op.cycles:
                            yield op.cycles
                    elif kind is OpKind.INCR:
                        slot = thread.slot
                        yield from slot.core.fetch_add(slot, op.vaddr,
                                                       op.value)
                    else:
                        yield from self._dispatch(op)
                    break
                except PreemptedAccess:
                    # Parked mid-access; the next preemption point waits for
                    # rescheduling and the same op is re-issued (possibly on
                    # a different core after migration).
                    continue

    def _dispatch(self, op: Op):
        """The rare op kinds; ``_run_ops`` runs the four hot ones inline."""
        kind = op.kind
        if kind is OpKind.NEST_BEGIN:
            if self.cfg.sync is SyncMode.TRANSACTIONS:
                yield from self.manager.begin(self.slot, is_open=op.open_nest)
            # Under locks nesting flattens into the enclosing section.
        elif kind is OpKind.NEST_END:
            if self.cfg.sync is SyncMode.TRANSACTIONS:
                yield from self.manager.commit(self.slot)
        elif kind is OpKind.ESCAPE_BEGIN:
            if self.cfg.sync is SyncMode.TRANSACTIONS:
                self.manager.begin_escape(self.slot)
        elif kind is OpKind.ESCAPE_END:
            if self.cfg.sync is SyncMode.TRANSACTIONS:
                self.manager.end_escape(self.slot)
        elif kind is OpKind.CALL:
            yield from op.fn(self.core, self.slot)
        else:  # pragma: no cover - exhaustive enum
            raise WorkloadError(f"unknown op kind {op.kind}")
