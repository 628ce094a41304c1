"""TM manager: transaction lifecycle plus the OS-side virtualization ops.

The manager is the software half of LogTM-SE — the runtime/OS code the paper
assumes. It owns:

* begin/commit/abort orchestration (charging the configured handler costs);
* the per-process *summary signature* bookkeeping of Section 4.1:
  descheduling merges a thread's saved signature into its process summary
  and interrupts every context running that process to install the update;
  rescheduling restores the saved signature and installs, on that context
  only, a summary that excludes the thread's own sets; the summary is not
  recomputed until the thread commits (preserving sticky isolation across
  migration), at which point commit traps to the OS;
* the paging fix-up of Section 4.2: after a page relocation, every
  signature that may contain blocks of the old frame gains the same blocks
  at the new frame.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.common.config import SystemConfig
from repro.common.errors import AbortTransaction, TransactionError
from repro.common.stats import StatsRegistry
from repro.obs.analysis import classify_abort
from repro.cpu.thread import HardwareSlot, SoftwareThread
from repro.mem.physical import PhysicalMemory
from repro.mem.vm import PageTable
from repro.sim.engine import Simulator
from repro.sim.resources import SimLock
from repro.signatures.counting import CountingPair
from repro.signatures.rwpair import PairSnapshot, ReadWriteSignature

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.core import Core


class TMManager:
    """Runtime + OS support for LogTM-SE transactions."""

    def __init__(self, cfg: SystemConfig, sim: Simulator,
                 memory: PhysicalMemory, cores: "List[Core]",
                 stats: StatsRegistry,
                 pair_factory: Callable[[], ReadWriteSignature]) -> None:
        self.cfg = cfg
        self.sim = sim
        self.memory = memory
        self.cores = cores
        self.stats = stats
        self._pair_factory = pair_factory
        #: Saved signatures of threads descheduled mid-transaction:
        #: asid -> tid -> snapshot. Entries persist until the thread's
        #: outer transaction commits (or aborts), even across reschedule.
        self._saved: Dict[int, Dict[int, PairSnapshot]] = {}
        #: Per-process counting signature (the paper's footnote 1 / VTM XF
        #: structure): tracks how many suspended threads set each summary
        #: bit, so summary updates are incremental instead of re-unioning
        #: every saved signature.
        self._counting: Dict[int, CountingPair] = {}
        #: OS mutexes for the lock baseline (LockImpl.MUTEX), keyed by
        #: (asid, lock virtual address). A futex-style blocking mutex:
        #: waiters queue instead of spinning through the memory system.
        self._mutexes: Dict[tuple, SimLock] = {}
        #: Lazy mode's global commit token — Bulk "requires global
        #: synchronization for ordering commit operations" (Section 1);
        #: LogTM-SE's local commit is exactly the absence of this lock.
        self._commit_token = SimLock("commit-token")
        self._c_desched = stats.counter("os.deschedules_in_tx")
        self._c_sched = stats.counter("os.reschedules_in_tx")
        self._c_summary_installs = stats.counter("os.summary_installs")
        self._c_page_moves = stats.counter("os.page_relocations")
        self._c_sig_rehomes = stats.counter("os.signature_rehomes")

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def begin(self, slot: HardwareSlot, is_open: bool = False):
        """Begin a transaction on a slot (register checkpoint + log frame)."""
        if is_open and self.cfg.tm.lazy:
            raise TransactionError(
                "open nesting requires eager version management "
                "(a lazy child cannot commit globally before its parent)")
        yield self.cfg.tm.begin_cycles
        ctx = slot.ctx
        ctx.begin(self.sim.now, is_open=is_open)
        self.stats.emit("tm.begin", thread=ctx.thread_id, depth=ctx.depth,
                        open=is_open)

    def commit(self, slot: HardwareSlot):
        """Commit the innermost transaction; returns True when the outer
        transaction finished (the fast local path), trapping to the OS for a
        summary recompute if this thread migrated mid-transaction."""
        ctx = slot.ctx
        self._raise_if_squashed(ctx)
        if ctx.depth == 1:
            ctx.record_commit_footprint()
            if self.cfg.tm.lazy:
                yield from self._lazy_commit(slot)
        yield self.cfg.tm.commit_cycles
        outer = ctx.commit()
        self.stats.emit("tm.commit", thread=ctx.thread_id, outer=outer)
        if outer and ctx.needs_summary_recompute:
            ctx.needs_summary_recompute = False
            thread = slot.thread
            self._drop_saved(thread.asid, thread.tid)
            yield from self._push_summaries(thread.asid)
        return outer

    def abort(self, slot: HardwareSlot, full: bool = True,
              cause: Optional[AbortTransaction] = None):
        """Run the software abort handler; returns records unrolled.

        ``cause`` is the :class:`AbortTransaction` that forced the abort
        (None for an explicit/programmatic abort); its structured
        cause/fp/via provenance drives the attribution category recorded
        both as a ``tm.aborts.<category>`` counter and on the ``tm.abort``
        event.
        """
        ctx = slot.ctx
        thread = slot.thread
        if not ctx.in_tx:
            # Already unrolled (e.g. a classic-LogTM preemption abort ran
            # while the thread was descheduled); nothing left to do.
            return 0
        if full:
            undone = ctx.abort_all(self.memory, thread.translate)
        else:
            undone = ctx.abort_innermost(self.memory, thread.translate)
        yield (self.cfg.tm.abort_handler_cycles
               + undone * self.cfg.tm.abort_cycles_per_entry)
        cause_str = cause.cause if cause is not None else "explicit"
        fp = cause.fp if cause is not None else False
        via = cause.via if cause is not None else "targeted"
        category = classify_abort(cause_str, fp, via)
        outer = not ctx.in_tx
        if outer and full:
            # Category counters mirror the tm.aborts total (bumped in
            # abort_all): only a completed outer abort is attributed.
            self.stats.counter(f"tm.aborts.{category}").add()
        self.stats.emit("tm.abort", thread=ctx.thread_id, undone=undone,
                        full=full, outer=outer, cause=cause_str, fp=fp,
                        via=via, category=category)
        if full and not ctx.in_tx:
            # A completed (fully aborted) transaction also discharges any
            # summary obligation from an earlier migration.
            if ctx.needs_summary_recompute:
                ctx.needs_summary_recompute = False
                self._drop_saved(thread.asid, thread.tid)
                yield from self._push_summaries(thread.asid)
        return undone

    @staticmethod
    def _raise_if_squashed(ctx) -> None:
        """An asynchronous squash already unrolled this transaction; hand
        the thread to its executor's retry loop instead of 'committing'."""
        if ctx.aborted_by_os and not ctx.in_tx:
            ctx.aborted_by_os = False
            raise AbortTransaction("squashed before commit", cause="squash")

    # ------------------------------------------------------------------
    # Lazy (Bulk-style) commit — the Section 8 comparator
    # ------------------------------------------------------------------

    def _lazy_commit(self, slot: HardwareSlot):
        """Commit a lazy transaction: token, broadcast, squash, write back.

        1. Acquire the global commit token (Bulk's commit ordering).
        2. Broadcast the write signature; every concurrent transaction in
           the same address space compares it against its own read/write
           signatures — any (possibly false-positive) intersection squashes
           that transaction. Lazy squash is cheap: discard the buffer and
           clear the signature; no memory restore.
        3. Apply the write buffer to memory, invalidating other caches'
           copies of the written blocks.

        Documented simplifications vs. real Bulk: weak atomicity
        (non-transactional stores do not squash readers) and
        directory-state laziness after the commit writeback (stale *extra*
        pointers only, which this protocol family tolerates by design).
        """
        committer = slot.thread
        ctx = committer.ctx
        yield from self._commit_token.acquire()
        try:
            # We may have been squashed while queueing for the token.
            self._raise_if_squashed(ctx)
            yield self.cfg.tm.commit_token_broadcast_cycles
            write_sig = ctx.signature.write
            squashed = 0
            for core in self.cores:
                for other_slot in core.slots:
                    other = other_slot.thread
                    if other is None or other.tid == committer.tid:
                        continue
                    if other.asid != committer.asid:
                        continue
                    octx = other.ctx
                    if not octx.in_tx:
                        continue
                    hit = any(octx.signature.conflicts(True, block)
                              for block in write_sig.exact_set())
                    if hit:
                        octx.abort_all(self.memory, other.translate)
                        octx.aborted_by_os = True
                        squashed += 1
                        self.stats.counter("tm.aborts.other").add()
                        self.stats.emit("tm.abort", thread=octx.thread_id,
                                        undone=0, full=True, outer=True,
                                        cause="squash", fp=False,
                                        via="targeted", category="other")
            if squashed:
                self.stats.counter("tm.lazy_squashes").add(squashed)

            # Write back the buffer (data to memory, copies invalidated).
            blocks = sorted({self.cores[0].amap.block_of(
                committer.translate(word))
                for word in ctx.write_buffer})
            for word, value in sorted(ctx.write_buffer.items()):
                self.memory.store(committer.translate(word), value)
            for block in blocks:
                for core in self.cores:
                    if core.core_id != slot.core.core_id:
                        core.invalidate_block(block)
                # The committer's own stale (pre-transaction) copy must go
                # too: its L1 never held the speculative values.
                slot.core.invalidate_block(block)
            if blocks:
                yield len(blocks) * self.cfg.tm.writeback_cycles_per_block
            self.stats.counter("tm.lazy_writeback_blocks").add(len(blocks))
        finally:
            self._commit_token.release()

    # ------------------------------------------------------------------
    # OS mutexes (the paper's lock-based baseline)
    # ------------------------------------------------------------------

    def _mutex(self, asid: int, lock_vaddr: int) -> SimLock:
        key = (asid, lock_vaddr)
        lock = self._mutexes.get(key)
        if lock is None:
            lock = SimLock(f"mutex[{asid}:{lock_vaddr:#x}]")
            self._mutexes[key] = lock
        return lock

    def mutex_acquire(self, slot: HardwareSlot, lock_vaddr: int):
        """Blocking mutex acquire: queue, don't spin."""
        thread = slot.thread
        lock = self._mutex(thread.asid, lock_vaddr)
        yield self.cfg.tm.mutex_acquire_cycles
        if lock.held:
            self.stats.counter("locks.contended").add()
            waited_from = self.sim.now
            yield from lock.acquire()
            self.stats.counter("locks.wait_cycles").add(
                self.sim.now - waited_from)
            yield self.cfg.tm.mutex_wakeup_cycles
        else:
            yield from lock.acquire()
        self.stats.counter("locks.acquires").add()

    def mutex_release(self, slot: HardwareSlot, lock_vaddr: int):
        thread = slot.thread
        lock = self._mutex(thread.asid, lock_vaddr)
        yield self.cfg.tm.mutex_release_cycles
        lock.release()
        self.stats.counter("locks.releases").add()

    def begin_escape(self, slot: HardwareSlot) -> None:
        slot.ctx.begin_escape()

    def end_escape(self, slot: HardwareSlot) -> None:
        slot.ctx.end_escape()

    # ------------------------------------------------------------------
    # Context switching / migration (Section 4.1)
    # ------------------------------------------------------------------

    def deschedule(self, slot: HardwareSlot):
        """Remove the thread from its context, virtualizing any open tx."""
        thread = slot.thread
        if thread is None:
            raise TransactionError("deschedule of an empty slot")
        ctx = thread.ctx
        yield self.cfg.tm.context_switch_cycles
        if ctx.in_tx and self.cfg.tm.lazy:
            # Lazy mode is not virtualizable here: the write buffer and
            # commit-time detection have no summary-signature equivalent,
            # so preemption squashes (cheaply — just drop the buffer).
            self.stats.counter("tm.lazy_preemption_aborts").add()
            ctx.abort_all(self.memory, thread.translate)
            ctx.aborted_by_os = True
            self.stats.counter("tm.aborts.other").add()
            self.stats.emit("tm.abort", thread=ctx.thread_id, undone=0,
                            full=True, outer=True, cause="preemption",
                            fp=False, via="targeted", category="other")
            yield self.cfg.tm.abort_handler_cycles
            slot.unbind()
            return thread
        if ctx.in_tx and self.cfg.tm.classic_logtm:
            # Original LogTM (Section 8): R/W bits in the L1 cannot be
            # saved, so preemption aborts the transaction — the lost-work
            # cost LogTM-SE's software-visible signatures eliminate.
            self.stats.counter("tm.classic_preemption_aborts").add()
            undone = ctx.abort_all(self.memory, thread.translate)
            ctx.aborted_by_os = True
            self.stats.counter("tm.aborts.other").add()
            self.stats.emit("tm.abort", thread=ctx.thread_id, undone=undone,
                            full=True, outer=True, cause="preemption",
                            fp=False, via="targeted", category="other")
            yield (self.cfg.tm.abort_handler_cycles
                   + undone * self.cfg.tm.abort_cycles_per_entry)
            slot.unbind()
            return thread
        if ctx.in_tx:
            self._c_desched.add()
            # Save the signature into the log header (modeled as the
            # thread-side snapshot), merge into the process summary, and
            # interrupt every context running this process.
            snapshot = ctx.signature.snapshot()
            thread.saved_signature = snapshot
            self._store_saved(thread.asid, thread.tid, snapshot)
            ctx.signature.clear()
            ctx.log_filter.clear()  # advisory state; always safe to drop
            slot.unbind()
            yield from self._push_summaries(thread.asid)
        else:
            slot.unbind()
        self.stats.emit("os.deschedule", thread=thread.tid,
                        in_tx=thread.saved_signature is not None)
        return thread

    def schedule(self, thread: SoftwareThread, slot: HardwareSlot):
        """Place a thread on a (possibly different) hardware context."""
        if slot.occupied:
            raise TransactionError(f"slot {slot.global_id} is occupied")
        yield self.cfg.tm.context_switch_cycles
        slot.bind(thread)
        self.stats.emit("os.schedule", thread=thread.tid,
                        slot=slot.global_id)
        ctx = thread.ctx
        if thread.saved_signature is not None:
            self._c_sched.add()
            ctx.signature.restore(thread.saved_signature)
            thread.saved_signature = None
            # The thread must not conflict with its own saved sets: this
            # context gets a summary that excludes them. Other contexts
            # keep the full summary until the commit trap (so blocks in
            # sticky states remain isolated after migration).
            ctx.needs_summary_recompute = True
            self._install_summary(slot, thread.asid, exclude_tid=thread.tid)
            yield self.cfg.tm.summary_interrupt_cycles
        else:
            self._install_summary(slot, thread.asid, exclude_tid=thread.tid)

    def migrate(self, src_slot: HardwareSlot, dst_slot: HardwareSlot):
        """Deschedule from one context and reschedule on another."""
        thread = yield from self.deschedule(src_slot)
        yield from self.schedule(thread, dst_slot)
        return thread

    def _store_saved(self, asid: int, tid: int,
                     snapshot: PairSnapshot) -> None:
        """Record a descheduled transaction's signature (incrementally)."""
        saved = self._saved.setdefault(asid, {})
        counting = self._counting.get(asid)
        if counting is None:
            counting = CountingPair(self._pair_factory())
            self._counting[asid] = counting
        old = saved.get(tid)
        if old is not None:
            counting.remove(old)
        saved[tid] = snapshot
        counting.add(snapshot)

    def _drop_saved(self, asid: int, tid: int) -> None:
        """Discharge a saved signature (its transaction finished)."""
        snapshot = self._saved.get(asid, {}).pop(tid, None)
        if snapshot is not None:
            self._counting[asid].remove(snapshot)

    def _summary_pair(self, asid: int,
                      exclude_tid: Optional[int]) -> ReadWriteSignature:
        pair = self._pair_factory()
        counting = self._counting.get(asid)
        if counting is None or counting.is_empty:
            return pair
        exclude = self._saved.get(asid, {}).get(exclude_tid)
        counting.summary_into(pair, exclude=exclude)
        return pair

    def _install_summary(self, slot: HardwareSlot, asid: int,
                         exclude_tid: Optional[int]) -> None:
        """Give ``slot`` a freshly computed summary register.

        A slot has none until its first install (a schedule onto it, or a
        mid-transaction deschedule in its process), so a run whose
        threads never leave their contexts allocates no register.
        """
        slot.summary = self._summary_pair(asid, exclude_tid)
        self._c_summary_installs.add()
        self.stats.emit("os.summary_install", slot=slot.global_id,
                        asid=asid, exclude=exclude_tid)

    def _push_summaries(self, asid: int):
        """Interrupt every context running ``asid`` and install the summary."""
        interrupted = 0
        for core in self.cores:
            for slot in core.slots:
                if slot.thread is not None and slot.thread.asid == asid:
                    self._install_summary(slot, asid,
                                          exclude_tid=slot.thread.tid)
                    interrupted += 1
        if interrupted:
            yield self.cfg.tm.summary_interrupt_cycles
        return interrupted

    def saved_signatures(self, asid: int) -> Dict[int, PairSnapshot]:
        """Inspection hook for tests."""
        return dict(self._saved.get(asid, {}))

    # ------------------------------------------------------------------
    # Paging (Section 4.2)
    # ------------------------------------------------------------------

    def relocate_page(self, page_table: PageTable, vaddr: int):
        """Move a page and rewrite every signature that may reference it.

        For each active thread of the address space (and each saved
        signature of a descheduled one) the handler walks the blocks of the
        relocated page: any block whose *old* physical address may be in a
        read/write set is inserted at its *new* physical address, so the
        sets cover both and no isolation is lost.
        """
        self._c_page_moves.add()
        asid = page_table.asid
        fabric = self.cores[0].fabric
        relocated_blocks = set()

        # Charge the per-context interrupt cost *before* anything moves.
        # The old translation is still live during these yields, so every
        # in-flight access keeps hitting the old frame, where conflict
        # detection still works. Publishing the new mapping first and
        # rewriting signatures slot-by-slot afterwards opens a window in
        # which a thread can touch the new frame while another
        # transaction's signature only covers the old one — a real
        # (verified) isolation hole.
        for core in self.cores:
            for slot in core.slots:
                thread = slot.thread
                if thread is None or thread.asid != asid:
                    continue
                yield self.cfg.tm.summary_interrupt_cycles

        # From here to the summary refresh nothing yields: the copy, the
        # translation switch, the TLB shootdown and every signature
        # rewrite land in one simulation event.
        reloc = page_table.relocate(vaddr, self.memory)
        self.stats.emit("os.page_move", vpage=reloc.vpage,
                        old_frame=reloc.old_frame,
                        new_frame=reloc.new_frame)
        for core in self.cores:
            core.tlb.invalidate(asid, reloc.vpage)

        def rehome(pair: ReadWriteSignature) -> bool:
            touched = False
            for off in range(0, self.cfg.page_bytes, self.cfg.block_bytes):
                old_block = reloc.old_frame + off
                new_block = reloc.new_frame + off
                if pair.read.contains(old_block):
                    pair.read.insert(new_block)
                    relocated_blocks.add(new_block)
                    touched = True
                if pair.write.contains(old_block):
                    pair.write.insert(new_block)
                    relocated_blocks.add(new_block)
                    touched = True
            return touched

        # Active threads: rewrite in place (cost was charged above).
        for core in self.cores:
            for slot in core.slots:
                thread = slot.thread
                if thread is None or thread.asid != asid:
                    continue
                if thread.ctx.in_tx and rehome(thread.ctx.signature):
                    self._c_sig_rehomes.add()

        # Descheduled transactions: rewrite their saved snapshots (the
        # paper queues a signal; we apply it eagerly) and refresh summaries.
        saved = self._saved.get(asid, {})
        for tid, snapshot in list(saved.items()):
            scratch = self._pair_factory()
            scratch.restore(snapshot)
            if rehome(scratch):
                self._c_sig_rehomes.add()
                self._store_saved(asid, tid, scratch.snapshot())
        # Scrub both frames from every cache: copies of the old frame are
        # orphaned by the move, and the new frame may still have stale
        # lines from a previous tenancy. A leftover MODIFIED line would
        # let its core hit locally later — no coherence request, no
        # signature check — so scrubbing is a correctness requirement,
        # not hygiene. Runs *after* the signature rewrites so the fabric
        # sees the rehomed sets and leaves sticky obligations for cores
        # whose signatures cover the blocks at their new addresses.
        for off in range(0, self.cfg.page_bytes, self.cfg.block_bytes):
            fabric.scrub_block(reloc.old_frame + off)
            fabric.scrub_block(reloc.new_frame + off)

        # The fresh frame has no directory pointers, so without help the
        # protocol would grant requests to it unchecked; force signature
        # checks on every block a signature now covers at its new address.
        for block in sorted(relocated_blocks):
            fabric.note_relocated_block(block)
        reloc.release_old_frame()

        if saved:
            yield from self._push_summaries(asid)
        return reloc
