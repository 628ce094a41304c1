"""Software threads and hardware thread contexts (SMT slots).

The OS schedules :class:`SoftwareThread` objects onto :class:`HardwareSlot`
contexts. Transactional state *travels with the software thread* — the log
and log filter live in per-thread virtual memory, and the signature is saved
to / restored from the log across context switches (Section 4.1). The
summary signature is *per hardware slot*, because two threads of different
processes may share a core and each needs its own process's summary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.txcontext import TxContext
from repro.mem.vm import PageTable
from repro.sim.future import Signal
from repro.signatures.rwpair import PairSnapshot, ReadWriteSignature

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.core import Core


class SoftwareThread:
    """An OS-visible thread: identity, address space, transactional state."""

    __slots__ = ("tid", "page_table", "ctx", "saved_signature", "slot",
                 "preempt_requested", "parked", "resumed", "finished")

    def __init__(self, tid: int, page_table: PageTable,
                 ctx: TxContext) -> None:
        self.tid = tid
        self.page_table = page_table
        self.ctx = ctx
        #: Signature snapshot saved to the log header while descheduled.
        self.saved_signature: Optional[PairSnapshot] = None
        #: The hardware slot currently executing this thread (None when
        #: descheduled).
        self.slot: Optional["HardwareSlot"] = None
        #: Set by the OS scheduler to request preemption; the executor
        #: honors it at the next instruction boundary.
        self.preempt_requested = False
        #: Fired by the executor once it has descheduled itself.
        self.parked = Signal(f"t{tid}.parked")
        #: Fired by the scheduler when the thread is placed on a context.
        self.resumed = Signal(f"t{tid}.resumed")
        #: Set by the executor when the thread's program completed.
        self.finished = False

    @property
    def asid(self) -> int:
        return self.page_table.asid

    @property
    def scheduled(self) -> bool:
        return self.slot is not None

    def translate(self, vaddr: int) -> int:
        return self.page_table.translate(vaddr)

    def __repr__(self) -> str:
        where = f"slot={self.slot.global_id}" if self.slot else "descheduled"
        return f"SoftwareThread(t{self.tid}, {where})"


class HardwareSlot:
    """One SMT thread context on a core."""

    __slots__ = ("core", "slot_index", "summary", "thread")

    def __init__(self, core: "Core", slot_index: int) -> None:
        self.core = core
        self.slot_index = slot_index
        #: Per-context summary signature register: the union of the
        #: descheduled same-process transactions' signatures, installed by
        #: the OS (Section 4.1) and checked on *every* reference. None
        #: until the OS first installs one (``TMManager._install_summary``).
        self.summary: Optional[ReadWriteSignature] = None
        self.thread: Optional[SoftwareThread] = None

    @property
    def global_id(self) -> int:
        return self.core.core_id * self.core.threads_per_core + self.slot_index

    @property
    def occupied(self) -> bool:
        return self.thread is not None

    @property
    def ctx(self) -> TxContext:
        if self.thread is None:
            raise RuntimeError(f"slot {self.global_id} has no thread")
        return self.thread.ctx

    def bind(self, thread: SoftwareThread) -> None:
        if self.thread is not None:
            raise RuntimeError(f"slot {self.global_id} already occupied")
        self.thread = thread
        thread.slot = self

    def unbind(self) -> SoftwareThread:
        if self.thread is None:
            raise RuntimeError(f"slot {self.global_id} is empty")
        thread, self.thread = self.thread, None
        thread.slot = None
        return thread

    def __repr__(self) -> str:
        who = f"t{self.thread.tid}" if self.thread else "idle"
        return f"HardwareSlot(core{self.core.core_id}.{self.slot_index}, {who})"
