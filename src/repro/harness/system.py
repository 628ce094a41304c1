"""System builder: assembles a full simulated machine from a config.

A :class:`System` wires together the simulation kernel, functional memory,
frame allocator, coherence fabric with its interconnect (directory,
snooping or multichip), cores with their SMT slots, and the TM manager —
the complete machine of Figure 2 plus the LogTM-SE additions of Figure 1.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.rng import DEFAULT_SEED, make_rng
from repro.common.stats import StatsRegistry
from repro.coherence import make_fabric
from repro.core.conflict import BackoffPolicy
from repro.core.manager import TMManager
from repro.core.txcontext import TxContext
from repro.cpu.core import Core
from repro.cpu.thread import HardwareSlot, SoftwareThread
from repro.mem.address import AddressMap
from repro.mem.physical import PhysicalMemory
from repro.mem.vm import FrameAllocator, PageTable
from repro.sim.engine import Simulator
from repro.signatures.factory import make_rw_pair
from repro.signatures.rwpair import ReadWriteSignature


class System:
    """One fully assembled simulated machine."""

    def __init__(self, cfg: SystemConfig, seed: int = DEFAULT_SEED) -> None:
        self.cfg = cfg
        self.seed = seed
        self.sim = Simulator()
        self.stats = StatsRegistry()
        self.memory = PhysicalMemory(capacity_bytes=cfg.memory_bytes)
        self.amap = AddressMap(block_bytes=cfg.block_bytes,
                               page_bytes=cfg.page_bytes,
                               num_banks=cfg.l2_banks)
        self.frame_allocator = FrameAllocator(self.amap, cfg.memory_bytes)
        self.fabric = make_fabric(cfg, self.stats)
        backoff_rng = make_rng(seed, "backoff")
        self.backoff = BackoffPolicy(cfg.tm, backoff_rng)
        self.cores: List[Core] = [
            Core(core_id, cfg, self.fabric, self.memory, self.stats,
                 self.backoff, self.amap)
            for core_id in range(cfg.total_cores)]
        self.manager = TMManager(cfg, self.sim, self.memory, self.cores,
                                 self.stats, pair_factory=self._make_pair)
        self._page_tables: Dict[int, PageTable] = {}
        self._next_tid = 0
        #: Every software thread ever created, keyed by tid — the lookup
        #: the verification checkers use to resolve event ``thread`` fields
        #: back to contexts and translations.
        self.threads: Dict[int, SoftwareThread] = {}

    def _make_pair(self) -> ReadWriteSignature:
        return make_rw_pair(self.cfg.tm.signature, self.cfg.block_bytes)

    # ------------------------------------------------------------------
    # Processes and threads
    # ------------------------------------------------------------------

    def page_table(self, asid: int = 0) -> PageTable:
        """The (shared) page table of one address space."""
        table = self._page_tables.get(asid)
        if table is None:
            table = PageTable(self.amap, self.frame_allocator, asid=asid)
            self._page_tables[asid] = table
        return table

    def new_thread(self, asid: int = 0) -> SoftwareThread:
        """Create an unscheduled software thread in the given process."""
        tid = self._next_tid
        self._next_tid += 1
        ctx = TxContext(
            thread_id=tid,
            signature=self._make_pair(),
            stats=self.stats,
            block_bytes=self.cfg.block_bytes,
            log_filter_entries=self.cfg.tm.log_filter_entries)
        thread = SoftwareThread(tid, self.page_table(asid), ctx)
        self.threads[tid] = thread
        return thread

    def all_slots(self) -> List[HardwareSlot]:
        return [slot for core in self.cores for slot in core.slots]

    def free_slots(self) -> List[HardwareSlot]:
        return [slot for slot in self.all_slots() if not slot.occupied]

    def place_threads(self, count: int, asid: int = 0
                      ) -> List[SoftwareThread]:
        """Create and bind ``count`` threads, spreading across cores first.

        Thread i lands on core ``i % num_cores``, SMT slot ``i // num_cores``
        — the natural OS placement that fills every core before doubling up.
        """
        if count > len(self.all_slots()):
            raise ConfigError(
                f"{count} threads exceed {len(self.all_slots())} contexts")
        threads = []
        for i in range(count):
            thread = self.new_thread(asid)
            core = self.cores[i % self.cfg.total_cores]
            slot = core.slots[i // self.cfg.total_cores]
            slot.bind(thread)
            threads.append(thread)
        return threads

    def attach_bus(self, max_events: int = 100_000, kinds=None,
                   strict: bool = False, with_log: bool = True):
        """Attach an :class:`repro.obs.bus.EventBus` plus a ring-buffer log.

        Every component's ``stats.emit(...)`` (and the sim kernel's
        process events) then publish on the bus; the returned
        ``(bus, log)`` pair gives both the fan-out point for extra
        subscribers (metrics, streaming exporters) and a bounded buffer of
        what happened. ``kinds`` filters what the *log* keeps (exact kinds
        or whole namespaces); the bus itself sees everything.
        ``with_log=False`` attaches the bare bus and returns ``(bus,
        None)`` — for subscribers (e.g. the verification checkers) that
        consume events without buffering them.
        """
        from repro.obs.bus import EventBus, RingBufferLog
        bus = EventBus(clock=lambda: self.sim.now, strict=strict)
        log = None
        if with_log:
            log = RingBufferLog(max_events=max_events, kinds=kinds)
            bus.subscribe(log)
        self.stats.recorder = bus
        self.sim.tracer = bus
        return bus, log
