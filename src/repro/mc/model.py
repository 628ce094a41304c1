"""Finite protocol model for bounded exhaustive checking (``repro mc``).

The model runs the simulator's own machine over a tiny configuration
(2-3 cores, 2-4 blocks, 1-2 contexts per core): the real coherence
fabric (:class:`DirectoryFabric`, :class:`SnoopingFabric` or
:class:`MultiChipFabric`), real :class:`~repro.cpu.core.Core` objects
over a tags-only L1, real :class:`~repro.cpu.thread.SoftwareThread`
contexts and a real :class:`~repro.core.manager.TMManager`. Only the
clock is replaced: a deterministic transition function applies one
*atomic* protocol step at a time:

* a transactional or plain read/write by one thread context, through
  ``Core._mem_op``: summary check, SMT sibling check, L1 hit with silent
  E->M upgrade or a coherence request run to completion, then the undo
  log; a NACK goes to the core's contention manager,
* begin / commit / abort of a transaction, through ``TMManager``,
* an L1 or L2 victimization (capacity pressure made nondeterministic),
* a physical-frame scrub + reuse (the paging hazard of Section 4.2).

Because every coherence transaction in this codebase holds its entry lock
from request to completion (DESIGN.md §5's blocking simplification),
whole-request granularity explores exactly the serializations the
simulator can produce; latencies are irrelevant to reachability and are
discarded while draining each generator. A stall ends the action: the
model's backoff raises instead of returning a delay, so a NACKed access
is a self-loop once the contention manager has decided, and its retry
is a later action.

The model's state is fully captured by :meth:`ProtocolModel.encode` — a
canonical, hashable tuple — and any encoded state can be re-installed
with :meth:`ProtocolModel.decode`, which is what lets the checker in
:mod:`repro.mc.checker` run a Murphi-style BFS over one live model
instance instead of deep-copying machines.

Functional values are abstracted to a tiny modular counter per block
(writes bump the value mod ``value_mod``), which keeps the state space
finite while making undo-log restoration observable. Frame reuse bumps a
per-block *tenancy* generation; a cached line remembers the generation it
was filled under, so a line that survives a scrub is statically visible
as stale (the PR-3 frame-reuse bug).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.block import CacheBlock, MESI
from repro.coherence import make_fabric
from repro.coherence.directory import DirectoryFabric
from repro.coherence.multichip import MultiChipFabric
from repro.coherence.snooping import SnoopingFabric
from repro.common.config import (CoherenceStyle, SignatureKind, SystemConfig)
from repro.common.errors import (AbortTransaction, ConfigError,
                                 SimulationError)
from repro.common.stats import StatsRegistry
from repro.core.manager import TMManager
from repro.core.txcontext import TxContext
from repro.core.undolog import UndoRecord
from repro.cpu.core import Core
from repro.cpu.thread import HardwareSlot, SoftwareThread
from repro.mem.address import AddressMap
from repro.mem.physical import WORD_BYTES, PhysicalMemory
from repro.mem.vm import FrameAllocator, PageTable
from repro.sim.engine import Simulator
from repro.signatures.factory import make_rw_pair
from repro.signatures.rwpair import ReadWriteSignature

#: Fabric names accepted by :class:`ModelConfig`.
FABRICS = ("directory", "snooping", "multichip")

#: Action opcodes (first element of every action tuple).
OPS = ("begin", "read", "write", "commit", "abort", "evict", "l2_evict",
       "reuse")

#: One transition: ("read", tid, block_index), ("evict", core_id,
#: block_index), ("l2_evict", chip, block_index), ("reuse", block_index),
#: or ("begin"|"commit"|"abort", tid).
Action = Tuple


def action_to_dict(action: Action) -> Dict[str, object]:
    """JSON-friendly rendering of one action tuple."""
    op = action[0]
    if op in ("begin", "commit", "abort"):
        return {"op": op, "thread": action[1]}
    if op in ("read", "write"):
        return {"op": op, "thread": action[1], "block": action[2]}
    if op == "evict":
        return {"op": op, "core": action[1], "block": action[2]}
    if op == "l2_evict":
        return {"op": op, "chip": action[1], "block": action[2]}
    if op == "reuse":
        return {"op": op, "block": action[1]}
    raise ConfigError(f"unknown action {action!r}")


def action_from_dict(data: Dict[str, object]) -> Action:
    """Inverse of :func:`action_to_dict` (replay of dumped traces)."""
    op = data["op"]
    if op in ("begin", "commit", "abort"):
        return (op, data["thread"])
    if op in ("read", "write"):
        return (op, data["thread"], data["block"])
    if op == "evict":
        return (op, data["core"], data["block"])
    if op == "l2_evict":
        return (op, data["chip"], data["block"])
    if op == "reuse":
        return (op, data["block"])
    raise ConfigError(f"unknown action {data!r}")


def format_action(action: Action) -> str:
    """Human-readable rendering, e.g. ``write t1 B0`` or ``reuse B1``."""
    op = action[0]
    if op in ("begin", "commit", "abort"):
        return f"{op} t{action[1]}"
    if op in ("read", "write"):
        return f"{op} t{action[1]} B{action[2]}"
    if op == "evict":
        return f"evict core{action[1]} B{action[2]}"
    if op == "l2_evict":
        return f"l2_evict chip{action[1]} B{action[2]}"
    return f"reuse B{action[1]}"


@dataclass(frozen=True)
class ModelConfig:
    """Shape of one model-checking configuration.

    ``cores`` is per chip (``chips`` matters only for the multichip
    fabric). ``value_mod`` bounds the abstract per-block value domain;
    2 is enough to make undo-log restoration observable. The
    ``allow_nontx`` / ``enable_*`` switches prune whole transition
    families to trade coverage for state count.
    """

    fabric: str = "directory"
    cores: int = 2
    blocks: int = 2
    contexts_per_core: int = 1
    chips: int = 2
    signature: SignatureKind = SignatureKind.PERFECT
    signature_bits: int = 64
    value_mod: int = 2
    allow_nontx: bool = True
    enable_evict: bool = True
    enable_l2_evict: bool = True
    enable_reuse: bool = True
    mutation: Optional[str] = None

    def __post_init__(self) -> None:
        if self.fabric not in FABRICS:
            raise ConfigError(
                f"fabric must be one of {FABRICS}, got {self.fabric!r}")
        if not 1 <= self.cores <= 4:
            raise ConfigError("model cores must be 1..4")
        if not 1 <= self.blocks <= 4:
            raise ConfigError("model blocks must be 1..4")
        if not 1 <= self.contexts_per_core <= 2:
            raise ConfigError("model contexts_per_core must be 1 or 2")
        if not 2 <= self.chips <= 3:
            raise ConfigError("model chips must be 2 or 3")
        if self.value_mod < 2:
            raise ConfigError("value_mod must be >= 2")

    @property
    def total_cores(self) -> int:
        return self.cores * (self.chips if self.fabric == "multichip" else 1)

    def describe(self) -> str:
        chips = f"{self.chips}x" if self.fabric == "multichip" else ""
        mut = f" +{self.mutation}" if self.mutation else ""
        return (f"{self.fabric} {chips}{self.cores}c/{self.blocks}b/"
                f"{self.contexts_per_core}ctx "
                f"{self.signature.value}{mut}")

    def to_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["signature"] = self.signature.value
        return out


class ModelL1:
    """Tags-only L1 for one model core.

    Duck-types the slice of :class:`repro.cache.array.CacheArray` that
    ``Core``, the fabrics and :mod:`repro.coherence.invariants` use
    (``lookup``, ``insert``, ``peek``, ``resident_blocks``,
    ``invalidate``), with no capacity limit — victimization is an explicit
    model transition instead of an LRU side effect, so the checker can
    explore an eviction at *any* point. Each line also remembers the
    frame-tenancy generation it was filled under, read at fill time from
    the model's one tenancy table (see :class:`ProtocolModel`).
    """

    def __init__(self, tenancy: List[int],
                 block_index: Dict[int, int]) -> None:
        self._lines: Dict[int, CacheBlock] = {}
        self.line_tenancy: Dict[int, int] = {}
        self._tenancy = tenancy
        self._block_index = block_index

    def peek(self, block_addr: int) -> Optional[CacheBlock]:
        return self._lines.get(block_addr)

    lookup = peek

    def resident_blocks(self) -> Iterator[CacheBlock]:
        for addr in sorted(self._lines):
            yield self._lines[addr]

    def insert(self, block_addr: int, state: MESI
               ) -> Tuple[CacheBlock, None]:
        """A fill after a grant: never a victim (the L1 has no capacity)."""
        tenancy = self._tenancy[self._block_index[block_addr]]
        return self.install(block_addr, state, tenancy), None

    def install(self, block_addr: int, state: MESI, tenancy: int
                ) -> CacheBlock:
        block = CacheBlock(block_addr, state)
        self._lines[block_addr] = block
        self.line_tenancy[block_addr] = tenancy
        return block

    def invalidate(self, block_addr: int) -> Optional[CacheBlock]:
        self.line_tenancy.pop(block_addr, None)
        return self._lines.pop(block_addr, None)

    def clear(self) -> None:
        self._lines.clear()
        self.line_tenancy.clear()


class _Stalled(Exception):
    """A NACKed access stalls: the action ends before the access
    completes."""


class _StallEndsAction:
    """The model's backoff. ``Core`` asks for a retry delay only once it
    has decided to stall (through its contention manager, for a
    transactional access); raising instead ends the action as a
    self-loop, and the retry is a later action."""

    @staticmethod
    def stall_delay() -> int:
        raise _Stalled


def _drain(gen):
    """Run a simulation generator to completion, discarding time.

    The model serializes whole actions, so every ``SimLock`` is free and
    the generator only ever yields integer latencies; a yielded Future
    would mean a contended lock, which is a model bug worth failing on.
    """
    while True:
        try:
            step = gen.send(None)
        except StopIteration as stop:
            return stop.value
        if not isinstance(step, (int, float)):
            raise SimulationError(
                f"model request stalled on {step!r}; requests must run "
                "uncontended")


class TransitionViolation(Exception):
    """An invariant that can only be judged *during* a transition failed
    (undo-log restoration, write-set log coverage)."""

    def __init__(self, invariant: str, message: str) -> None:
        super().__init__(message)
        self.invariant = invariant


class ProtocolModel:
    """The live model: the simulator's machine without its clock."""

    def __init__(self, mcfg: ModelConfig) -> None:
        self.mcfg = mcfg
        cfg = self.cfg = self._system_config(mcfg)
        self.stats = StatsRegistry()
        self.block_addrs = [i * cfg.block_bytes for i in range(mcfg.blocks)]
        self._block_index = {addr: i
                             for i, addr in enumerate(self.block_addrs)}
        self.memory = PhysicalMemory(capacity_bytes=cfg.memory_bytes)
        #: Per-block frame-tenancy generation, bumped by ``reuse``.
        self.tenancy = [0] * mcfg.blocks
        self.fabric = make_fabric(cfg, self.stats)

        def pair() -> ReadWriteSignature:
            return make_rw_pair(cfg.tm.signature, cfg.block_bytes)

        backoff = _StallEndsAction()
        amap = AddressMap(block_bytes=cfg.block_bytes,
                          page_bytes=cfg.page_bytes, num_banks=cfg.l2_banks)
        self.cores = [Core(core_id, cfg, self.fabric, self.memory,
                           self.stats, backoff, amap)
                      for core_id in range(mcfg.total_cores)]
        # Every model block sits in page 0, which a fresh allocator maps
        # to frame 0: translation is the identity, in address space 0.
        page_table = PageTable(amap, FrameAllocator(amap, cfg.memory_bytes))
        #: Thread id -> its slot and context (tid = core * contexts + slot).
        self.slots: List[HardwareSlot] = []
        self.contexts: List[TxContext] = []
        for core in self.cores:
            core.l1 = ModelL1(self.tenancy, self._block_index)
            for slot in core.slots:
                ctx = TxContext(
                    thread_id=len(self.slots), signature=pair(),
                    stats=self.stats, block_bytes=cfg.block_bytes,
                    log_filter_entries=cfg.tm.log_filter_entries)
                slot.bind(SoftwareThread(ctx.thread_id, page_table, ctx))
                self.slots.append(slot)
                self.contexts.append(ctx)
        self.manager = TMManager(cfg, Simulator(), self.memory, self.cores,
                                 self.stats, pair_factory=pair)
        if mcfg.mutation is not None:
            from repro.verify.faults import apply_protocol_mutation
            apply_protocol_mutation(self.fabric, mcfg.mutation)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _system_config(mcfg: ModelConfig) -> SystemConfig:
        if mcfg.fabric == "multichip":
            base = SystemConfig.multichip(
                num_chips=mcfg.chips, cores_per_chip=mcfg.cores,
                threads_per_core=mcfg.contexts_per_core)
        else:
            base = SystemConfig.small(
                num_cores=mcfg.cores,
                threads_per_core=mcfg.contexts_per_core)
            if mcfg.fabric == "snooping":
                base = dataclasses.replace(
                    base, coherence=CoherenceStyle.SNOOPING)
        return base.with_signature(mcfg.signature,
                                   bits=mcfg.signature_bits)

    # ------------------------------------------------------------------
    # Action enumeration
    # ------------------------------------------------------------------

    def actions(self) -> List[Action]:
        """Transitions enabled in the current state, in deterministic
        order. Guards are *structural* (is a line resident, is the thread
        in a transaction); whether an access actually changes state (it
        may be NACKed) is discovered by applying it."""
        mcfg = self.mcfg
        out: List[Action] = []
        for ctx in self.contexts:
            tid = ctx.thread_id
            if ctx.in_tx:
                out.append(("commit", tid))
                out.append(("abort", tid))
            else:
                out.append(("begin", tid))
            if ctx.in_tx or mcfg.allow_nontx:
                for b in range(mcfg.blocks):
                    out.append(("read", tid, b))
                    out.append(("write", tid, b))
        if mcfg.enable_evict:
            for core in self.cores:
                for b in range(mcfg.blocks):
                    if core.l1.peek(self.block_addrs[b]) is not None:
                        out.append(("evict", core.core_id, b))
        if mcfg.enable_l2_evict:
            out.extend(self._l2_evict_actions())
        if mcfg.enable_reuse:
            for b in range(mcfg.blocks):
                if not self._block_in_write_set(b):
                    out.append(("reuse", b))
        return out

    def _l2_evict_actions(self) -> List[Action]:
        out: List[Action] = []
        if isinstance(self.fabric, DirectoryFabric):
            for b in range(self.mcfg.blocks):
                if self.fabric.l2.peek(self.block_addrs[b]) is not None:
                    out.append(("l2_evict", 0, b))
        elif isinstance(self.fabric, MultiChipFabric):
            for chip in range(self.cfg.num_chips):
                for b in range(self.mcfg.blocks):
                    if self.fabric.l2s[chip].peek(
                            self.block_addrs[b]) is not None:
                        out.append(("l2_evict", chip, b))
        # Snooping: L2 residency is behaviorally inert (latency only), so
        # there is nothing to explore.
        return out

    def _block_in_write_set(self, b: int) -> bool:
        """Reuse guard: freeing a frame some transaction would restore
        into on abort is an OS bug, not a protocol state to explore."""
        addr = self.block_addrs[b]
        return any(ctx.in_tx
                   and ctx.signature.write.contains_exact(addr)
                   for ctx in self.contexts)

    # ------------------------------------------------------------------
    # Transition application
    # ------------------------------------------------------------------

    def apply(self, action: Action) -> None:
        """Execute one transition on the live state.

        Raises :class:`TransitionViolation` for invariants only judgeable
        mid-transition. State-shaped invariants are the checker's job.
        """
        op = action[0]
        if op == "begin":
            _drain(self.manager.begin(self.slots[action[1]]))
        elif op in ("read", "write"):
            self._do_access(action[1], action[2], is_write=(op == "write"))
        elif op == "commit":
            _drain(self.manager.commit(self.slots[action[1]]))
        elif op == "abort":
            self._do_abort(action[1])
        elif op == "evict":
            self._do_evict(action[1], action[2])
        elif op == "l2_evict":
            self._do_l2_evict(action[1], action[2])
        elif op == "reuse":
            self._do_reuse(action[1])
        else:
            raise ConfigError(f"unknown action {action!r}")

    def _do_abort(self, tid: int,
                  cause: Optional[AbortTransaction] = None) -> None:
        """Abort through ``TMManager``, checking on the fly that the undo
        log restores the exact pre-transaction memory image (the paper's
        eager-versioning guarantee: "abort restores through the current
        translation"). ``cause`` is what an access raised; None for the
        ``abort`` action."""
        slot = self.slots[tid]
        ctx = slot.thread.ctx
        logged: Dict[int, int] = {}
        for frame in ctx.log._frames:
            for record in frame.records:
                # Earliest record per block wins: that is the value the
                # LIFO unroll must land on.
                logged.setdefault(record.vblock, record.old_words[0])
        missing = [f"B{self._block_index[a]}"
                   for a in sorted(ctx.signature.write.exact_set())
                   if a not in logged]
        if missing:
            raise TransitionViolation(
                "log-write-coverage",
                f"t{tid} aborts with write-set blocks "
                f"{', '.join(missing)} never undo-logged — the abort "
                "cannot restore them")
        _drain(self.manager.abort(slot, cause=cause))
        for addr, expected in sorted(logged.items()):
            actual = self.memory.load(addr)
            if actual != expected:
                raise TransitionViolation(
                    "log-restore",
                    f"t{tid}'s abort left B{self._block_index[addr]} = "
                    f"{actual}, undo log says pre-tx value was {expected}")

    def _do_access(self, tid: int, b: int, is_write: bool) -> None:
        """One load or store through the core's own access path.

        A store writes ``(old + 1) % value_mod``; the action is atomic,
        so ``old``, read before the access, is the value it replaces. A
        stall ends the action before the access completes (a self-loop
        unless the request itself moved fabric state); an abort the
        access raises runs the abort handler.
        """
        slot = self.slots[tid]
        addr = self.block_addrs[b]
        if is_write:
            value = (self.memory.load(addr) + 1) % self.mcfg.value_mod
            access = slot.core.store(slot, addr, value)
        else:
            access = slot.core.load(slot, addr)
        try:
            _drain(access)
        except _Stalled:
            pass
        except AbortTransaction as exc:
            self._do_abort(tid, cause=exc)

    def _do_evict(self, core_id: int, b: int) -> None:
        """L1 victimization, mirroring ``Core._install``'s victim path."""
        core = self.cores[core_id]
        addr = self.block_addrs[b]
        line = core.l1.peek(addr)
        if line is None:
            raise SimulationError(f"evict of non-resident block B{b}")
        transactional = core.holds_transactional(addr)
        state = line.state
        core.l1.invalidate(addr)
        self.fabric.l1_evicted(core_id, addr, state, transactional)

    def _do_l2_evict(self, chip: int, b: int) -> None:
        """Shared-L2 victimization: the lost-directory-info / sticky-M
        paths of Sections 5 and 7. Uses the fabrics' internal
        victimization handlers, which the capacity-driven path also
        calls — the model only makes *when* nondeterministic."""
        addr = self.block_addrs[b]
        if isinstance(self.fabric, DirectoryFabric):
            if self.fabric.l2.invalidate(addr) is None:
                raise SimulationError(f"l2_evict of non-resident B{b}")
            self.fabric._l2_victimized(addr)
        elif isinstance(self.fabric, MultiChipFabric):
            if self.fabric.l2s[chip].invalidate(addr) is None:
                raise SimulationError(f"l2_evict of non-resident B{b}")
            self.fabric._chip_l2_victimized(chip, addr)
        else:
            raise SimulationError("l2_evict is undefined for snooping")

    def _do_reuse(self, b: int) -> None:
        """Scrub + frame reuse: the OS frees the frame and hands it to a
        new tenant (fresh value, next tenancy generation)."""
        addr = self.block_addrs[b]
        self.fabric.scrub_block(addr)
        self.tenancy[b] = (self.tenancy[b] + 1) % 2
        self.memory.store(addr, 0)
        if self.stats.recorder is not None:
            self.stats.emit("os.frame_reuse", block=addr,
                            tenancy=self.tenancy[b])

    # ------------------------------------------------------------------
    # State encoding
    # ------------------------------------------------------------------

    def encode(self, core_map: Optional[Tuple[int, ...]] = None,
               block_map: Optional[Tuple[int, ...]] = None,
               chip_map: Optional[Tuple[int, ...]] = None) -> Tuple:
        """Canonical hashable snapshot of all behavior-relevant state.

        ``core_map``/``block_map``/``chip_map`` relabel identities on the
        way out (``map[old] = new``); the identity maps give the *raw*
        encoding that :meth:`decode` accepts. Observability state
        (counters, TLBs, LRU clocks) is deliberately excluded: it never
        feeds back into protocol decisions. So is ``possible_cycle``, which
        :meth:`decode` clears: an access can set it only on *other*
        contexts, so the timestamp policy never aborts a requester during
        the search, and every contention-manager decision is a stall.
        """
        mcfg = self.mcfg
        cm = core_map or tuple(range(mcfg.total_cores))
        bm = block_map or tuple(range(mcfg.blocks))

        mem = [0] * mcfg.blocks
        ten = [0] * mcfg.blocks
        for b, addr in enumerate(self.block_addrs):
            mem[bm[b]] = self.memory.load(addr)
            ten[bm[b]] = self.tenancy[b]

        lines: List[Optional[Tuple]] = [None] * mcfg.total_cores
        ctxs: List[Optional[Tuple]] = [None] * mcfg.total_cores
        for core in self.cores:
            # An absent line is ``()``, which sorts below every present
            # ``(state, tenancy)``: plain tuple order is total.
            row: List[Tuple] = [()] * mcfg.blocks
            for b, addr in enumerate(self.block_addrs):
                block = core.l1.peek(addr)
                if block is not None:
                    row[bm[b]] = (block.state.value,
                                  core.l1.line_tenancy[addr])
            lines[cm[core.core_id]] = tuple(row)
            slot_rows = []
            for slot in core.slots:
                ctx = slot.thread.ctx
                rs = tuple(sorted(bm[self._block_index[a]]
                                  for a in ctx.signature.read.exact_set()
                                  if a in self._block_index))
                ws = tuple(sorted(bm[self._block_index[a]]
                                  for a in ctx.signature.write.exact_set()
                                  if a in self._block_index))
                log = tuple(
                    (bm[self._block_index[rec.vblock]], rec.old_words[0])
                    for frame in ctx.log._frames
                    for rec in frame.records)
                slot_rows.append((ctx.log.depth, rs, ws, log))
            ctxs[cm[core.core_id]] = tuple(slot_rows)

        return (tuple(mem), tuple(ten), tuple(lines), tuple(ctxs),
                self._encode_fabric(cm, bm, chip_map))

    def _encode_fabric(self, cm: Tuple[int, ...], bm: Tuple[int, ...],
                       chip_map: Optional[Tuple[int, ...]]) -> Tuple:
        mcfg = self.mcfg
        if isinstance(self.fabric, DirectoryFabric):
            entries: List[Optional[Tuple]] = [None] * mcfg.blocks
            l2 = [False] * mcfg.blocks
            for b, addr in enumerate(self.block_addrs):
                e = self.fabric.entry_view(addr)
                entries[bm[b]] = (
                    -1 if e.owner is None else cm[e.owner],
                    tuple(sorted(cm[c] for c in e.sharers)),
                    tuple(sorted(cm[c] for c in e.sticky)),
                    e.lost_info, e.must_check_all)
                l2[bm[b]] = self.fabric.l2.peek(addr) is not None
            return ("dir", tuple(entries), tuple(l2))
        if isinstance(self.fabric, SnoopingFabric):
            entries = [None] * mcfg.blocks
            for b, addr in enumerate(self.block_addrs):
                owner = self.fabric._owner.get(addr)
                sharers = self.fabric._sharers.get(addr, set())
                entries[bm[b]] = (
                    -1 if owner is None else cm[owner],
                    tuple(sorted(cm[c] for c in sharers)))
            return ("snoop", tuple(entries))
        fabric = self.fabric
        assert isinstance(fabric, MultiChipFabric)
        xm = chip_map or tuple(range(self.cfg.num_chips))
        chips: List[Optional[Tuple]] = [None] * self.cfg.num_chips
        for chip in range(self.cfg.num_chips):
            rows: List[Optional[Tuple]] = [None] * mcfg.blocks
            l2 = [False] * mcfg.blocks
            for b, addr in enumerate(self.block_addrs):
                e = fabric.chip_entry_view(chip, addr)
                rows[bm[b]] = (
                    e.rights or "",
                    -1 if e.owner is None else cm[e.owner],
                    tuple(sorted(cm[c] for c in e.sharers)),
                    tuple(sorted(cm[c] for c in e.sticky)))
                l2[bm[b]] = fabric.l2s[chip].peek(addr) is not None
            chips[xm[chip]] = (tuple(rows), tuple(l2))
        mems: List[Optional[Tuple]] = [None] * mcfg.blocks
        for b, addr in enumerate(self.block_addrs):
            m = fabric.mem_entry_view(addr)
            mems[bm[b]] = (
                -1 if m.owner_chip is None else xm[m.owner_chip],
                tuple(sorted(xm[c] for c in m.sharer_chips)),
                tuple(sorted(xm[c] for c in m.sticky_chips)))
        return ("multichip", tuple(chips), tuple(mems))

    # ------------------------------------------------------------------
    # State decoding
    # ------------------------------------------------------------------

    def decode(self, state: Tuple) -> None:
        """Re-install a raw (identity-mapped) encoded state."""
        mcfg = self.mcfg
        mem, ten, lines, ctxs, fabric_state = state
        for b, addr in enumerate(self.block_addrs):
            self.memory.store(addr, mem[b])
            self.tenancy[b] = ten[b]
        for core in self.cores:
            core.l1.clear()
            row = lines[core.core_id]
            for b, cell in enumerate(row):
                if cell:
                    state_char, tenancy = cell
                    core.l1.install(self.block_addrs[b], MESI(state_char),
                                    tenancy)
            for slot, slot_state in zip(core.slots, ctxs[core.core_id]):
                self._decode_ctx(slot.thread.ctx, slot_state)
        self._decode_fabric(fabric_state)

    def _decode_ctx(self, ctx: TxContext, slot_state: Tuple) -> None:
        depth, rs, ws, log = slot_state
        ctx.signature.clear()
        for b in rs:
            ctx.signature.insert_read(self.block_addrs[b])
        for b in ws:
            ctx.signature.insert_write(self.block_addrs[b])
        ctx.log.reset()
        ctx.log_filter.clear()
        if depth:
            ctx.log.push_frame(checkpoint=None)
            zeros = (0,) * (self.cfg.block_bytes // WORD_BYTES - 1)
            for b, old in log:
                addr = self.block_addrs[b]
                ctx.log.current.records.append(
                    UndoRecord(addr, (old,) + zeros))
                ctx.log_filter.should_log(addr)
            ctx.timestamp = (0, ctx.thread_id)
        else:
            ctx.timestamp = None
        ctx.possible_cycle = False
        ctx.pending_abort = False
        ctx.pending_abort_fp = False
        ctx.aborted_by_os = False
        ctx.needs_summary_recompute = False
        ctx.escape_depth = 0
        ctx.write_buffer.clear()

    def _decode_fabric(self, fabric_state: Tuple) -> None:
        tag = fabric_state[0]
        if tag == "dir":
            fabric = self.fabric
            assert isinstance(fabric, DirectoryFabric)
            _tag, entries, l2 = fabric_state
            for b, addr in enumerate(self.block_addrs):
                owner, sharers, sticky, lost, check_all = entries[b]
                e = fabric.entry_view(addr)
                e.owner = None if owner < 0 else owner
                e.sharers = set(sharers)
                e.sticky = set(sticky)
                e.lost_info = lost
                e.must_check_all = check_all
                fabric.l2.invalidate(addr)
                if l2[b]:
                    _blk, victim = fabric.l2.insert(addr, MESI.SHARED)
                    assert victim is None, "model L2 must not overflow"
        elif tag == "snoop":
            fabric = self.fabric
            assert isinstance(fabric, SnoopingFabric)
            _tag, entries = fabric_state
            fabric._owner.clear()
            fabric._sharers.clear()
            for b, addr in enumerate(self.block_addrs):
                owner, sharers = entries[b]
                if owner >= 0:
                    fabric._owner[addr] = owner
                if sharers:
                    fabric._sharers[addr] = set(sharers)
        else:
            fabric = self.fabric
            assert isinstance(fabric, MultiChipFabric)
            _tag, chips, mems = fabric_state
            for chip in range(self.cfg.num_chips):
                rows, l2 = chips[chip]
                for b, addr in enumerate(self.block_addrs):
                    rights, owner, sharers, sticky = rows[b]
                    e = fabric.chip_entry_view(chip, addr)
                    e.rights = rights or None
                    e.owner = None if owner < 0 else owner
                    e.sharers = set(sharers)
                    e.sticky = set(sticky)
                    fabric.l2s[chip].invalidate(addr)
                    if l2[b]:
                        _blk, victim = fabric.l2s[chip].insert(
                            addr, MESI.SHARED)
                        assert victim is None, "model L2 must not overflow"
            for b, addr in enumerate(self.block_addrs):
                owner_chip, sharer_chips, sticky_chips = mems[b]
                m = fabric.mem_entry_view(addr)
                m.owner_chip = None if owner_chip < 0 else owner_chip
                m.sharer_chips = set(sharer_chips)
                m.sticky_chips = set(sticky_chips)
