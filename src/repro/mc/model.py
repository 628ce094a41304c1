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
flat, hashable tuple laid out by :attr:`ProtocolModel.layout` — and any
encoded state can be re-installed with :meth:`ProtocolModel.decode`,
which is what lets the checker in :mod:`repro.mc.checker` run a
Murphi-style BFS over one live model instance instead of deep-copying
machines.

Functional values are abstracted to a tiny modular counter per block
(writes bump the value mod :data:`VALUES`), which keeps the state space
finite while making undo-log restoration observable. Frame reuse bumps a
per-block *tenancy* generation; a cached line remembers the generation it
was filled under, so a line that survives a scrub is statically visible
as stale (the PR-3 frame-reuse bug).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import compress, islice, product
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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

#: The abstract value domain: a store writes ``(old + 1) % VALUES``. Two
#: values are enough to make undo-log restoration observable.
VALUES = 2

#: Every action opcode with the names of its operands, in tuple order:
#: ``("write", 1, 0)`` is thread 1 writing block 0. An operand name is
#: also the kind of identity it holds, which is what a symmetry
#: relabels (:mod:`repro.mc.state`).
OPERANDS: Dict[str, Tuple[str, ...]] = {
    "begin": ("thread",),
    "read": ("thread", "block"),
    "write": ("thread", "block"),
    "commit": ("thread",),
    "abort": ("thread",),
    "evict": ("core", "block"),
    "l2_evict": ("chip", "block"),
    "reuse": ("block",),
}

#: How :func:`format_action` prefixes each kind of operand.
_PREFIXES = {"thread": "t", "core": "core", "chip": "chip", "block": "B"}

#: One transition: the opcode, then its operands (see :data:`OPERANDS`).
Action = Tuple


def action_to_dict(action: Action) -> Dict[str, object]:
    """JSON-friendly rendering of one action tuple."""
    names = OPERANDS.get(action[0])
    if names is None:
        raise ConfigError(f"unknown action {action!r}")
    return {"op": action[0], **dict(zip(names, action[1:]))}


def action_from_dict(data: Dict[str, object]) -> Action:
    """Inverse of :func:`action_to_dict` (replay of dumped traces)."""
    names = OPERANDS.get(data["op"])
    if names is None:
        raise ConfigError(f"unknown action {data!r}")
    return (data["op"],) + tuple(data[name] for name in names)


def format_action(action: Action) -> str:
    """Human-readable rendering, e.g. ``write t1 B0`` or ``reuse B1``."""
    return " ".join([action[0]] + [
        f"{_PREFIXES[name]}{value}"
        for name, value in zip(OPERANDS[action[0]], action[1:])])


@dataclass(frozen=True)
class ModelConfig:
    """Shape of one model-checking configuration. ``cores`` is per chip
    (``chips`` matters only for the multichip fabric)."""

    fabric: str = "directory"
    cores: int = 2
    blocks: int = 2
    contexts_per_core: int = 1
    chips: int = 2
    signature: SignatureKind = SignatureKind.PERFECT
    signature_bits: int = 64
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

    @property
    def total_cores(self) -> int:
        return self.cores * (self.chips if self.fabric == "multichip" else 1)

    def system_config(self) -> SystemConfig:
        """The simulator configuration the model's machine is built from."""
        if self.fabric == "multichip":
            base = SystemConfig.multichip(
                num_chips=self.chips, cores_per_chip=self.cores,
                threads_per_core=self.contexts_per_core)
        else:
            base = SystemConfig.small(
                num_cores=self.cores,
                threads_per_core=self.contexts_per_core)
            if self.fabric == "snooping":
                base = dataclasses.replace(
                    base, coherence=CoherenceStyle.SNOOPING)
        return base.with_signature(self.signature, bits=self.signature_bits)

    def describe(self) -> str:
        """One line naming the shape: ``directory 2c/2b/1ctx bs/1``
        (an inexact signature shows its register width)."""
        chips = f"{self.chips}x" if self.fabric == "multichip" else ""
        bits = ("" if self.signature is SignatureKind.PERFECT
                else f"/{self.signature_bits}")
        mut = f" +{self.mutation}" if self.mutation else ""
        return (f"{self.fabric} {chips}{self.cores}c/{self.blocks}b/"
                f"{self.contexts_per_core}ctx "
                f"{self.signature.value}{bits}{mut}")

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
        self.set_line_state(block_addr, (state.value, tenancy))
        return self._lines[block_addr], None

    def invalidate(self, block_addr: int) -> Optional[CacheBlock]:
        self.line_tenancy.pop(block_addr, None)
        return self._lines.pop(block_addr, None)

    def line_state(self, block_addr: int) -> Tuple:
        """``()`` when the line is absent, else (MESI letter, tenancy)."""
        block = self._lines.get(block_addr)
        if block is None:
            return ()
        return (block.state.value, self.line_tenancy[block_addr])

    def set_line_state(self, block_addr: int, line: Tuple) -> None:
        """Install a :meth:`line_state`."""
        self.invalidate(block_addr)
        if line:
            self._lines[block_addr] = CacheBlock(block_addr, MESI(line[0]))
            self.line_tenancy[block_addr] = line[1]


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


#: The sections of an encoded state, in order, each with the identities
#: that index it (outermost first; cells in row-major order). No cell
#: holds an identity, so relabeling identities only moves cells: an
#: entry's owner and sets become one flag tuple per core or chip. Every
#: cell of a section holds one leaf type, so tuple order is total.
_SECTIONS = (
    ("value", ("block",)),                # abstract memory value
    ("tenancy", ("block",)),              # frame generation
    ("line", ("core", "block")),          # ModelL1.line_state
    ("depth", ("thread",)),               # undo-log depth
    ("footprint", ("thread", "block")),   # (read, written, undo entry)
)
_DIRECTORY_SECTIONS = (
    # (lost_info, must_check_all) or (rights or ""), then in the L2
    ("entry", ("chip", "block")),
    ("holder", ("chip", "block", "core")),    # (owner, sharer, sticky)
)
_FABRIC_SECTIONS = {
    "directory": _DIRECTORY_SECTIONS,         # one chip
    "multichip": _DIRECTORY_SECTIONS + (
        ("chip_holder", ("block", "chip")),   # (owner, sharer, sticky)
    ),
    "snooping": (("holder", ("block", "core")),),   # (owner, sharer)
}


def _spread(holders: Tuple, count: int) -> List[Tuple[bool, ...]]:
    """An entry's ``(owner, *id sets)`` as one flag tuple per id."""
    owner, *sets = holders
    return [(i == owner,) + tuple(i in ids for ids in sets)
            for i in range(count)]


def _gather(cells: Iterable[Tuple[bool, ...]]) -> Tuple:
    """Inverse of :func:`_spread`."""
    owners, *sets = zip(*cells)
    ids = range(len(owners))
    return (owners.index(True) if True in owners else None,
            *(set(compress(ids, flags)) for flags in sets))


class ProtocolModel:
    """The live model: the simulator's machine without its clock."""

    def __init__(self, mcfg: ModelConfig) -> None:
        self.mcfg = mcfg
        cfg = self.cfg = mcfg.system_config()
        self.stats = StatsRegistry()
        self.block_addrs = [i * cfg.block_bytes for i in range(mcfg.blocks)]
        #: Block address -> its index among the model's blocks.
        self.block_index = {addr: i for i, addr in enumerate(self.block_addrs)}
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
            core.l1 = ModelL1(self.tenancy, self.block_index)
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
        sizes = {"block": mcfg.blocks, "core": mcfg.total_cores,
                 "thread": len(self.contexts), "chip": cfg.num_chips}
        #: One ``(section, ((identity kind, index), ...))`` per position
        #: of :meth:`encode`'s tuple.
        self.layout = [
            (name, tuple(zip(kinds, index)))
            for name, kinds in _SECTIONS + _FABRIC_SECTIONS[mcfg.fabric]
            for index in product(*(range(sizes[kind]) for kind in kinds))]
        self._record_tail = (0,) * (cfg.block_bytes // WORD_BYTES - 1)

    # ------------------------------------------------------------------
    # Action enumeration
    # ------------------------------------------------------------------

    def actions(self) -> List[Action]:
        """Transitions enabled in the current state, in deterministic
        order. Guards are *structural* (is a line resident, is the thread
        in a transaction); whether an access actually changes state (it
        may be NACKed) is discovered by applying it."""
        blocks = range(self.mcfg.blocks)
        out: List[Action] = []
        for ctx in self.contexts:
            tid = ctx.thread_id
            out += ([("commit", tid), ("abort", tid)] if ctx.in_tx
                    else [("begin", tid)])
            for b in blocks:
                out += [("read", tid, b), ("write", tid, b)]
        for core in self.cores:
            out += [("evict", core.core_id, b) for b in blocks
                    if core.l1.peek(self.block_addrs[b]) is not None]
        out += [("l2_evict", chip, b) for chip, l2 in enumerate(self._l2s())
                for b, addr in enumerate(self.block_addrs)
                if l2.peek(addr) is not None]
        out += [("reuse", b) for b in blocks
                if not self._block_in_write_set(b)]
        return out

    def _l2s(self) -> List:
        """The shared L2s by chip (a single-CMP directory is chip 0).
        Snooping L2 residency is latency only: nothing to explore."""
        if isinstance(self.fabric, MultiChipFabric):
            return self.fabric.l2s
        if isinstance(self.fabric, DirectoryFabric):
            return [self.fabric.l2]
        return []

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
        for record in ctx.log.records():
            # Earliest record per block wins: that is the value the
            # LIFO unroll must land on.
            logged.setdefault(record.vblock, record.old_words[0])
        missing = [f"B{self.block_index[a]}"
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
                    f"t{tid}'s abort left B{self.block_index[addr]} = "
                    f"{actual}, undo log says pre-tx value was {expected}")

    def _do_access(self, tid: int, b: int, is_write: bool) -> None:
        """One load or store through the core's own access path.

        A store writes ``(old + 1) % VALUES``; the action is atomic, so
        ``old``, read before the access, is the value it replaces. A
        stall ends the action before the access completes (a self-loop
        unless the request itself moved fabric state); an abort the
        access raises runs the abort handler.
        """
        slot = self.slots[tid]
        addr = self.block_addrs[b]
        if is_write:
            value = (self.memory.load(addr) + 1) % VALUES
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
        core.l1.invalidate(addr)
        self.fabric.l1_evicted(core_id, addr, line.state, transactional)

    def _do_l2_evict(self, chip: int, b: int) -> None:
        """Shared-L2 victimization: the lost-directory-info / sticky-M
        paths of Sections 5 and 7. Uses the fabrics' internal
        victimization handlers, which the capacity-driven path also
        calls — the model only makes *when* nondeterministic."""
        addr = self.block_addrs[b]
        l2s = self._l2s()
        if chip >= len(l2s) or l2s[chip].invalidate(addr) is None:
            raise SimulationError(f"l2_evict of non-resident B{b}")
        if isinstance(self.fabric, MultiChipFabric):
            self.fabric._chip_l2_victimized(chip, addr)
        else:
            self.fabric._l2_victimized(addr)

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

    def encode(self) -> Tuple:
        """Every behavior-relevant piece of state as one flat tuple in
        :attr:`layout` order: each component's own state description,
        its core, chip and block identities turned into positions.

        Observability state (counters, TLBs, LRU clocks) is left out, and
        so is ``possible_cycle``, which :meth:`decode` clears: an access
        sets it only on *other* contexts, so the timestamp policy never
        aborts a requester and every contention-manager decision is a
        stall."""
        addrs = self.block_addrs
        cells = [self.memory.load(addr) for addr in addrs] + self.tenancy
        for core in self.cores:
            cells += [core.l1.line_state(addr) for addr in addrs]
        footprints: List[Tuple] = []
        for ctx in self.contexts:
            # A block's undo entry: () or (log position, old value).
            depth, reads, writes, records = ctx.state()
            logged = {record.vblock: (position, record.old_words[0])
                      for position, record in enumerate(records)}
            if len(logged) != len(records):
                raise SimulationError(f"t{ctx.thread_id} logged a block twice")
            cells.append(depth)
            footprints += [(addr in reads, addr in writes,
                            logged.get(addr, ())) for addr in addrs]
        return tuple(cells + footprints + self._fabric_cells())

    def _fabric_cells(self) -> List[Tuple]:
        fabric, addrs = self.fabric, self.block_addrs
        cores = self.mcfg.total_cores
        if isinstance(fabric, SnoopingFabric):
            return [cell for addr in addrs
                    for cell in _spread(fabric.block_state(addr), cores)]
        entries = [(entry.state(), l2.peek(addr) is not None)
                   for entry, l2, addr in self._entries()]
        cells = [tuple("" if flag is None else flag for flag in state[3:])
                 + (in_l2,) for state, in_l2 in entries]
        cells += [cell for state, _in_l2 in entries
                  for cell in _spread(state[:3], cores)]
        if isinstance(fabric, MultiChipFabric):
            cells += [cell for addr in addrs for cell in _spread(
                fabric.mem_entry_view(addr).state(), self.cfg.num_chips)]
        return cells

    def _entries(self) -> List[Tuple]:
        """(entry, its chip's L2, block address) by (chip, block)."""
        fabric = self.fabric
        return [(fabric.chip_entry_view(chip, addr)
                 if isinstance(fabric, MultiChipFabric)
                 else fabric.entry_view(addr), l2, addr)
                for chip, l2 in enumerate(self._l2s())
                for addr in self.block_addrs]

    def decode(self, raw: Tuple) -> None:
        """Re-install an :meth:`encode`d state, handing each component
        its own state description back."""
        cells = iter(raw)
        addrs = self.block_addrs
        for addr in addrs:
            self.memory.store(addr, next(cells))
        self.tenancy[:] = islice(cells, len(addrs))
        for core in self.cores:
            for addr in addrs:
                core.l1.set_line_state(addr, next(cells))
        depths = list(islice(cells, len(self.contexts)))
        for ctx, depth in zip(self.contexts, depths):
            prints = list(zip(addrs, islice(cells, len(addrs))))
            logged = sorted((cell[2], addr) for addr, cell in prints
                            if cell[2])
            ctx.set_state((
                depth,
                [addr for addr, cell in prints if cell[0]],
                [addr for addr, cell in prints if cell[1]],
                [UndoRecord(addr, (old,) + self._record_tail)
                 for (_position, old), addr in logged]))
        self._set_fabric_cells(cells)

    def _set_fabric_cells(self, cells: Iterator) -> None:
        fabric, addrs = self.fabric, self.block_addrs
        cores = self.mcfg.total_cores
        if isinstance(fabric, SnoopingFabric):
            for addr in addrs:
                fabric.set_block_state(addr, _gather(islice(cells, cores)))
            return
        entries = self._entries()
        for (entry, l2, addr), (*flags, in_l2) in zip(
                entries, list(islice(cells, len(entries)))):
            entry.set_state(_gather(islice(cells, cores)) + tuple(
                None if flag == "" else flag for flag in flags))
            l2.invalidate(addr)
            if in_l2:
                _block, victim = l2.insert(addr, MESI.SHARED)
                assert victim is None, "model L2 must not overflow"
        if isinstance(fabric, MultiChipFabric):
            for addr in addrs:
                fabric.mem_entry_view(addr).set_state(
                    _gather(islice(cells, self.cfg.num_chips)))
