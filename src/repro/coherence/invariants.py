"""Coherence + TM invariant checker.

A whole-system audit that can run at any *quiescent* point (no coherence
transaction in flight — e.g. between simulation runs, or after
``run_until_done``). It validates the invariants the protocol relies on;
the fuzz tests call it after every random operation batch, so a transient
corruption surfaces at its origin rather than as a distant wrong value.

Checked invariants:

1. **Single writer** — at most one L1 in the whole system holds a block in
   M or E state.
2. **Writer excludes readers** — if some L1 holds M/E, no other L1 holds
   the block in any state.
3. **Directory accuracy (one-sided)** — every L1 that holds a block is
   covered by the directory's owner/sharer information for it (stale
   directory *extra* sharers are legal — silent S replacement — but a
   *missing* holder is a protocol bug).
4. **Isolation coverage** — every block in a scheduled transaction's
   write-set signature is either cached by that core or covered by a
   sticky/check-all obligation, so conflicting requests still reach the
   signature (the LogTM-SE victimization invariant).
5. **TM bookkeeping** — a thread not in a transaction has empty
   signatures, an empty log, and no retained escape depth.
"""

from __future__ import annotations

from typing import List

from repro.cache.block import MESI
from repro.coherence.directory import DirectoryFabric
from repro.coherence.multichip import MultiChipFabric
from repro.coherence.snooping import SnoopingFabric
from repro.common.errors import InvariantViolation

__all__ = [
    "check_cache_invariants", "check_directory_accuracy",
    "check_isolation_coverage", "check_tm_bookkeeping", "check_all",
]


def _holders(system, block_addr):
    """(exclusive_holders, all_holders) core-id lists for one block."""
    exclusive, holders = [], []
    for core in system.cores:
        block = core.l1.peek(block_addr)
        if block is None:
            continue
        holders.append(core.core_id)
        if block.state.is_exclusive:
            exclusive.append(core.core_id)
    return exclusive, holders


def check_cache_invariants(system) -> int:
    """Invariants 1-2 over every resident block. Returns blocks checked."""
    addrs = set()
    for core in system.cores:
        addrs.update(b.addr for b in core.l1.resident_blocks())
    for addr in addrs:
        exclusive, holders = _holders(system, addr)
        if len(exclusive) > 1:
            raise InvariantViolation(
                f"block {addr:#x}: multiple exclusive holders {exclusive}")
        if exclusive and len(holders) > 1:
            raise InvariantViolation(
                f"block {addr:#x}: exclusive in core {exclusive[0]} but "
                f"also cached by {sorted(set(holders) - set(exclusive))}")
    return len(addrs)


def _directory_covers(system, addr, core_id) -> bool:
    fabric = system.fabric
    if isinstance(fabric, DirectoryFabric):
        entry = fabric.entry_view(addr)
        return (entry.owner == core_id or core_id in entry.sharers
                or core_id in entry.sticky or entry.lost_info
                or entry.must_check_all)
    if isinstance(fabric, SnoopingFabric):
        return True  # broadcasts reach everyone by construction
    if isinstance(fabric, MultiChipFabric):
        chip = fabric.chip_of(core_id)
        entry = fabric.chip_entry_view(chip, addr)
        mem = fabric.mem_entry_view(addr)
        chip_known = (mem.owner_chip == chip or chip in mem.sharer_chips
                      or chip in mem.sticky_chips)
        core_known = (entry.owner == core_id or core_id in entry.sharers
                      or core_id in entry.sticky)
        return chip_known and core_known
    raise InvariantViolation(f"unknown fabric {type(fabric).__name__}")


def check_directory_accuracy(system) -> int:
    """Invariant 3: every L1 holder is known to the directory."""
    checked = 0
    for core in system.cores:
        for block in core.l1.resident_blocks():
            checked += 1
            if not _directory_covers(system, block.addr, core.core_id):
                raise InvariantViolation(
                    f"core {core.core_id} caches {block.addr:#x} "
                    f"({block.state.value}) unknown to the directory")
    return checked


def check_isolation_coverage(system) -> int:
    """Invariant 4: write-set blocks stay reachable for conflict checks.

    Only meaningful under eager conflict detection: lazy (Bulk-style) mode
    has no execution-time isolation by design — commit-time broadcasts
    reach every signature regardless of directory state.
    """
    if system.cfg.tm.lazy:
        return 0
    checked = 0
    for core in system.cores:
        for slot in core.slots:
            thread = slot.thread
            if thread is None or not thread.ctx.in_tx:
                continue
            for addr in thread.ctx.signature.write.exact_set():
                checked += 1
                resident = core.l1.peek(addr) is not None
                if resident or _directory_covers(system, addr,
                                                 core.core_id):
                    continue
                raise InvariantViolation(
                    f"thread {thread.tid}'s write-set block {addr:#x} is "
                    "neither cached nor covered by directory state — a "
                    "conflicting request would miss its signature")
    return checked


def check_tm_bookkeeping(system) -> int:
    """Invariant 5: idle contexts carry no transactional residue."""
    checked = 0
    for core in system.cores:
        for slot in core.slots:
            thread = slot.thread
            if thread is None:
                continue
            ctx = thread.ctx
            checked += 1
            if ctx.in_tx:
                continue
            if not ctx.signature.is_empty:
                raise InvariantViolation(
                    f"idle thread {thread.tid} holds a non-empty signature")
            if ctx.log.depth or ctx.log.total_records:
                raise InvariantViolation(
                    f"idle thread {thread.tid} holds undo-log state")
            if ctx.escape_depth:
                raise InvariantViolation(
                    f"idle thread {thread.tid} has escape depth "
                    f"{ctx.escape_depth}")
    return checked


def check_all(system) -> List[str]:
    """Run every audit; returns a summary of what was checked."""
    return [
        f"cache blocks audited: {check_cache_invariants(system)}",
        f"directory entries audited: {check_directory_accuracy(system)}",
        f"write-set blocks audited: {check_isolation_coverage(system)}",
        f"thread contexts audited: {check_tm_bookkeeping(system)}",
    ]
