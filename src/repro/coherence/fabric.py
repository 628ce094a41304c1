"""Abstract coherence fabric.

Both the MESI directory (Section 5) and the broadcast-snooping alternative
(Section 7) implement this interface. A *fabric* owns the global view of who
caches what, routes conflict checks to cores, and reports grant/NACK
outcomes; cores own their L1 arrays and signatures.
"""

from __future__ import annotations

import abc
from typing import Collection, Dict, Iterable, List, Optional

from repro.cache.block import MESI
from repro.coherence.msgs import (Blocker, CoherenceResult, ConflictPort,
                                  Timestamp)


class CoherenceFabric(abc.ABC):
    """Global coherence state + request processing."""

    def __init__(self) -> None:
        self._ports: Dict[int, ConflictPort] = {}

    def attach(self, port: ConflictPort) -> None:
        """Register a core's conflict/invalidaton port."""
        self._ports[port.core_id] = port

    def port(self, core_id: int) -> ConflictPort:
        return self._ports[core_id]

    @property
    def ports(self) -> List[ConflictPort]:
        return [self._ports[cid] for cid in sorted(self._ports)]

    def _check(self, cores: Iterable[int], requester_core: int,
               requester_thread: int, block_addr: int, is_write: bool,
               asid: int, requester_ts: Optional[Timestamp],
               owner: Optional[int] = None,
               sticky_cores: Collection[int] = (),
               broadcast: bool = False) -> List[Blocker]:
        """Forward the request to each target core.

        The signature check and the coherence action (invalidation for a
        GETM, downgrade of the owner for a GETS) are applied *atomically
        per target*, exactly as the forwarded message does in hardware. A
        deferred invalidation would open a window where a sharer's L1 hit
        reads a doomed copy after its signature was found clean — a missed
        conflict (this bug is real: it loses linked-list inserts).

        A target that NACKs keeps its copy; targets already processed may
        have lost theirs, which is harmless — they simply re-fetch, and
        the re-fetch serializes behind this entry's lock.

        Each blocker is tagged with how the check reached it —
        ``sticky_cores`` were forwarded to only because of a sticky state,
        ``broadcast`` marks the lost-info rebuild path — so abort
        attribution can separate decoupling artifacts from true conflicts.
        Both directory fabrics forward through here and count each forward
        on their ``_c_fwd`` counter. Snooping keeps its own broadcast loop:
        it counts one snoop per request, not one forward per core.
        """
        blockers: List[Blocker] = []
        ports = self._ports
        c_fwd = self._c_fwd
        # Every caller passes a set, a range or a list of distinct ids, so
        # no copy is needed to sort ``cores`` or to test ``sticky_cores``.
        for core_id in sorted(cores):
            if core_id == requester_core:
                # Same-core (SMT sibling) conflicts are detected at access
                # time by the core itself, before the miss is issued.
                continue
            port = ports.get(core_id)
            if port is None:
                continue
            c_fwd.value += 1
            found = port.check_conflicts(block_addr, is_write,
                                         requester_thread, asid,
                                         requester_ts)
            if found:
                if broadcast or core_id in sticky_cores:
                    via = "broadcast" if broadcast else "sticky"
                    found = [Blocker(b.core_id, b.thread_id,
                                     b.timestamp, b.false_positive, via)
                             for b in found]
                blockers.extend(found)
            elif is_write:
                port.invalidate_block(block_addr)
            elif core_id == owner:
                port.downgrade_block(block_addr)
        return blockers

    @abc.abstractmethod
    def request(self, requester_core: int, requester_thread: int,
                requester_ts: Optional[Timestamp], block_addr: int,
                is_write: bool, asid: int):
        """Process one GETS/GETM as a simulation sub-generator.

        Yields latency; returns a :class:`CoherenceResult`. On a grant the
        fabric has already updated global state (sharers/owner) and performed
        remote invalidations/downgrades; the caller installs
        ``result.grant_state`` in its L1.
        """

    def note_relocated_block(self, block_addr: int) -> None:
        """OS hook: a transactional block now lives at this (new) physical
        address after a page relocation (Section 4.2).

        A directory has no pointers for the fresh frame, so without help it
        would grant requests to it *without* any signature check, silently
        breaking isolation. Marking the block "check all signatures until a
        request succeeds" (the same state used after L2 victimization)
        closes that hole. Broadcast fabrics need no action — every request
        already reaches every signature — so the default is a no-op.
        """

    def scrub_block(self, block_addr: int) -> None:
        """OS hook: the physical frame holding this block is being freed or
        reallocated (page relocation, Section 4.2).

        Any cached copy is a leftover of the frame's *previous* tenancy.
        A stale MODIFIED line is the dangerous case: when the frame is
        reused, the holding core hits locally and reads or writes the new
        tenant's data with no coherence request — and therefore no
        signature check — silently breaking isolation. Drops the block
        from every L1; fabrics with directory state also forget their
        pointers for it.
        """
        for port in self.ports:
            port.invalidate_block(block_addr)

    @abc.abstractmethod
    def l1_evicted(self, core_id: int, block_addr: int, state: MESI,
                   transactional: bool) -> None:
        """Notification that a core's L1 replaced a block.

        ``transactional`` is the evicting core's *conservative* signature
        test (sticky decision). Writeback data movement is functional (values
        live in PhysicalMemory), so only directory state changes here.
        """
