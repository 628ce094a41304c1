"""Per-core TLB model.

Adds address-translation *timing* to the access path: a TLB miss charges a
page-walk latency before the memory reference proceeds, and page
relocation triggers an OS shootdown that invalidates the stale entry on
every core (the interrupt cost the paging path charges per context).

Functional translations always come from the page table — the TLB is a
latency/accounting model, deliberately not a second source of truth, so
the paging machinery cannot be broken by a stale cached frame (see
docs/simulation.md on the functional/timing separation).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

#: TLB tag: (address-space id, virtual page base).
TlbTag = Tuple[int, int]


class Tlb:
    """Fully associative, LRU, per-core translation cache."""

    __slots__ = ("entries", "_map")

    def __init__(self, entries: int = 64) -> None:
        if entries < 1:
            raise ValueError("TLB needs at least one entry")
        self.entries = entries
        self._map: "OrderedDict[TlbTag, int]" = OrderedDict()

    def lookup(self, asid: int, vpage: int) -> Optional[int]:
        """Cached frame for a virtual page, or None on a miss."""
        tag = (asid, vpage)
        frame = self._map.get(tag)
        if frame is not None:
            self._map.move_to_end(tag)
        return frame

    def fill(self, asid: int, vpage: int, frame: int) -> None:
        tag = (asid, vpage)
        if tag in self._map:
            self._map.move_to_end(tag)
            self._map[tag] = frame
            return
        if len(self._map) >= self.entries:
            self._map.popitem(last=False)
        self._map[tag] = frame

    def invalidate(self, asid: int, vpage: int) -> bool:
        """Shootdown of one translation; True if it was present."""
        return self._map.pop((asid, vpage), None) is not None

    @property
    def occupancy(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:
        return f"Tlb(entries={self.entries}, occ={self.occupancy})"
