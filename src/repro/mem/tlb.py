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
    """Fully associative, LRU, per-core translation cache.

    The most recently used entry is also kept unpacked (``_last_*``): it
    is already last in the LRU order, so a repeated lookup of it returns
    its frame without building a tag or touching the ordered map. In the
    benchmark workloads 39-59% of lookups repeat the last entry.
    """

    __slots__ = ("entries", "_map", "_last_asid", "_last_vpage",
                 "_last_frame")

    def __init__(self, entries: int = 64) -> None:
        if entries < 1:
            raise ValueError("TLB needs at least one entry")
        self.entries = entries
        self._map: "OrderedDict[TlbTag, int]" = OrderedDict()
        self._remember(None, None, None)

    def _remember(self, asid: Optional[int], vpage: Optional[int],
                  frame: Optional[int]) -> None:
        self._last_asid = asid
        self._last_vpage = vpage
        self._last_frame = frame

    def lookup(self, asid: int, vpage: int) -> Optional[int]:
        """Cached frame for a virtual page, or None on a miss."""
        if vpage == self._last_vpage and asid == self._last_asid:
            return self._last_frame
        tag = (asid, vpage)
        frame = self._map.get(tag)
        if frame is not None:
            self._map.move_to_end(tag)
            self._last_asid = asid
            self._last_vpage = vpage
            self._last_frame = frame
        return frame

    def fill(self, asid: int, vpage: int, frame: int) -> None:
        tag = (asid, vpage)
        if tag in self._map:
            self._map.move_to_end(tag)
            self._map[tag] = frame
        else:
            if len(self._map) >= self.entries:
                self._map.popitem(last=False)
            self._map[tag] = frame
        self._remember(asid, vpage, frame)

    def invalidate(self, asid: int, vpage: int) -> bool:
        """Shootdown of one translation; True if it was present."""
        self._remember(None, None, None)
        return self._map.pop((asid, vpage), None) is not None

    @property
    def occupancy(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:
        return f"Tlb(entries={self.entries}, occ={self.occupancy})"
