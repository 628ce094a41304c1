"""Log filter: suppressing redundant undo-log writes (Section 2).

LogTM used the in-cache W bit to avoid logging a block twice per
transaction; LogTM-SE cannot (signatures alias), so it adds a small
per-thread array of recently logged block addresses. Like a TLB it may be
fully associative with any replacement policy — this model uses fully
associative LRU. The filter holds *virtual* addresses and is purely a
performance optimization: clearing it at any time (context switch, nested
begin) is always safe, it only causes re-logging.
"""

from __future__ import annotations

from collections import OrderedDict


class LogFilter:
    """Fully associative LRU array of recently logged virtual block addrs."""

    def __init__(self, entries: int = 32) -> None:
        if entries < 0:
            raise ValueError("entries must be >= 0")
        self.entries = entries
        self._slots: "OrderedDict[int, None]" = OrderedDict()

    def should_log(self, vblock: int) -> bool:
        """True if the block must be logged (filter miss); updates the array.

        A zero-entry filter (ablation) always says "log it".
        """
        if self.entries == 0:
            return True
        if vblock in self._slots:
            self._slots.move_to_end(vblock)
            return False
        if len(self._slots) >= self.entries:
            self._slots.popitem(last=False)
        self._slots[vblock] = None
        return True

    def clear(self) -> None:
        """Always safe (the filter is advisory): forces re-logging."""
        self._slots.clear()

    @property
    def occupancy(self) -> int:
        return len(self._slots)

    def __contains__(self, vblock: int) -> bool:
        return vblock in self._slots
