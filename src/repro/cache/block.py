"""Cache block state.

The baseline protocol is MESI (Section 5). A block carries no read/write-set
bits: LogTM-SE keeps those sets in signatures. The classic-LogTM mode
(``TMConfig.classic_logtm``) models only original LogTM's preemption aborts
and detects conflicts through signatures too.
"""

from __future__ import annotations

import enum


class MESI(enum.Enum):
    """Stable MESI coherence states."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    @property
    def can_read(self) -> bool:
        return self is not MESI.INVALID

    @property
    def can_write(self) -> bool:
        return self in (MESI.MODIFIED, MESI.EXCLUSIVE)

    @property
    def is_exclusive(self) -> bool:
        return self in (MESI.MODIFIED, MESI.EXCLUSIVE)


class CacheBlock:
    """One resident cache line's metadata (tags only; data is functional)."""

    __slots__ = ("addr", "state", "last_use")

    def __init__(self, addr: int, state: MESI) -> None:
        self.addr = addr
        self.state = state
        self.last_use = 0

    @property
    def dirty(self) -> bool:
        return self.state is MESI.MODIFIED

    def __repr__(self) -> str:
        return f"CacheBlock({self.addr:#x}, {self.state.value})"
