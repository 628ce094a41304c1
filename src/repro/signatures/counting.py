"""Counting signature: the OS's summary-maintenance structure.

Footnote 1 of the paper: "To efficiently compute summary signatures, the OS
could maintain a counting signature data structure to track the number of
suspended threads setting each summary signature bit, similar to VTM's XF
data structure." This is that structure.

A :class:`CountingSignature` keeps an integer counter per filter position.
Merging a descheduled thread's signature increments the counters its bits
cover; removing it (at the commit trap) decrements them. The plain bit
summary to install in hardware is "counter > 0" — so the OS never has to
re-union every saved signature from scratch on each change, turning the
summary update from O(saved threads) into O(1) signature operations.

Every design's filter is one integer register mask, so the counts are
kept per mask bit; the perfect signature, whose mask stays empty, is
counted through the exact multiset that every design carries.
"""

from __future__ import annotations

from collections import Counter as Multiset
from typing import Dict

from repro.common.errors import TransactionError
from repro.signatures.base import Signature, Snapshot


def _mask_bits(mask: int):
    """Yield set-bit positions of an integer mask."""
    position = 0
    while mask:
        if mask & 1:
            yield position
        mask >>= 1
        position += 1


class CountingSignature:
    """Per-bit reference counts over one signature's register bits."""

    def __init__(self, template: Signature) -> None:
        #: Prototype used to build result signatures.
        self._template = template.spawn_empty()
        self._bit_counts: Dict[int, int] = {}
        self._exact_counts: Multiset = Multiset()
        self.members = 0

    def add(self, snap: Snapshot) -> None:
        """Merge one saved signature into the counts."""
        mask, exact = snap
        for bit in _mask_bits(mask):
            self._bit_counts[bit] = self._bit_counts.get(bit, 0) + 1
        self._exact_counts.update(exact)
        self.members += 1

    def remove(self, snap: Snapshot) -> None:
        """Remove a previously added signature (its thread committed)."""
        if self.members <= 0:
            raise TransactionError("remove from empty counting signature")
        mask, exact = snap
        for bit in _mask_bits(mask):
            count = self._bit_counts.get(bit, 0)
            if count <= 0:
                raise TransactionError(
                    f"counting signature underflow at bit {bit}")
            if count == 1:
                del self._bit_counts[bit]
            else:
                self._bit_counts[bit] = count - 1
        self._exact_counts.subtract(exact)
        self._exact_counts += Multiset()  # drop zero/negative entries
        self.members -= 1

    def summary(self) -> Signature:
        """Materialize the current union as a plain signature."""
        mask = 0
        for bit in self._bit_counts:
            mask |= 1 << bit
        result = self._template.spawn_empty()
        result.restore((mask, frozenset(self._exact_counts.keys())))
        return result

    @property
    def is_empty(self) -> bool:
        return self.members == 0

    def copy(self) -> "CountingSignature":
        clone = CountingSignature(self._template)
        clone._bit_counts = dict(self._bit_counts)
        clone._exact_counts = Multiset(self._exact_counts)
        clone.members = self.members
        return clone

    def __repr__(self) -> str:
        return (f"CountingSignature(members={self.members}, "
                f"bits={len(self._bit_counts)})")


class CountingPair:
    """Counting structure over (read, write) signature pairs.

    This is what :class:`~repro.core.manager.TMManager` keeps per address
    space: descheduling a thread adds its saved pair; the commit trap
    removes it; installing a context's summary materializes the union —
    optionally excluding one member's own contribution (a rescheduled
    thread must not conflict with itself, Section 4.1).
    """

    def __init__(self, template_pair) -> None:
        self._read = CountingSignature(template_pair.read)
        self._write = CountingSignature(template_pair.write)

    def add(self, pair_snapshot) -> None:
        read_snap, write_snap = pair_snapshot
        self._read.add(read_snap)
        self._write.add(write_snap)

    def remove(self, pair_snapshot) -> None:
        read_snap, write_snap = pair_snapshot
        self._read.remove(read_snap)
        self._write.remove(write_snap)

    def summary_into(self, target_pair, exclude=None) -> None:
        """Install the union into ``target_pair`` (a ReadWriteSignature).

        ``exclude`` is an optional pair snapshot whose contribution is
        subtracted before materializing.
        """
        read_counts, write_counts = self._read, self._write
        if exclude is not None:
            read_counts = read_counts.copy()
            write_counts = write_counts.copy()
            read_counts.remove(exclude[0])
            write_counts.remove(exclude[1])
        target_pair.restore((read_counts.summary().snapshot(),
                             write_counts.summary().snapshot()))

    @property
    def members(self) -> int:
        return self._read.members

    @property
    def is_empty(self) -> bool:
        return self._read.is_empty
