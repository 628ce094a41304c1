"""Perfect (idealized) signature.

Records exact read/write sets regardless of size — the paper's "P" bars in
Figure 4. Unimplementable in hardware (it is an unbounded associative
search), but the reference point every realistic signature is compared to.
A perfect signature never produces false positives.
"""

from __future__ import annotations

from repro.signatures.base import Signature


class PerfectSignature(Signature):
    """Exact set membership; the register mask stays empty and the filter
    *is* the exact shadow set."""

    __slots__ = ()

    # Flattened hot-path overrides: the exact shadow *is* the filter, so
    # insert/contains collapse to one set operation each.
    def insert(self, block_addr: int) -> None:
        self._exact.add(block_addr)

    def contains(self, block_addr: int) -> bool:
        return block_addr in self._exact

    def spawn_empty(self) -> "PerfectSignature":
        return PerfectSignature()

    def _insert_filter(self, block_addr: int) -> None:
        pass  # the exact shadow maintained by the base class is the state

    def _test_filter(self, block_addr: int) -> bool:
        return block_addr in self._exact
