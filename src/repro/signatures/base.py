"""Signature abstraction (Section 2).

A signature conservatively summarizes a set of block-aligned physical
addresses. The contract mirrors the paper's operations:

* ``INSERT(O, A)``  → :meth:`Signature.insert`
* ``CONFLICT(O, A)`` → :meth:`Signature.contains` (may return false
  positives, never false negatives)
* ``CLEAR(O)``      → :meth:`Signature.clear`

Every design is one N-bit register (Figure 3), held here as one Python
integer mask, ``_mask``. A design is only its *decode*: which register
bits an address sets and tests. The register operations themselves —
clear, snapshot, restore, union, popcount — are the same for every design
and live once, in this base class.

Beyond the paper's hardware interface, signatures here are *software
accessible* — they can be snapshotted, restored, and unioned — because that
accessibility is exactly the property LogTM-SE exploits for virtualization
(nesting saves to the log, descheduling merges into a summary signature).

Every implementation also maintains an exact shadow set. The shadow is a
simulator-observability feature (it is how the harness counts *false
positive* conflicts for Table 3); the modeled hardware never consults it for
conflict decisions — except in the perfect signature, whose filter *is* the
exact set.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, Set, Tuple

from repro.common.errors import ConfigError, TransactionError

#: Snapshot of a signature's state: (register mask, exact shadow).
Snapshot = Tuple[int, FrozenSet[int]]


def check_power_of_two(what: str, value: int) -> None:
    """Reject a register width or granularity that is not a power of two."""
    if value <= 0 or value & (value - 1):
        raise ConfigError(f"{what} must be a power of two: {value}")


class Signature(abc.ABC):
    """One conservative address-set summary (a read-set OR a write-set)."""

    __slots__ = ("_mask", "_exact", "geometry")

    def __init__(self, geometry: Tuple = ()) -> None:
        #: The N-bit register, bit ``i`` of the integer being filter bit i.
        self._mask = 0
        self._exact: Set[int] = set()
        #: The parameters that fix the decode. Two signatures' registers
        #: mean the same addresses only when their geometries are equal.
        self.geometry = geometry

    # -- hardware interface -------------------------------------------------

    def insert(self, block_addr: int) -> None:
        """INSERT: add a block-aligned physical address to the set."""
        self._insert_filter(block_addr)
        self._exact.add(block_addr)

    def contains(self, block_addr: int) -> bool:
        """CONFLICT test: True if the address *may* be in the set."""
        return self._test_filter(block_addr)

    def clear(self) -> None:
        """CLEAR: empty the set (a local, single-cycle operation)."""
        self._mask = 0
        self._exact.clear()

    @property
    def is_empty(self) -> bool:
        """Whether nothing was inserted since the last clear."""
        return not self._exact

    @property
    def popcount(self) -> int:
        """Number of set register bits (occupancy; drives false positives)."""
        return bin(self._mask).count("1")

    # -- software accessibility (virtualization) ----------------------------

    def snapshot(self) -> Snapshot:
        """Copy the state out (e.g. into a log frame's signature-save area)."""
        return (self._mask, frozenset(self._exact))

    def restore(self, snap: Snapshot) -> None:
        """Overwrite this signature with a previously saved snapshot."""
        self._mask, exact = snap
        self._exact = set(exact)

    def union_update(self, other: "Signature") -> None:
        """OR another signature of the same design into this one.

        Used by the OS to build summary signatures (Section 4.1).
        """
        # Explicit raises (not ``assert``): these guard a correctness path
        # and must survive ``python -O``.
        if type(other) is not type(self):
            raise TransactionError(
                f"cannot union {type(other).__name__} into "
                f"{type(self).__name__}")
        if other.geometry != self.geometry:
            raise ConfigError(
                f"cannot union {type(self).__name__} geometry "
                f"{other.geometry} into {self.geometry}")
        self._mask |= other._mask
        self._exact |= other._exact

    def union_snapshot(self, snap: Snapshot) -> None:
        """OR a snapshot saved from this signature's design into it."""
        mask, exact = snap
        self._mask |= mask
        self._exact |= exact

    # -- observability (harness only; not modeled hardware) -----------------

    def contains_exact(self, block_addr: int) -> bool:
        """Ground truth for false-positive accounting."""
        return block_addr in self._exact

    def exact_set(self) -> FrozenSet[int]:
        return frozenset(self._exact)

    @property
    def exact_size(self) -> int:
        return len(self._exact)

    def false_positive(self, block_addr: int) -> bool:
        """Whether a CONFLICT hit on this address would be spurious."""
        return self.contains(block_addr) and not self.contains_exact(block_addr)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(geometry={self.geometry}, "
                f"set={self.popcount}, exact={len(self._exact)})")

    # -- the decode (one per design) -----------------------------------------
    #
    # Designs override ``insert``/``contains`` with flattened versions of
    # these for the hot path; the hooks stay as the reference the
    # flattened code is tested against.

    @abc.abstractmethod
    def spawn_empty(self) -> "Signature":
        """A fresh, empty signature with identical parameters."""

    @abc.abstractmethod
    def _insert_filter(self, block_addr: int) -> None: ...

    @abc.abstractmethod
    def _test_filter(self, block_addr: int) -> bool: ...
