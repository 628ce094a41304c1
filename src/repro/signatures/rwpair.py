"""Per-thread read/write signature pair.

An actual LogTM-SE signature "needs two copies of the illustrated hardware
for read- and write-sets, respectively" (Section 5). This class bundles the
pair and implements the paper's conflict semantics:

* ``CONFLICT(read, A)``  — would a *read* of A by someone else conflict?
  Yes iff A may be in our **write** set.
* ``CONFLICT(write, A)`` — would a *write* of A by someone else conflict?
  Yes iff A may be in our **read or write** set.
"""

from __future__ import annotations

from typing import Tuple

from repro.signatures.base import Signature, Snapshot

#: Snapshot of a full pair: (read snapshot, write snapshot).
PairSnapshot = Tuple[Snapshot, Snapshot]


class ReadWriteSignature:
    """The (read-set, write-set) signature pair of one thread context."""

    __slots__ = ("read", "write")

    def __init__(self, read: Signature, write: Signature) -> None:
        self.read = read
        self.write = write

    # -- hardware interface -------------------------------------------------

    def insert_read(self, block_addr: int) -> None:
        self.read.insert(block_addr)

    def insert_write(self, block_addr: int) -> None:
        self.write.insert(block_addr)

    def conflicts(self, is_write: bool, block_addr: int) -> bool:
        """CONFLICT(write, A) if ``is_write``, else CONFLICT(read, A)."""
        # This is the per-NACK hot path: every remote access probes every
        # transactional thread through here.
        if is_write:
            return (self.read.contains(block_addr)
                    or self.write.contains(block_addr))
        return self.write.contains(block_addr)

    def clear(self) -> None:
        self.read.clear()
        self.write.clear()

    @property
    def is_empty(self) -> bool:
        return self.read.is_empty and self.write.is_empty

    # -- observability -------------------------------------------------------

    def conflict_is_false_positive(self, is_write: bool,
                                   block_addr: int) -> bool:
        """True when the filter reports a conflict the exact sets refute."""
        # Exact sets first: a real overlap is never a false positive, and
        # the filter test is needed only when there is none.
        if is_write:
            if (self.read.contains_exact(block_addr)
                    or self.write.contains_exact(block_addr)):
                return False
        elif self.write.contains_exact(block_addr):
            return False
        return self.conflicts(is_write, block_addr)

    # -- software accessibility ----------------------------------------------

    def snapshot(self) -> PairSnapshot:
        return (self.read.snapshot(), self.write.snapshot())

    def restore(self, snap: PairSnapshot) -> None:
        read_snap, write_snap = snap
        self.read.restore(read_snap)
        self.write.restore(write_snap)

    def union_update(self, other: "ReadWriteSignature") -> None:
        self.read.union_update(other.read)
        self.write.union_update(other.write)

    def union_snapshot(self, snap: PairSnapshot) -> None:
        read_snap, write_snap = snap
        self.read.union_snapshot(read_snap)
        self.write.union_snapshot(write_snap)

    def spawn_empty(self) -> "ReadWriteSignature":
        return ReadWriteSignature(self.read.spawn_empty(),
                                  self.write.spawn_empty())

    def __repr__(self) -> str:
        return f"ReadWriteSignature(read={self.read!r}, write={self.write!r})"
