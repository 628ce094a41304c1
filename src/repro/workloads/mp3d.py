"""Mp3d (SPLASH) workload.

Mp3d simulates rarefied hypersonic flow: each step moves molecules through
a space-cell grid. Critical sections update a molecule record and its
destination cell — fine-grained, mostly disjoint (collisions only when two
molecules land in the same cell). Table 2: read set avg 2.2 / max 18, write
set avg 1.7 / max 10; 17,733 transactions over 512 steps. With short,
rarely-conflicting critical sections, locks and transactions tie.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.workloads.base import Op, Section, VirtualAllocator, Workload

SPACE_CELLS = 256
#: A few molecules per thread move each step (paper: 128 molecules total).
MOVES_PER_STEP = 3
COLLISION_PROB = 0.08


class Mp3d(Workload):
    """Molecule moves over a shared space-cell grid."""

    name = "Mp3d"
    input_desc = "128 molecules"
    unit_name = "1 step"

    def __init__(self, num_threads: int, units_per_thread: int = 12,
                 seed: int = 0, compute_per_step: int = 4000) -> None:
        super().__init__(num_threads, units_per_thread, seed)
        self.compute_per_step = compute_per_step
        alloc = VirtualAllocator()
        #: Space cells: isolated words — conflicts happen only when two
        #: molecules genuinely share a cell.
        self.cells = alloc.blocks(SPACE_CELLS)
        self.cell_locks = alloc.blocks(SPACE_CELLS)
        #: Per-thread molecule records (2 words each, private).
        self.molecules = [alloc.words(8) for _ in range(num_threads)]
        #: Global reservoir counter, touched rarely.
        self.reservoir = alloc.isolated_word()

    def _move_tx(self, thread_index: int, rng: random.Random,
                 cell_index: int) -> List[Op]:
        """Move one molecule into ``cell_index``."""
        mol = self.molecules[thread_index]
        ops: List[Op] = [
            Op.load(mol[rng.randrange(len(mol))]),
            Op.store(mol[rng.randrange(len(mol))], rng.randrange(1 << 12)),
        ]
        # Check the adjacent cell's state (read-only) before the move, then
        # update occupancy with a straight fetch-and-add (no read-to-write
        # upgrade on the hot cell word).
        ops.append(Op.load(self.cells[(cell_index + SPACE_CELLS // 2)
                                      % SPACE_CELLS]))
        ops.append(Op.incr(self.cells[cell_index]))
        if rng.random() < COLLISION_PROB:
            # Collision resolution touches neighbouring cells too.
            for d in range(1, rng.randint(2, 8)):
                neighbour = (cell_index + d) % SPACE_CELLS
                ops.append(Op.load(self.cells[neighbour]))
                if rng.random() < 0.5:
                    ops.append(Op.incr(self.cells[neighbour]))
        if rng.random() < 0.015:
            # Rare reservoir rebalance scans a stretch of cells (read tail,
            # Table 2 read max 18).
            start = rng.randrange(SPACE_CELLS - 16)
            for i in range(start, start + rng.randint(8, 14)):
                ops.append(Op.load(self.cells[i]))
            ops.append(Op.incr(self.reservoir))
        return ops

    def program(self, thread_index: int,
                rng: random.Random) -> Iterator[Section]:
        for unit in range(self.units_per_thread):
            for move in range(MOVES_PER_STEP):
                cell = rng.randrange(SPACE_CELLS)
                yield Section(
                    ops=self._move_tx(thread_index, rng, cell),
                    lock=self.cell_locks[cell],
                    label=f"mp3d.move[{thread_index}.{unit}.{move}]")
            yield Section(ops=[Op.compute(self.compute_per_step)],
                          label=f"mp3d.compute[{thread_index}.{unit}]",
                          )
            # The step boundary is the unit of work. The bare reservoir
            # read is faithful to the original benchmark (and baselined
            # under RC001): MP3D polls the reservoir counter outside any
            # lock, accepting a stale value — the paper calls the app
            # out as racy by design. Writers hold per-cell locks, so the
            # locksets genuinely differ.
            yield Section(ops=[Op.load(self.reservoir)],
                          unit=True,
                          label=f"mp3d.step[{thread_index}.{unit}]")
