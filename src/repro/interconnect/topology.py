"""Grid topology and node placement.

The baseline CMP connects cores and L2 banks "in a 4x3 grid topology using
64-byte links and adaptive routing" (Section 5). We model the grid's
*distance* effect: each message is charged hops x link latency, where hops is
the Manhattan distance between the source and destination tiles. Adaptive
routing's congestion behavior is out of scope (documented in DESIGN.md); the
paper's results are driven by protocol hops, not router microarchitecture.

Cores and L2 banks are interleaved across tiles so a core and its same-index
bank do not collapse to distance zero for every access.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.errors import ConfigError


class GridTopology:
    """Places cores and banks on a rows x cols grid; computes hop counts."""

    def __init__(self, rows: int, cols: int, num_cores: int,
                 num_banks: int) -> None:
        if rows < 1 or cols < 1:
            raise ConfigError("grid dimensions must be positive")
        tiles = rows * cols
        if num_cores > tiles:
            raise ConfigError(
                f"{num_cores} cores do not fit on a {rows}x{cols} grid")
        self.rows = rows
        self.cols = cols
        self.num_cores = num_cores
        self.num_banks = num_banks
        self._core_pos: Dict[int, Tuple[int, int]] = {
            c: self._tile_coord(c) for c in range(num_cores)}
        # Banks share tiles with cores (each tile hosts a core + an L2 bank
        # slice, as in Figure 2); extra banks wrap around.
        self._bank_pos: Dict[int, Tuple[int, int]] = {
            b: self._tile_coord(b % tiles) for b in range(num_banks)}
        # Hop counts are pure functions of the fixed placement; precompute
        # them so the per-message cost is two list indexings
        # (``core_bank_hops[core][bank]``, ``core_core_hops[a][b]``).
        self.core_bank_hops = [
            [self.manhattan(self._core_pos[c], self._bank_pos[b])
             for b in range(num_banks)]
            for c in range(num_cores)]
        self.core_core_hops = [
            [self.manhattan(self._core_pos[a], self._core_pos[b])
             for b in range(num_cores)]
            for a in range(num_cores)]

    def _tile_coord(self, index: int) -> Tuple[int, int]:
        return divmod(index % (self.rows * self.cols), self.cols)

    @staticmethod
    def manhattan(a: Tuple[int, int], b: Tuple[int, int]) -> int:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])
