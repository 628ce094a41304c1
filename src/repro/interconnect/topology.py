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

from functools import lru_cache
from typing import Tuple

from repro.common.errors import ConfigError

#: ``table[a][b]``: the hop count from node ``a`` to node ``b``.
HopTable = Tuple[Tuple[int, ...], ...]


@lru_cache(maxsize=32)
def hop_tables(rows: int, cols: int, num_cores: int,
               num_banks: int) -> Tuple[HopTable, HopTable]:
    """``(core_bank_hops, core_core_hops)`` for one grid placement.

    Tiles are numbered row-major. Core ``c`` sits on tile ``c``; banks
    share tiles with cores (each tile hosts a core and an L2 bank slice,
    as in Figure 2), and extra banks wrap around. The tables are pure
    functions of the placement, so every machine on the same grid shares
    one immutable copy.
    """
    tiles = rows * cols
    cores = [divmod(c, cols) for c in range(num_cores)]
    banks = [divmod(b % tiles, cols) for b in range(num_banks)]
    core_bank = tuple(
        tuple(abs(cr - br) + abs(cc - bc) for br, bc in banks)
        for cr, cc in cores)
    core_core = tuple(
        tuple(abs(ar - br) + abs(ac - bc) for br, bc in cores)
        for ar, ac in cores)
    return core_bank, core_core


class GridTopology:
    """Places cores and banks on a rows x cols grid; computes hop counts."""

    def __init__(self, rows: int, cols: int, num_cores: int,
                 num_banks: int) -> None:
        if rows < 1 or cols < 1:
            raise ConfigError("grid dimensions must be positive")
        if num_cores > rows * cols:
            raise ConfigError(
                f"{num_cores} cores do not fit on a {rows}x{cols} grid")
        self.rows = rows
        self.cols = cols
        self.num_cores = num_cores
        self.num_banks = num_banks
        # The per-message cost is two tuple indexings
        # (``core_bank_hops[core][bank]``, ``core_core_hops[a][b]``).
        self.core_bank_hops, self.core_core_hops = hop_tables(
            rows, cols, num_cores, num_banks)
