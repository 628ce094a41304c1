"""Symmetry reduction for the model checker.

Core identities and block addresses are interchangeable in every protocol
rule: the directory never branches on *which* core is the owner, only on
the role relationships (owner vs. sharer vs. sticky vs. requester), and
block addresses only select directory entries. Two states that differ
only by a permutation of cores and/or blocks therefore have isomorphic
futures, and the checker needs to explore just one representative — the
classic scalarset argument from Murphi.

The canonical form of a state is the lexicographic minimum of its
encoding over the full symmetry group. For the multichip fabric the core
permutations must preserve the core->chip partition (cores on different
chips are *not* interchangeable with arbitrary relabeling — chip
boundaries are architectural), so the group is (chip permutations) x
(per-chip local core permutations) x (block permutations).

With 1-2 contexts per core, permuting a core carries its thread contexts
along (context k of core i maps to context k of core sigma(i)); the
encoding is indexed by core, so this falls out of the core map for free.
"""

from __future__ import annotations

from itertools import permutations
from typing import List, Optional, Tuple

from repro.mc.model import ModelConfig, ProtocolModel

#: One symmetry-group element: (core_map, block_map, chip_map_or_None),
#: each mapping old index -> new index.
SymmetryMap = Tuple[Tuple[int, ...], Tuple[int, ...],
                    Optional[Tuple[int, ...]]]


def symmetry_maps(mcfg: ModelConfig) -> List[SymmetryMap]:
    """Enumerate the full symmetry group for a configuration.

    Sizes stay tiny for model-scale configs: 3 cores x 3 blocks is
    6 x 6 = 36 group elements; multichip 2x2 cores / 2 blocks is
    2 (chip) x 2 x 2 (local) x 2 (block) = 16.
    """
    block_maps = list(permutations(range(mcfg.blocks)))
    maps: List[SymmetryMap] = []
    if mcfg.fabric == "multichip":
        local = list(permutations(range(mcfg.cores)))
        for chip_perm in permutations(range(mcfg.chips)):
            # One independent local-core permutation per (source) chip.
            for locals_choice in _product(local, mcfg.chips):
                core_map = [0] * (mcfg.cores * mcfg.chips)
                for chip in range(mcfg.chips):
                    for c in range(mcfg.cores):
                        core_map[chip * mcfg.cores + c] = (
                            chip_perm[chip] * mcfg.cores
                            + locals_choice[chip][c])
                for bm in block_maps:
                    maps.append((tuple(core_map), bm, chip_perm))
    else:
        for cm in permutations(range(mcfg.cores)):
            for bm in block_maps:
                maps.append((cm, bm, None))
    return maps


def _product(options: List[Tuple[int, ...]], repeat: int
             ) -> List[Tuple[Tuple[int, ...], ...]]:
    """itertools.product(options, repeat=...) in deterministic list form."""
    out: List[Tuple[Tuple[int, ...], ...]] = [()]
    for _ in range(repeat):
        out = [prefix + (opt,) for prefix in out for opt in options]
    return out


def canonical_key(model: ProtocolModel, maps: List[SymmetryMap]) -> Tuple:
    """Minimum encoding of the model's current state over the group.

    Every position of an encoding holds one leaf type (an absent L1
    line is ``()``, a chip without rights ``""``), so plain tuple
    comparison is a total order.
    """
    return min(model.encode(cm, bm, xm) for cm, bm, xm in maps)
