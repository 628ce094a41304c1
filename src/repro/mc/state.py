"""Symmetry reduction for the model checker.

Core identities are interchangeable in every protocol rule: the
directory never branches on *which* core is the owner, only on the role
relationships (owner vs. sharer vs. sticky vs. requester). States that
differ only by a permutation of cores have isomorphic futures, so the
checker explores one representative — the scalarset argument from
Murphi. Multichip core permutations preserve the core->chip partition:
(chip permutations) x (per-chip local core permutations). Permuting a
core carries its thread contexts along (context k of core i maps to
context k of core sigma(i)). Blocks are interchangeable only as far as
the signature cannot tell them apart (:func:`block_symmetries`).

No cell of an encoded state holds an identity; identities are positions
(``ProtocolModel.layout``). So a group element acts on an encoded state
as a fixed index permutation (:func:`state_remaps`), and the canonical
form of a state is the least of those permutations of its encoding.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from operator import itemgetter
from typing import Callable, Dict, List, Sequence, Tuple

from repro.mc.model import ModelConfig
from repro.signatures.factory import make_rw_pair

#: One symmetry-group element: identity kind ("core", "thread", "block",
#: "chip") -> its relabeling, ``map[old] = new``.
Relabeling = Dict[str, Tuple[int, ...]]

#: One group element applied to an encoded state.
Remap = Callable[[Tuple], Tuple]


def block_symmetries(mcfg: ModelConfig) -> List[Tuple[int, ...]]:
    """Block permutations the configured signature cannot tell apart.

    A permutation ``pi`` is kept when, for every set S of the model's
    blocks and every block b, a signature holding S reports b exactly as
    one holding ``pi(S)`` reports ``pi(b)``. Perfect signatures, and
    bit-select registers that give every model block its own bit or all
    of them one bit, keep every permutation.
    """
    cfg = mcfg.system_config()
    addrs = [b * cfg.block_bytes for b in range(mcfg.blocks)]

    def reports(held: Sequence[int]) -> Tuple[bool, ...]:
        signature = make_rw_pair(cfg.tm.signature, cfg.block_bytes).read
        for b in held:
            signature.insert(addrs[b])
        return tuple(signature.contains(addr) for addr in addrs)

    blocks = range(mcfg.blocks)
    table = {frozenset(held): reports(held)
             for size in range(mcfg.blocks + 1)
             for held in combinations(blocks, size)}
    return [pi for pi in permutations(blocks)
            if all(table[frozenset(pi[b] for b in held)][pi[b]] == seen[b]
                   for held, seen in table.items() for b in blocks)]


def symmetry_maps(mcfg: ModelConfig) -> List[Relabeling]:
    """Enumerate the symmetry group for a configuration.

    Sizes stay tiny for model-scale configs: 3 cores x 3 blocks is
    6 x 6 = 36 group elements; multichip 2x2 cores / 2 blocks is
    2 (chip) x 2 x 2 (local) x 2 (block) = 16.
    """
    chips = mcfg.chips if mcfg.fabric == "multichip" else 1
    per_chip, contexts = mcfg.cores, mcfg.contexts_per_core
    block_maps = block_symmetries(mcfg)
    maps: List[Relabeling] = []
    for chip_map in permutations(range(chips)):
        # One independent local-core permutation per (source) chip.
        for local in product(permutations(range(per_chip)), repeat=chips):
            cores = tuple(chip_map[chip] * per_chip + local[chip][c]
                          for chip in range(chips)
                          for c in range(per_chip))
            threads = tuple(cores[t // contexts] * contexts + t % contexts
                            for t in range(len(cores) * contexts))
            for blocks in block_maps:
                maps.append({"chip": chip_map, "core": cores,
                             "thread": threads, "block": blocks})
    return maps


def state_remaps(layout: Sequence[Tuple[str, Tuple[Tuple[str, int], ...]]],
                 maps: Sequence[Relabeling]) -> List[Remap]:
    """Each group element as an index permutation of an encoded state:
    ``remap(model.encode())`` is the encoding of the relabeled state."""
    position = {cell: i for i, cell in enumerate(layout)}
    remaps: List[Remap] = []
    for relabel in maps:
        source = [0] * len(layout)
        for i, (section, ids) in enumerate(layout):
            moved = tuple((kind, relabel[kind][index]) for kind, index in ids)
            source[position[(section, moved)]] = i
        remaps.append(itemgetter(*source))
    return remaps


def canonical_key(raw: Tuple, remaps: Sequence[Remap]) -> Tuple:
    """Least of an encoded state's images under the group (every cell
    of a section holds one leaf type, so tuple order is total)."""
    return min(remap(raw) for remap in remaps)
