"""Analytic false-positive models for the signature designs.

Closed-form Bloom-filter mathematics for each Figure 3 design, used to
sanity-check the empirical measurements (a property test asserts the two
agree) and to size signatures without running a simulation — the practical
question Result 3 answers empirically ("given the well-known birthday
paradox, one might expect small signatures to perform poorly").

Models (N filter bits, n inserted *distinct* block addresses):

* **bit-select**: with uniformly distributed addresses the filter behaves
  as a 1-hash Bloom filter: P(fp) = 1 - (1 - 1/N)^n.
* **double-bit-select**: two independent fields of N/2 bits each, both of
  which must hit: P(fp) = p_half(n, N/2)^2 with p_half the 1-hash formula.
* **coarse-bit-select**: the macroblock ratio g (macroblock/block) shrinks
  the distinct-inserted count to ~n_macro = expected occupied macroblocks,
  but any probe that shares an occupied macroblock aliases; for uniform
  probes the filter term dominates: P(fp) = 1 - (1 - 1/N)^n_macro.
* **hashed (k hashes)**: the textbook k-hash Bloom bound
  P(fp) = (1 - (1 - 1/N)^(k n))^k.
"""

from __future__ import annotations

import math

from repro.common.config import SignatureConfig, SignatureKind
from repro.common.errors import ConfigError


def _one_hash_fp(n: int, bits: int) -> float:
    """P(random probe hits a set bit) for a 1-hash filter."""
    if bits <= 0:
        raise ConfigError("bits must be positive")
    if n <= 0:
        return 0.0
    return 1.0 - (1.0 - 1.0 / bits) ** n


def expected_occupied_macroblocks(n: int, granularity_blocks: int,
                                  address_space_blocks: int = 1 << 24
                                  ) -> float:
    """E[# distinct macroblocks] covering n uniform random blocks."""
    if granularity_blocks <= 1:
        return float(n)
    macroblocks = max(address_space_blocks // granularity_blocks, 1)
    # Balls-into-bins: expected occupied bins.
    return macroblocks * (1.0 - (1.0 - 1.0 / macroblocks) ** n)


def false_positive_rate(cfg: SignatureConfig, inserted_blocks: int,
                        block_bytes: int = 64) -> float:
    """Predicted aliasing probability for a uniform random probe."""
    n = inserted_blocks
    if cfg.kind is SignatureKind.PERFECT:
        return 0.0
    if cfg.kind is SignatureKind.BIT_SELECT:
        return _one_hash_fp(n, cfg.bits)
    if cfg.kind is SignatureKind.DOUBLE_BIT_SELECT:
        half = cfg.bits // 2
        return _one_hash_fp(n, half) ** 2
    if cfg.kind is SignatureKind.COARSE_BIT_SELECT:
        g = max(cfg.granularity // block_bytes, 1)
        n_macro = expected_occupied_macroblocks(n, g)
        return _one_hash_fp(math.ceil(n_macro), cfg.bits)
    if cfg.kind is SignatureKind.HASHED:
        k = cfg.hashes
        return (1.0 - (1.0 - 1.0 / cfg.bits) ** (k * n)) ** k
    raise ConfigError(f"unknown signature kind {cfg.kind}")


def bits_for_target_rate(kind: SignatureKind, inserted_blocks: int,
                         target_rate: float, block_bytes: int = 64,
                         granularity: int = 1024, hashes: int = 4,
                         max_bits: int = 1 << 20) -> int:
    """Smallest power-of-two signature meeting a false-positive budget.

    The sizing question a hardware designer actually asks: "my largest
    expected read set is R blocks; how many bits keep aliasing under x%?"
    """
    if not 0.0 < target_rate < 1.0:
        raise ConfigError("target_rate must be in (0, 1)")
    bits = 8
    while bits <= max_bits:
        cfg = SignatureConfig(kind=kind, bits=bits, granularity=granularity,
                              hashes=hashes)
        if false_positive_rate(cfg, inserted_blocks,
                               block_bytes) <= target_rate:
            return bits
        bits *= 2
    raise ConfigError(
        f"no signature up to {max_bits} bits meets {target_rate:.3%} "
        f"for {inserted_blocks} blocks")
