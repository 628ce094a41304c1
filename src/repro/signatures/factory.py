"""Construct signatures from a :class:`~repro.common.config.SignatureConfig`."""

from __future__ import annotations

from repro.common.config import SignatureConfig, SignatureKind
from repro.common.errors import ConfigError
from repro.signatures.base import Signature
from repro.signatures.bitselect import BitSelectSignature
from repro.signatures.doublebitselect import DoubleBitSelectSignature
from repro.signatures.hashed import HashedSignature
from repro.signatures.perfect import PerfectSignature
from repro.signatures.rwpair import ReadWriteSignature


def make_signature(cfg: SignatureConfig, block_bytes: int = 64) -> Signature:
    """Build one signature (a read-set OR a write-set summary)."""
    if cfg.kind is SignatureKind.PERFECT:
        return PerfectSignature()
    if cfg.kind is SignatureKind.BIT_SELECT:
        # Bit-select decodes the block address whatever ``granularity``
        # says; coarse bit-select is the same decode over macroblocks.
        return BitSelectSignature(bits=cfg.bits, granularity=block_bytes)
    if cfg.kind is SignatureKind.COARSE_BIT_SELECT:
        return BitSelectSignature(bits=cfg.bits,
                                  granularity=max(cfg.granularity,
                                                  block_bytes))
    if cfg.kind is SignatureKind.DOUBLE_BIT_SELECT:
        return DoubleBitSelectSignature(bits=cfg.bits, block_bytes=block_bytes)
    if cfg.kind is SignatureKind.HASHED:
        return HashedSignature(bits=cfg.bits, hashes=cfg.hashes,
                               block_bytes=block_bytes)
    raise ConfigError(f"unknown signature kind: {cfg.kind}")


def make_rw_pair(cfg: SignatureConfig,
                 block_bytes: int = 64) -> ReadWriteSignature:
    """Build the read/write pair for one thread context."""
    return ReadWriteSignature(make_signature(cfg, block_bytes),
                              make_signature(cfg, block_bytes))
