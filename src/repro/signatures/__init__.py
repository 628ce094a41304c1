"""Signatures: the Figure 3 read/write-set summaries."""

from repro.signatures.base import Signature
from repro.signatures.bitselect import BitSelectSignature
from repro.signatures.counting import CountingPair, CountingSignature
from repro.signatures.doublebitselect import DoubleBitSelectSignature
from repro.signatures.factory import make_rw_pair, make_signature
from repro.signatures.hashed import HashedSignature
from repro.signatures.perfect import PerfectSignature
from repro.signatures.rwpair import ReadWriteSignature

__all__ = ["BitSelectSignature", "CountingPair", "CountingSignature",
           "DoubleBitSelectSignature", "HashedSignature", "PerfectSignature", "ReadWriteSignature",
           "Signature", "make_rw_pair", "make_signature"]
