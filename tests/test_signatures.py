"""Tests for the four signature implementations (Figure 3 + perfect)."""

import pytest

from repro.common.config import SignatureConfig, SignatureKind
from repro.common.errors import ConfigError, TransactionError
from repro.signatures.base import Signature
from repro.signatures.bitselect import BitSelectSignature
from repro.signatures.doublebitselect import DoubleBitSelectSignature
from repro.signatures.factory import make_rw_pair, make_signature
from repro.signatures.perfect import PerfectSignature

ALL_KINDS = [
    lambda: PerfectSignature(),
    lambda: BitSelectSignature(bits=256),
    lambda: DoubleBitSelectSignature(bits=256),
    lambda: BitSelectSignature(bits=256, granularity=1024),
]


@pytest.fixture(params=ALL_KINDS, ids=["perfect", "bs", "dbs", "cbs"])
def sig(request) -> Signature:
    return request.param()


class TestCommonContract:
    def test_inserted_always_contained(self, sig):
        addrs = [i * 64 for i in range(0, 600, 7)]
        for a in addrs:
            sig.insert(a)
        assert all(sig.contains(a) for a in addrs)

    def test_clear_empties(self, sig):
        sig.insert(128)
        sig.clear()
        assert sig.is_empty
        assert not sig.contains_exact(128)

    def test_snapshot_restore_roundtrip(self, sig):
        for a in (64, 192, 4096):
            sig.insert(a)
        snap = sig.snapshot()
        sig.clear()
        sig.restore(snap)
        for a in (64, 192, 4096):
            assert sig.contains(a)
            assert sig.contains_exact(a)

    def test_union_covers_both(self, sig):
        other = sig.spawn_empty()
        sig.insert(64)
        other.insert(128)
        sig.union_update(other)
        assert sig.contains(64) and sig.contains(128)
        assert sig.contains_exact(128)

    def test_union_snapshot(self, sig):
        other = sig.spawn_empty()
        other.insert(320)
        sig.union_snapshot(other.snapshot())
        assert sig.contains(320)

    def test_union_type_mismatch_rejected(self, sig):
        class Different(PerfectSignature):
            pass

        with pytest.raises(TransactionError):
            sig.union_update(Different())

    def test_exact_shadow_tracks_inserts(self, sig):
        sig.insert(64)
        sig.insert(64)
        assert sig.exact_size == 1
        assert sig.exact_set() == frozenset({64})


class TestPerfect:
    def test_never_false_positive(self):
        sig = PerfectSignature()
        for i in range(1000):
            sig.insert(i * 64)
        assert not sig.contains(1000 * 64)
        assert not sig.false_positive(1000 * 64)


class TestBitSelect:
    def test_aliasing_at_filter_size(self):
        sig = BitSelectSignature(bits=64, granularity=64)
        sig.insert(0)
        # Same low bits, 64 blocks apart: must alias.
        assert sig.contains(64 * 64)
        assert sig.false_positive(64 * 64)

    def test_distinct_low_bits_do_not_alias(self):
        sig = BitSelectSignature(bits=64, granularity=64)
        sig.insert(0)
        assert not sig.contains(64)

    def test_popcount(self):
        sig = BitSelectSignature(bits=256)
        sig.insert(0)
        sig.insert(64)
        sig.insert(64)  # duplicate sets no new bit
        assert sig.popcount == 2

    def test_union_size_mismatch_rejected(self):
        a = BitSelectSignature(bits=64)
        # A different width, or the same width at CBS's 1 KB granularity:
        # the registers decode different addresses, so neither may merge.
        for b in (BitSelectSignature(bits=128),
                  BitSelectSignature(bits=64, granularity=1024)):
            with pytest.raises(ConfigError):
                a.union_update(b)

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigError):
            BitSelectSignature(bits=100)


class TestDoubleBitSelect:
    def test_single_field_match_is_not_conflict(self):
        sig = DoubleBitSelectSignature(bits=64, block_bytes=64)
        sig.insert(0)
        # Shares the low field (block idx 32 -> low 0 mod 32) but not high.
        probe = 32 * 64
        low_alias = sig._indices(probe)[0] == sig._indices(0)[0]
        high_alias = sig._indices(probe)[1] == sig._indices(0)[1]
        assert low_alias and not high_alias
        assert not sig.contains(probe)

    def test_both_fields_match_aliases(self):
        sig = DoubleBitSelectSignature(bits=64, block_bytes=64)
        sig.insert(0)
        # 32*32 blocks away: both 5-bit fields wrap to the same values.
        assert sig.contains(32 * 32 * 64)

    def test_fewer_false_positives_than_bs_at_same_size(self):
        import random
        rng = random.Random(0)
        bs = BitSelectSignature(bits=256)
        dbs = DoubleBitSelectSignature(bits=256)
        inserted = {rng.randrange(1 << 22) * 64 for _ in range(40)}
        for a in inserted:
            bs.insert(a)
            dbs.insert(a)
        bs_fp = dbs_fp = probes = 0
        while probes < 3000:
            a = rng.randrange(1 << 22) * 64
            if a in inserted:
                continue
            probes += 1
            bs_fp += bs.contains(a)
            dbs_fp += dbs.contains(a)
        assert dbs_fp < bs_fp


class TestCoarseBitSelect:
    def test_macroblock_granularity_groups_blocks(self):
        sig = BitSelectSignature(bits=256, granularity=1024)
        sig.insert(0)
        # Another block in the same 1 KB macroblock reads as present.
        assert sig.contains(512)
        assert sig.false_positive(512)

    def test_few_bits_for_contiguous_run(self):
        sig = BitSelectSignature(bits=256, granularity=1024)
        for i in range(64):  # 64 contiguous blocks = 4 KB = 4 macroblocks
            sig.insert(i * 64)
        assert sig.popcount == 4


class TestFactory:
    def test_builds_each_kind(self):
        cases = [
            (SignatureKind.PERFECT, PerfectSignature),
            (SignatureKind.BIT_SELECT, BitSelectSignature),
            (SignatureKind.DOUBLE_BIT_SELECT, DoubleBitSelectSignature),
            (SignatureKind.COARSE_BIT_SELECT, BitSelectSignature),
        ]
        for kind, cls in cases:
            cfg = SignatureConfig(kind=kind, bits=256, granularity=1024)
            assert isinstance(make_signature(cfg), cls)

    def test_cbs_granularity_at_least_block(self):
        cfg = SignatureConfig(kind=SignatureKind.COARSE_BIT_SELECT,
                              bits=256, granularity=16)
        sig = make_signature(cfg, block_bytes=64)
        assert sig.granularity == 64

    def test_rw_pair(self):
        pair = make_rw_pair(SignatureConfig(kind=SignatureKind.BIT_SELECT,
                                            bits=128))
        assert pair.read is not pair.write
        assert pair.read.bits == 128
