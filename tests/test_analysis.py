"""Tests for the analytic signature models (and agreement with empirical)."""

import pytest

from repro.common.config import SignatureConfig, SignatureKind
from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.signatures.analysis import (bits_for_target_rate,
                                       expected_occupied_macroblocks,
                                       false_positive_rate)
from repro.signatures.factory import make_signature


def empirical_rate(cfg: SignatureConfig, n: int, probes: int = 6000,
                   seed: int = 0) -> float:
    rng = make_rng(seed, "empirical", cfg.kind.value, cfg.bits, n)
    sig = make_signature(cfg)
    inserted = set()
    while len(inserted) < n:
        inserted.add(rng.randrange(1 << 24) * 64)
    for addr in inserted:
        sig.insert(addr)
    hits = tested = 0
    while tested < probes:
        addr = rng.randrange(1 << 24) * 64
        if addr in inserted:
            continue
        tested += 1
        hits += sig.contains(addr)
    return hits / tested


class TestClosedForms:
    def test_perfect_is_zero(self):
        cfg = SignatureConfig(kind=SignatureKind.PERFECT)
        assert false_positive_rate(cfg, 10_000) == 0.0

    def test_empty_filter_never_aliases(self):
        for kind in (SignatureKind.BIT_SELECT, SignatureKind.HASHED,
                     SignatureKind.DOUBLE_BIT_SELECT):
            cfg = SignatureConfig(kind=kind, bits=64)
            assert false_positive_rate(cfg, 0) == 0.0

    def test_monotone_in_occupancy_and_size(self):
        cfg_small = SignatureConfig(kind=SignatureKind.BIT_SELECT, bits=64)
        cfg_big = SignatureConfig(kind=SignatureKind.BIT_SELECT, bits=2048)
        assert (false_positive_rate(cfg_small, 8)
                < false_positive_rate(cfg_small, 64))
        assert (false_positive_rate(cfg_big, 64)
                < false_positive_rate(cfg_small, 64))

    def test_saturation(self):
        cfg = SignatureConfig(kind=SignatureKind.BIT_SELECT, bits=64)
        assert false_positive_rate(cfg, 550) > 0.99

    def test_macroblock_expectation(self):
        # 16 blocks in 1 macroblock: many blocks collapse.
        assert expected_occupied_macroblocks(1, 16) == pytest.approx(
            1.0, abs=0.01)
        assert expected_occupied_macroblocks(160, 16) < 160


class TestAgreementWithEmpirical:
    @pytest.mark.parametrize("kind,bits,n", [
        (SignatureKind.BIT_SELECT, 256, 32),
        (SignatureKind.BIT_SELECT, 64, 40),
        (SignatureKind.DOUBLE_BIT_SELECT, 256, 32),
        (SignatureKind.HASHED, 512, 40),
    ], ids=["bs256", "bs64", "dbs256", "h512"])
    def test_model_matches_measurement(self, kind, bits, n):
        cfg = SignatureConfig(kind=kind, bits=bits)
        predicted = false_positive_rate(cfg, n)
        measured = empirical_rate(cfg, n)
        assert measured == pytest.approx(predicted, abs=0.06), (
            f"model {predicted:.3f} vs measured {measured:.3f}")


class TestSizing:
    def test_bits_for_target(self):
        bits = bits_for_target_rate(SignatureKind.BIT_SELECT,
                                    inserted_blocks=8, target_rate=0.05)
        cfg = SignatureConfig(kind=SignatureKind.BIT_SELECT, bits=bits)
        assert false_positive_rate(cfg, 8) <= 0.05
        # And the next smaller size misses the budget.
        smaller = SignatureConfig(kind=SignatureKind.BIT_SELECT,
                                  bits=bits // 2)
        assert false_positive_rate(smaller, 8) > 0.05

    def test_raytrace_sizing_story(self):
        """Result 3's why: a 550-block read set needs far more BS bits
        than the common small sets do."""
        small = bits_for_target_rate(SignatureKind.BIT_SELECT, 8, 0.10)
        big = bits_for_target_rate(SignatureKind.BIT_SELECT, 550, 0.10)
        assert big >= small * 32

    def test_rejects_bad_target(self):
        with pytest.raises(ConfigError):
            bits_for_target_rate(SignatureKind.BIT_SELECT, 8, 0.0)
