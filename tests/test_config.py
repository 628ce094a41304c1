"""Tests for repro.common.config — Table 1 defaults and validation."""

from dataclasses import replace

import pytest

from repro.common.config import (CacheConfig, CoherenceStyle, SignatureConfig,
                                 SignatureKind, SyncMode, SystemConfig,
                                 TMConfig, figure4_variants)
from repro.common.errors import ConfigError


class TestCacheConfig:
    def test_geometry(self):
        cfg = CacheConfig(size_bytes=32 * 1024, associativity=4,
                          block_bytes=64, latency=1)
        assert cfg.num_blocks == 512
        assert cfg.num_sets == 128

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1024, associativity=2, block_bytes=48,
                        latency=1)

    def test_rejects_fractional_sets(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, associativity=3, block_bytes=64,
                        latency=1)


class TestSignatureConfig:
    def test_perfect_ignores_bits(self):
        cfg = SignatureConfig(kind=SignatureKind.PERFECT, bits=12345)
        assert cfg.describe() == "Perfect"

    def test_describe_kb(self):
        assert SignatureConfig(kind=SignatureKind.BIT_SELECT,
                               bits=2048).describe() == "BS_2Kb"
        assert SignatureConfig(kind=SignatureKind.BIT_SELECT,
                               bits=64).describe() == "BS_64"

    def test_rejects_non_power_of_two_bits(self):
        with pytest.raises(ConfigError):
            SignatureConfig(kind=SignatureKind.BIT_SELECT, bits=100)

    def test_dbs_minimum(self):
        with pytest.raises(ConfigError):
            SignatureConfig(kind=SignatureKind.DOUBLE_BIT_SELECT, bits=2)


class TestSystemConfig:
    def test_table1_defaults(self):
        cfg = SystemConfig.default()
        assert cfg.num_cores == 16
        assert cfg.threads_per_core == 2
        assert cfg.total_threads == 32
        assert cfg.l1.size_bytes == 32 * 1024
        assert cfg.l2.size_bytes == 8 * 1024 * 1024
        assert cfg.l2_banks == 16
        assert cfg.memory_latency == 500
        assert cfg.l2.latency == 34
        assert cfg.directory_latency == 6
        assert cfg.link_latency == 3
        assert cfg.coherence is CoherenceStyle.DIRECTORY
        assert cfg.sync is SyncMode.TRANSACTIONS

    def test_block_size_must_match(self):
        with pytest.raises(ConfigError):
            SystemConfig(
                l1=CacheConfig(32 * 1024, 4, 64, 1),
                l2=CacheConfig(8 * 1024 * 1024, 8, 128, 34))

    def test_mesh_must_fit_cores(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=32, mesh_dims=(2, 2))

    def test_multichip_rejects_snooping(self):
        """Only the directory fabric spans chips: a snooping multichip
        config would build a directory machine under a snooping name."""
        multichip = SystemConfig.multichip(num_chips=2, cores_per_chip=2)
        with pytest.raises(ConfigError, match="snooping"):
            replace(multichip, coherence=CoherenceStyle.SNOOPING)
        replace(SystemConfig.small(), coherence=CoherenceStyle.SNOOPING)

    def test_with_signature_is_functional_update(self):
        base = SystemConfig.default()
        derived = base.with_signature(SignatureKind.BIT_SELECT, bits=64)
        assert base.tm.signature.kind is SignatureKind.PERFECT
        assert derived.tm.signature.kind is SignatureKind.BIT_SELECT
        assert derived.tm.signature.bits == 64

    def test_with_sync(self):
        cfg = SystemConfig.default().with_sync(SyncMode.LOCKS)
        assert cfg.sync is SyncMode.LOCKS

    def test_small_preset_valid(self):
        cfg = SystemConfig.small()
        assert cfg.num_cores == 4
        assert cfg.total_threads == 4


class TestTMConfig:
    def test_defaults(self):
        tm = TMConfig()
        assert tm.use_sticky_states
        assert tm.log_filter_entries == 32

    def test_rejects_bad_backoff(self):
        with pytest.raises(ConfigError):
            TMConfig(backoff_base=0)


class TestFigure4Variants:
    def test_six_variants_in_paper_order(self):
        labels = [label for label, _ in figure4_variants()]
        assert labels == ["Lock", "Perfect", "BS_2Kb", "CBS_2Kb",
                          "DBS_2Kb", "BS_64"]

    def test_lock_variant_uses_locks(self):
        variants = dict(figure4_variants())
        assert variants["Lock"].sync is SyncMode.LOCKS
        assert variants["Perfect"].sync is SyncMode.TRANSACTIONS

    def test_cbs_uses_macroblocks(self):
        variants = dict(figure4_variants())
        assert variants["CBS_2Kb"].tm.signature.granularity == 1024
