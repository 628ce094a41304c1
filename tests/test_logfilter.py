"""Tests for the log filter (redundant-logging suppression)."""

from repro.core.logfilter import LogFilter


class TestLogFilter:
    def test_first_store_logs(self):
        f = LogFilter(entries=4)
        assert f.should_log(0)

    def test_repeat_store_filtered(self):
        f = LogFilter(entries=4)
        assert f.should_log(0)
        assert not f.should_log(0)
        assert f.occupancy == 1

    def test_lru_replacement(self):
        f = LogFilter(entries=2)
        f.should_log(0)
        f.should_log(64)
        f.should_log(0)          # touch 0: now 64 is LRU
        f.should_log(128)        # evicts 64
        assert 64 not in f
        assert 0 in f and 128 in f
        assert f.should_log(64)  # must re-log after eviction

    def test_clear_is_safe(self):
        """Clearing only forces re-logging; never suppresses a needed log."""
        f = LogFilter(entries=4)
        f.should_log(0)
        f.clear()
        assert f.should_log(0)

    def test_zero_entries_always_logs(self):
        f = LogFilter(entries=0)
        assert f.should_log(0)
        assert f.should_log(0)
        assert f.occupancy == 0

    def test_occupancy_bounded(self):
        f = LogFilter(entries=3)
        for i in range(10):
            f.should_log(i * 64)
        assert f.occupancy == 3

    def test_negative_entries_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            LogFilter(entries=-1)
