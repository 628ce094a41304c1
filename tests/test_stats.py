"""Tests for repro.common.stats."""

import pytest

from repro.common.stats import ConfidenceInterval, Counter, Histogram, StatsRegistry


class TestCounter:
    def test_add_and_reset(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.value == 5
        c.reset()
        assert c.value == 0


class TestHistogram:
    def test_mean_max(self):
        h = Histogram("sizes")
        for v in (2, 4, 6):
            h.record(v)
        assert h.mean == pytest.approx(4.0)
        assert h.maximum == 6
        assert h.count == 3
        assert h.total == 12

    def test_empty(self):
        h = Histogram("empty")
        assert h.mean == 0.0
        assert h.maximum == 0
        assert h.percentile(50) == 0

    def test_percentile(self):
        h = Histogram("p")
        for v in range(1, 101):
            h.record(v)
        assert h.percentile(50) == 50
        assert h.percentile(100) == 100
        assert h.percentile(0) == 1

    def test_percentile_validates(self):
        with pytest.raises(ValueError):
            Histogram("p").percentile(101)

    def test_items_sorted(self):
        h = Histogram("i")
        for v in (5, 1, 5, 3):
            h.record(v)
        assert list(h.items()) == [(1, 1), (3, 1), (5, 2)]

    def test_equality_by_contents(self):
        a, b = Histogram("h"), Histogram("h")
        for sample in (1, 1, 5):
            a.record(sample)
            b.record(sample)
        assert a == b
        b.record(9)
        assert a != b
        assert a != Histogram("other")
        assert a != "not a histogram"

    def test_dict_round_trip(self):
        h = Histogram("h")
        for sample in (3, 3, 3, 7, 11):
            h.record(sample)
        back = Histogram.from_dict(h.to_dict())
        assert back == h
        assert (back.count, back.total, back.mean) == (h.count, h.total,
                                                       h.mean)
        assert back.maximum == h.maximum
        assert back.percentile(50) == h.percentile(50)

    def test_empty_dict_round_trip(self):
        back = Histogram.from_dict(Histogram("empty").to_dict())
        assert back.count == 0

    def test_reset(self):
        h = Histogram("r")
        h.record(10)
        h.reset()
        assert h.count == 0
        assert h.maximum == 0


class TestStatsRegistry:
    def test_counter_identity(self):
        reg = StatsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_value_of_missing_is_zero(self):
        assert StatsRegistry().value("nope") == 0

    def test_snapshot(self):
        reg = StatsRegistry()
        reg.counter("b").add(2)
        reg.counter("a").add(1)
        assert reg.snapshot() == {"a": 1, "b": 2}

    def test_lazy_counters_register_on_first_use(self):
        reg = StatsRegistry()
        lazy = reg.lazy_counters("tm.")
        assert reg.snapshot() == {}
        lazy["stall_cycles"].value += 7
        assert lazy["stall_cycles"] is reg.counter("tm.stall_cycles")
        assert reg.snapshot() == {"tm.stall_cycles": 7}

    def test_reset_clears_everything(self):
        reg = StatsRegistry()
        reg.counter("a").add(5)
        reg.histogram("h").record(3)
        reg.reset()
        assert reg.value("a") == 0
        assert reg.histogram("h").count == 0


class TestConfidenceInterval:
    def test_single_sample(self):
        ci = ConfidenceInterval.from_samples([10.0])
        assert ci.mean == 10.0
        assert ci.half_width == 0.0

    def test_symmetric_samples(self):
        ci = ConfidenceInterval.from_samples([9.0, 10.0, 11.0])
        assert ci.mean == pytest.approx(10.0)
        assert ci.half_width > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceInterval.from_samples([])

    def test_str(self):
        assert "±" in str(ConfidenceInterval(1.0, 0.1))
