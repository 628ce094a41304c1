"""Tests for repro.common.rng — determinism and distribution helpers."""

import random

import pytest

from repro.common.rng import make_rng, perturbed_seeds, zipf_rank


class TestMakeRng:
    def test_same_stream_same_sequence(self):
        a = make_rng(7, "workload", 3)
        b = make_rng(7, "workload", 3)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_streams_differ(self):
        a = make_rng(7, "workload", 3)
        b = make_rng(7, "workload", 4)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = make_rng(1, "x")
        b = make_rng(2, "x")
        assert a.random() != b.random()

    def test_string_streams_are_stable(self):
        # hash() is salted for strings; make_rng must not depend on it.
        rng = make_rng(0, "backoff")
        assert rng.randrange(1 << 30) == make_rng(0, "backoff").randrange(1 << 30)


class TestPerturbedSeeds:
    def test_count_and_determinism(self):
        seeds = perturbed_seeds(42, 5)
        assert len(seeds) == 5
        assert seeds == perturbed_seeds(42, 5)

    def test_all_distinct(self):
        seeds = perturbed_seeds(42, 10)
        assert len(set(seeds)) == 10

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            perturbed_seeds(42, 0)


class TestZipfRank:
    def test_bounds(self):
        rng = random.Random(1)
        for _ in range(200):
            assert 0 <= zipf_rank(rng, 10, skew=1.0) < 10

    def test_skew_prefers_low_ranks(self):
        rng = random.Random(1)
        samples = [zipf_rank(rng, 100, skew=1.2) for _ in range(3000)]
        low = sum(1 for s in samples if s < 10)
        high = sum(1 for s in samples if s >= 90)
        assert low > high * 3

    def test_uniform_when_skew_zero(self):
        rng = random.Random(1)
        samples = [zipf_rank(rng, 10, skew=0.0) for _ in range(5000)]
        counts = [samples.count(i) for i in range(10)]
        assert min(counts) > 300  # roughly uniform

    def test_single_item(self):
        assert zipf_rank(random.Random(0), 1) == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zipf_rank(random.Random(0), 0)
        with pytest.raises(ValueError):
            zipf_rank(random.Random(0), 5, skew=-1)

    @pytest.mark.parametrize("n,skew", [(1, 1.0), (2, 0.5), (10, 1.0),
                                        (100, 1.2), (137, 0.4),
                                        (117, 0.1), (50, 0.0), (50, 0)])
    def test_cached_bounds_draw_like_the_formula(self, n, skew):
        """The bounds are built once per (n, skew); every draw still
        equals the inverse transform over freshly summed weights."""
        def reference(rng):
            total = 0.0
            bounds = []
            for rank in range(1, n + 1):
                total += 1.0 / (rank ** skew)
                bounds.append(total)
            x = rng.random() * total
            lo, hi = 0, n - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if x < bounds[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            return lo

        ours, theirs = random.Random(n), random.Random(n)
        assert ([zipf_rank(ours, n, skew) for _ in range(1000)]
                == [reference(theirs) for _ in range(1000)])
