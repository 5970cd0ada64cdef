"""Tests for the fixed-bucket latency histogram."""

import json
import random

import pytest

from repro.obs.registry import LatencyHistogram, observe_all


class TestObserve:
    def test_empty_histogram(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0

    def test_counts_and_sum(self):
        h = LatencyHistogram()
        observe_all(h, [0.001, 0.002, 0.004])
        assert h.count == 3
        assert h.total == pytest.approx(0.007)
        assert h.min == pytest.approx(0.001)
        assert h.max == pytest.approx(0.004)

    def test_negative_values_clamp_to_zero(self):
        h = LatencyHistogram()
        h.observe(-5.0)
        assert h.count == 1
        assert h.min == 0.0

    def test_overflow_bucket_catches_huge_values(self):
        h = LatencyHistogram()
        h.observe(10_000.0)
        assert h.counts[-1] == 1
        # Overflow quantiles report the observed max.
        assert h.quantile(0.99) == pytest.approx(10_000.0)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(first_bound=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=0)
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.0)


class TestQuantiles:
    def test_quantile_domain(self):
        h = LatencyHistogram()
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_quantile_within_bucket_error_bound(self):
        # With a x2 bucket ratio the relative estimation error of any
        # quantile is bounded by the bucket width.
        rng = random.Random(7)
        samples = [rng.uniform(0.001, 0.5) for _ in range(5000)]
        h = LatencyHistogram()
        observe_all(h, samples)
        samples.sort()
        for q in (0.5, 0.9, 0.99):
            exact = samples[int(q * len(samples)) - 1]
            estimate = h.quantile(q)
            assert estimate == pytest.approx(exact, rel=1.0)
            assert estimate > 0

    def test_monotone_quantiles(self):
        h = LatencyHistogram()
        observe_all(h, [0.001 * (i + 1) for i in range(100)])
        values = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert values == sorted(values)


class TestMergeAndSerialize:
    def test_merge_equals_union(self):
        a, b, union = (LatencyHistogram() for _ in range(3))
        xs = [0.001, 0.01, 0.1]
        ys = [0.0005, 0.05, 2.0]
        observe_all(a, xs)
        observe_all(b, ys)
        observe_all(union, xs + ys)
        a.merge(b)
        assert a.counts == union.counts
        assert a.count == union.count
        assert a.total == pytest.approx(union.total)
        assert a.min == union.min and a.max == union.max

    def test_merge_rejects_different_geometry(self):
        with pytest.raises(ValueError):
            LatencyHistogram().merge(LatencyHistogram(buckets=4))

    def test_as_dict_round_trips_through_json(self):
        h = LatencyHistogram()
        observe_all(h, [0.002, 0.02, 0.2])
        data = json.loads(json.dumps(h.as_dict()))
        assert data["count"] == 3
        assert data["p50_ms"] > 0
        assert data["p99_ms"] >= data["p50_ms"]
        assert len(data["bucket_counts"]) == len(data["bucket_bounds_ms"]) + 1
        assert sum(data["bucket_counts"]) == 3
