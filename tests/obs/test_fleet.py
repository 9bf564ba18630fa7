"""Fleet aggregation tier: t-digest sketches, rolling windows, caps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import (
    NULL_FLEET,
    FleetAggregator,
    NullFleetAggregator,
    RollingWindow,
    TDigest,
)
from repro.obs.fleet import MAX_SERIES, OVERFLOW_KEY


class TestTDigest:
    def test_exact_for_small_samples(self):
        d = TDigest()
        for v in (3.0, 1.0, 2.0):
            d.add(v)
        assert d.count == 3
        assert d.sum == 6.0
        assert d.mean == pytest.approx(2.0)
        assert d.quantile(0.0) == 1.0
        assert d.quantile(1.0) == 3.0
        assert d.quantile(0.5) == pytest.approx(2.0)

    def test_empty(self):
        d = TDigest()
        assert d.count == 0
        assert d.quantile(0.5) == 0.0
        assert d.mean == 0.0

    def test_accuracy_on_large_stream(self):
        rng = np.random.default_rng(3)
        values = rng.exponential(scale=1.0, size=50_000)
        d = TDigest(delta=64)
        for v in values:
            d.add(float(v))
        for q in (0.5, 0.9, 0.99):
            exact = float(np.quantile(values, q))
            assert d.quantile(q) == pytest.approx(exact, rel=0.05)
        assert d.quantile(0.0) == float(values.min())
        assert d.quantile(1.0) == float(values.max())

    def test_memory_bounded(self):
        d = TDigest(delta=64)
        for i in range(100_000):
            d.add(float(i % 977))
        # the count grows with log(count / δ): a few hundred here
        assert d.num_centroids() < 10 * 64
        assert d.count == 100_000

    def test_merge_is_lossless_on_count_sum_extrema(self):
        rng = np.random.default_rng(4)
        a, b = TDigest(), TDigest()
        va = rng.uniform(0, 10, 5_000)
        vb = rng.uniform(5, 20, 5_000)
        for v in va:
            a.add(float(v))
        for v in vb:
            b.add(float(v))
        a.merge(b)
        combined = np.concatenate([va, vb])
        assert a.count == 10_000
        assert a.sum == pytest.approx(float(combined.sum()))
        assert a.min == float(combined.min())
        assert a.max == float(combined.max())
        assert a.quantile(0.5) == pytest.approx(
            float(np.quantile(combined, 0.5)), rel=0.05
        )


class TestRollingWindow:
    def test_windowed_view_expires_old_buckets(self):
        w = RollingWindow(window_s=10.0, buckets=10)
        w.observe(0.5, 100.0)
        w.observe(5.0, 1.0)
        assert w.count(5.0) == 2
        # t=12: the bucket holding t=0.5 has aged out, t=5 remains
        assert w.count(12.0) == 1
        assert w.digest(12.0).quantile(1.0) == 1.0
        # far future: everything expired
        assert w.count(100.0) == 0

    def test_slot_recycling_keeps_memory_fixed(self):
        w = RollingWindow(window_s=1.0, buckets=4)
        for i in range(1000):
            w.observe(i * 0.1, float(i))
        assert len(w._ring) == 4

    def test_same_bucket_accumulates(self):
        w = RollingWindow(window_s=10.0, buckets=10)
        for v in (1.0, 2.0, 3.0):
            w.observe(3.3, v)
        assert w.count(3.3) == 3
        assert w.digest(3.3).mean == pytest.approx(2.0)


class TestFleetAggregator:
    def test_labelled_series_and_aggregate_views(self):
        f = FleetAggregator(window_s=10.0)
        for i in range(10):
            f.observe("repro_repair_seconds", 0.1 * i, t=float(i), algorithm="fullrepair")
            f.observe("repro_repair_seconds", 1.0 + 0.1 * i, t=float(i), algorithm="ppr")
        assert f.metrics() == ["repro_repair_seconds"]
        assert f.series_count("repro_repair_seconds") == 2
        # per-label view
        assert f.count("repro_repair_seconds", 9.0, algorithm="ppr") == 10
        assert f.mean("repro_repair_seconds", 9.0, algorithm="ppr") > 1.0
        # aggregate view folds every label set
        assert f.count("repro_repair_seconds", 9.0) == 20
        assert f.rate_per_s("repro_repair_seconds", 9.0) == pytest.approx(2.0)

    def test_lifetime_vs_windowed(self):
        f = FleetAggregator(window_s=1.0, buckets=10)
        f.observe("repro_x", 5.0, t=0.0)
        f.observe("repro_x", 7.0, t=100.0)
        assert f.count("repro_x", now=100.0, windowed=False) == 2
        assert f.count("repro_x", now=100.0, windowed=True) == 1
        assert f.quantile("repro_x", 0.5, now=100.0, windowed=True) == 7.0

    def test_cardinality_cap_collapses_to_overflow(self):
        f = FleetAggregator()
        for i in range(MAX_SERIES + 1):
            f.observe("repro_x", float(i), t=0.0, node=str(i))
        assert f.series_count("repro_x") == MAX_SERIES + 1  # 64 real + overflow
        assert f.overflowed == 1
        assert OVERFLOW_KEY in f._metrics["repro_x"]
        # further new label sets reuse the one overflow series
        for i in range(MAX_SERIES + 1, MAX_SERIES + 7):
            f.observe("repro_x", float(i), t=0.0, node=str(i))
        assert f.series_count("repro_x") == MAX_SERIES + 1
        assert f.overflowed == 7
        # nothing dropped: the aggregate still sees every observation
        assert f.count("repro_x", now=0.0, windowed=False) == MAX_SERIES + 7

    def test_snapshot_shape(self):
        f = FleetAggregator(window_s=10.0)
        for i in range(5):
            f.observe("repro_x", float(i), t=float(i))
        snap = f.snapshot(now=4.0)
        entry = snap["repro_x"]
        assert entry["count"] == 5
        assert entry["window_count"] == 5
        assert set(entry) == {
            "series", "count", "mean", "p50", "p99",
            "window_count", "window_p99",
        }

    def test_merge_shards(self):
        a = FleetAggregator(window_s=10.0, buckets=10)
        b = FleetAggregator(window_s=10.0, buckets=10)
        for i in range(50):
            a.observe("repro_x", float(i), t=float(i % 10), zone="a")
            b.observe("repro_x", 100.0 + i, t=float(i % 10), zone="b")
        a.merge(b)
        assert a.series_count("repro_x") == 2
        assert a.count("repro_x", now=9.0, windowed=False) == 100
        assert a.count("repro_x", now=9.0, windowed=True) == 100
        assert a.quantile("repro_x", 1.0, now=9.0, windowed=False) == 149.0

    def test_clock_supplies_default_timestamps(self):
        now = {"t": 0.0}
        f = FleetAggregator(window_s=1.0, buckets=10, clock=lambda: now["t"])
        f.observe("repro_x", 1.0)
        now["t"] = 50.0
        assert f.count("repro_x", windowed=True) == 0
        assert f.count("repro_x", windowed=False) == 1


class TestNullFleet:
    def test_disabled_and_inert(self):
        assert NULL_FLEET.enabled is False
        assert FleetAggregator().enabled is True
        NULL_FLEET.observe("repro_x", 1.0, t=0.0, node="1")
        assert NULL_FLEET.metrics() == []
        live = FleetAggregator()
        live.observe("repro_x", 1.0, t=0.0)
        NULL_FLEET.merge(live)
        assert NULL_FLEET.metrics() == []
        assert NullFleetAggregator().enabled is False
