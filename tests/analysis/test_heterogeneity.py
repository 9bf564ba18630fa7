"""Controlled C_v sweep."""

import numpy as np
import pytest

from repro.analysis import (
    achieved_cv,
    controlled_cv_snapshot,
    heterogeneity_sweep,
)


class TestControlledSnapshot:
    @pytest.mark.parametrize("target", [0.0, 0.1, 0.25, 0.4])
    def test_hits_target_cv(self, target):
        snap = controlled_cv_snapshot(16, target, seed=3)
        assert achieved_cv(snap) == pytest.approx(target, abs=0.03)

    def test_mean_preserved(self):
        snap = controlled_cv_snapshot(16, 0.3, mean_mbps=500.0, seed=4)
        mean = (snap.uplink + snap.downlink).mean() / 2
        assert mean == pytest.approx(500.0, rel=0.05)

    def test_within_capacity(self):
        snap = controlled_cv_snapshot(16, 0.5, seed=5)
        assert (snap.uplink <= 1000.0).all() and (snap.uplink >= 10.0).all()

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            controlled_cv_snapshot(8, -0.1)

    def test_deterministic(self):
        a = controlled_cv_snapshot(12, 0.2, seed=9)
        b = controlled_cv_snapshot(12, 0.2, seed=9)
        assert np.array_equal(a.uplink, b.uplink)

    def test_extreme_target_clipped_not_crashed(self):
        snap = controlled_cv_snapshot(8, 5.0, seed=1)
        assert achieved_cv(snap) < 5.0  # clipping dampens, but valid


class TestSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return heterogeneity_sweep(
            cv_targets=(0.0, 0.2, 0.4),
            samples_per_point=5,
            seed=2,
        )

    def test_point_structure(self, points):
        assert len(points) == 3
        for p in points:
            assert set(p.rates) == {"rp", "pivotrepair", "fullrepair"}
            assert all(r > 0 for r in p.rates.values())

    def test_single_pipeline_degrades_with_cv(self, points):
        """Conclusion 2: unevenness starves single pipelines."""
        rp = [p.rates["rp"] for p in points]
        assert rp[0] > rp[-1]

    def test_fullrepair_dominates_everywhere(self, points):
        for p in points:
            assert p.rates["fullrepair"] >= p.rates["rp"] - 1e-9
            assert p.rates["fullrepair"] >= p.rates["pivotrepair"] - 1e-9
