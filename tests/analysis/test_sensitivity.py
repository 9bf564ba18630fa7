"""Model-constant sensitivity sweep."""

import pytest

from repro.analysis import sensitivity_sweep
from repro.analysis.sensitivity import SensitivityPoint


@pytest.fixture(scope="module")
def points():
    return sensitivity_sweep(
        overheads_s=(0.0, 500e-6),
        compute_costs=(0.0, 1e-9),
        chunk_bytes=8 * 1024 * 1024,
        algorithm_kwargs={"ppt": {"max_emulations": 100}},
    )


class TestSweep:
    def test_grid_size(self, points):
        assert len(points) == 4

    def test_all_algorithms_present(self, points):
        for p in points:
            assert set(p.times) == {"rp", "ppt", "pivotrepair", "fullrepair"}

    def test_margin_above_one(self, points):
        assert all(p.fullrepair_margin > 1.0 for p in points)

    def test_overhead_compresses_margin(self, points):
        """More per-slice overhead (paid equally by all) shrinks ratios."""
        no_ovh = [p for p in points if p.slice_overhead_s == 0.0]
        ovh = [p for p in points if p.slice_overhead_s > 0.0]
        assert max(p.fullrepair_margin for p in ovh) <= max(
            p.fullrepair_margin for p in no_ovh
        ) + 1e-9


class TestPointProperties:
    def test_ordering_detects_violation(self):
        p = SensitivityPoint(
            slice_overhead_s=0.0,
            compute_s_per_byte=0.0,
            times={"rp": 1.0, "ppt": 2.0, "pivotrepair": 2.0, "fullrepair": 3.0},
        )
        assert not p.ordering_holds

    def test_margin_formula(self):
        p = SensitivityPoint(
            slice_overhead_s=0.0,
            compute_s_per_byte=0.0,
            times={"rp": 4.0, "ppt": 3.0, "pivotrepair": 3.0, "fullrepair": 2.0},
        )
        assert p.fullrepair_margin == pytest.approx(1.5)
        assert p.ordering_holds
