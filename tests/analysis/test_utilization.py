"""Table-I bandwidth-resource decomposition."""

import numpy as np
import pytest

from repro.analysis import UtilizationBreakdown, mean_breakdown, plan_utilization
from repro.core import FullRepair
from repro.net import BandwidthSnapshot, RepairContext
from repro.repair import PivotRepair, RepairPipelining
from tests.conftest import random_context


class TestBreakdown:
    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ValueError):
            UtilizationBreakdown(0.5, 0.2, 0.1)

    def test_headline_metric(self):
        b = UtilizationBreakdown(0.7, 0.2, 0.1)
        assert b.bandwidth_utilization == 0.7

    def test_mean_breakdown(self):
        a = UtilizationBreakdown(0.6, 0.3, 0.1)
        b = UtilizationBreakdown(0.8, 0.1, 0.1)
        m = mean_breakdown([a, b])
        assert m.selected_used == pytest.approx(0.7)
        assert m.unselected == pytest.approx(0.2)

    def test_mean_breakdown_empty_raises(self):
        with pytest.raises(ValueError):
            mean_breakdown([])


class TestPlanUtilization:
    def test_single_pipeline_leaves_unselected(self, fig2_context):
        plan = RepairPipelining().schedule(fig2_context)
        b = plan_utilization(plan)
        # RP uses 3 of 4 helpers; the 4th node's uplink is "unselected"
        assert b.unselected > 0
        assert b.selected_used + b.unselected + b.selected_unused == pytest.approx(1.0)

    def test_fig2_rp_utilization(self, fig2_context):
        """RP at 300 Mbps: 3 senders x 300 over 2760 total = ~32.6%."""
        plan = RepairPipelining().schedule(fig2_context)
        b = plan_utilization(plan)
        assert b.selected_used == pytest.approx(3 * 300 / 2760, rel=1e-6)

    def test_fullrepair_has_no_unselected(self, fig2_context):
        plan = FullRepair().schedule(fig2_context)
        b = plan_utilization(plan)
        assert b.unselected == pytest.approx(0.0, abs=1e-9)

    def test_fullrepair_utilization_dominates(self):
        """FullRepair's bandwidth utilisation >= any single pipeline's
        (Table I's motivation)."""
        rng = np.random.default_rng(41)
        wins = 0
        total = 0
        for _ in range(60):
            ctx = random_context(rng, min_nodes=8, max_nodes=14, max_k=6)
            try:
                fr = plan_utilization(FullRepair().schedule(ctx))
                pv = plan_utilization(PivotRepair().schedule(ctx))
            except ValueError:
                continue
            total += 1
            if fr.bandwidth_utilization >= pv.bandwidth_utilization - 1e-9:
                wins += 1
        assert total > 40
        assert wins == total

    def test_zero_bandwidth_rejected(self):
        snap = BandwidthSnapshot(uplink=np.zeros(4), downlink=np.full(4, 10.0))
        ctx = RepairContext(snapshot=snap, requester=0, helpers=(1, 2, 3), k=2)
        from repro.repair.plan import Edge, Pipeline, RepairPlan, Segment

        plan = RepairPlan(
            "t", ctx,
            [Pipeline(0, Segment(0, 1), [Edge(1, 2, 1.0), Edge(2, 0, 1.0)])],
        )
        with pytest.raises(ValueError):
            plan_utilization(plan)
