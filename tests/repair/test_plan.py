"""RepairPlan / Pipeline structural validation."""

import numpy as np
import pytest

from repro.net import BandwidthSnapshot, RepairContext
from repro.repair.plan import Edge, Pipeline, RepairPlan, Segment


@pytest.fixture
def ctx():
    snap = BandwidthSnapshot.uniform(6, 1000.0)
    return RepairContext(snapshot=snap, requester=0, helpers=(1, 2, 3, 4, 5), k=3)


def chain(ctx, nodes, rate=100.0, segment=(0.0, 1.0), task_id=0):
    edges = [Edge(a, b, rate) for a, b in zip(nodes, nodes[1:])]
    edges.append(Edge(nodes[-1], ctx.requester, rate))
    return Pipeline(task_id=task_id, segment=Segment(*segment), edges=edges)


class TestSegment:
    def test_length(self):
        assert Segment(2.0, 5.0).length == 3.0

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            Segment(5.0, 2.0)


class TestEdge:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Edge(1, 1, 5.0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            Edge(1, 2, 0.0)


class TestPipeline:
    def test_participants_are_uploaders(self, ctx):
        p = chain(ctx, [3, 1, 2])
        assert p.participants == (1, 2, 3)

    def test_rate_is_min_edge(self, ctx):
        p = Pipeline(0, Segment(0, 1), [Edge(1, 2, 100.0), Edge(2, 0, 40.0)])
        assert p.rate == 40.0

    def test_depth_chain(self, ctx):
        assert chain(ctx, [1, 2, 3]).depth() == 3

    def test_depth_star(self, ctx):
        p = Pipeline(0, Segment(0, 1), [Edge(h, 0, 10.0) for h in (1, 2, 3)])
        assert p.depth() == 1

    def test_parent_and_children(self, ctx):
        p = chain(ctx, [1, 2])
        assert p.parent_of(1) == 2
        assert p.parent_of(2) == 0
        assert p.parent_of(0) is None
        assert p.children_of(2) == [1]

    def test_validate_ok(self, ctx):
        chain(ctx, [1, 2, 3]).validate(ctx)

    def test_requester_cannot_upload(self, ctx):
        p = Pipeline(0, Segment(0, 1), [Edge(0, 1, 10.0), Edge(1, 2, 10.0), Edge(2, 3, 10), Edge(3, 4, 10)])
        with pytest.raises(ValueError, match="root|upload"):
            p.validate(ctx)

    def test_two_parents_rejected(self, ctx):
        p = Pipeline(
            0, Segment(0, 1),
            [Edge(1, 2, 10.0), Edge(1, 3, 10.0), Edge(2, 0, 10.0), Edge(3, 0, 10.0)],
        )
        with pytest.raises(ValueError, match="two parents"):
            p.validate(ctx)

    def test_disconnected_rejected(self, ctx):
        p = Pipeline(
            0, Segment(0, 1),
            [Edge(1, 2, 10.0), Edge(2, 1, 10.0), Edge(3, 0, 10.0)],
        )
        with pytest.raises(ValueError):
            p.validate(ctx)

    def test_wrong_participant_count(self, ctx):
        p = chain(ctx, [1, 2])  # only 2 helpers, k=3
        with pytest.raises(ValueError, match="k=3"):
            p.validate(ctx)

    def test_non_helper_upload_rejected(self):
        snap = BandwidthSnapshot.uniform(6, 1000.0)
        ctx = RepairContext(snapshot=snap, requester=0, helpers=(1, 2, 3), k=2)
        p = Pipeline(0, Segment(0, 1), [Edge(4, 1, 10.0), Edge(1, 0, 10.0)])
        with pytest.raises(ValueError, match="non-helper"):
            p.validate(ctx)

    def test_empty_pipeline_rejected(self, ctx):
        with pytest.raises(ValueError):
            Pipeline(0, Segment(0, 1), []).validate(ctx)


class TestRepairPlan:
    def test_valid_single_pipeline(self, ctx):
        plan = RepairPlan("t", ctx, [chain(ctx, [1, 2, 3])])
        plan.validate()

    def test_total_rate_single(self, ctx):
        plan = RepairPlan("t", ctx, [chain(ctx, [1, 2, 3], rate=123.0)])
        assert plan.total_rate == pytest.approx(123.0)

    def test_total_rate_multi(self, ctx):
        plan = RepairPlan(
            "t", ctx,
            [
                chain(ctx, [1, 2, 3], rate=30.0, segment=(0.0, 0.3)),
                chain(ctx, [3, 4, 5], rate=70.0, segment=(0.3, 1.0), task_id=1),
            ],
        )
        # both pipelines proportional: aggregate = 100
        assert plan.total_rate == pytest.approx(100.0)
        plan.validate()

    def test_gap_rejected(self, ctx):
        plan = RepairPlan(
            "t", ctx,
            [
                chain(ctx, [1, 2, 3], segment=(0.0, 0.4)),
                chain(ctx, [3, 4, 5], segment=(0.6, 1.0), task_id=1),
            ],
        )
        with pytest.raises(ValueError, match="no pipeline"):
            plan.validate()

    def test_overlap_rejected(self, ctx):
        plan = RepairPlan(
            "t", ctx,
            [
                chain(ctx, [1, 2, 3], segment=(0.0, 0.6)),
                chain(ctx, [3, 4, 5], segment=(0.4, 1.0), task_id=1),
            ],
        )
        with pytest.raises(ValueError, match="overlap"):
            plan.validate()

    def test_short_coverage_rejected(self, ctx):
        plan = RepairPlan("t", ctx, [chain(ctx, [1, 2, 3], segment=(0.0, 0.9))])
        with pytest.raises(ValueError):
            plan.validate()

    def test_rate_feasibility_checked(self, ctx):
        plan = RepairPlan("t", ctx, [chain(ctx, [1, 2, 3], rate=2000.0)])
        with pytest.raises(ValueError, match="oversubscribed"):
            plan.validate()
        plan.validate(check_rates=False)  # structure alone is fine

    def test_empty_plan_rejected(self, ctx):
        with pytest.raises(ValueError):
            RepairPlan("t", ctx, []).validate()

    def test_flows_alignment(self, ctx):
        plan = RepairPlan("t", ctx, [chain(ctx, [1, 2, 3], rate=55.0)])
        flows, rates = plan.flows()
        assert len(flows) == 3
        assert (rates == 55.0).all()

    def test_num_pipelines_skips_empty_segments(self, ctx):
        plan = RepairPlan(
            "t", ctx,
            [
                chain(ctx, [1, 2, 3], segment=(0.0, 1.0)),
                chain(ctx, [3, 4, 5], segment=(1.0, 1.0), task_id=1),
            ],
        )
        assert plan.num_pipelines() == 1


class TestNodeRates:
    def test_chain_rates_sum_per_constraint(self, ctx):
        # 1 -> 2 -> 3 -> requester(0), every edge at 55 Mbps
        plan = RepairPlan("t", ctx, [chain(ctx, [1, 2, 3], rate=55.0)])
        rates = plan.node_rates()
        assert set(rates) == {0, 1, 2, 3}
        assert rates[1].uplink_mbps == pytest.approx(55.0)
        assert rates[1].downlink_mbps == 0.0  # leaf receives nothing
        assert rates[2].uplink_mbps == pytest.approx(55.0)
        assert rates[2].downlink_mbps == pytest.approx(55.0)  # relay
        assert rates[0].uplink_mbps == 0.0  # requester only downloads
        assert rates[0].downlink_mbps == pytest.approx(55.0)

    def test_rates_accumulate_across_pipelines(self, ctx):
        plan = RepairPlan(
            "t", ctx,
            [
                chain(ctx, [1, 2, 3], rate=30.0, segment=(0.0, 0.3)),
                chain(ctx, [3, 4, 5], rate=70.0, segment=(0.3, 1.0), task_id=1),
            ],
        )
        rates = plan.node_rates()
        # node 3 uploads in both pipelines (30 to requester-chain, 70 to 4)
        assert rates[3].uplink_mbps == pytest.approx(100.0)
        assert rates[3].downlink_mbps == pytest.approx(30.0)
        assert rates[0].downlink_mbps == pytest.approx(100.0)
