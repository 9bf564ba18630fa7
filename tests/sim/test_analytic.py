"""Analytic pipeline-law model vs the exact executor."""

import numpy as np
import pytest

from repro.net import BandwidthSnapshot, RepairContext, units
from repro.repair.plan import Edge, Pipeline, RepairPlan, Segment
from repro.sim import TransferParams, execute, ideal_transfer_seconds
from repro.sim.analytic import pipeline_transfer_seconds, plan_transfer_seconds


def make_context(num_nodes=8, k=3):
    snap = BandwidthSnapshot.uniform(num_nodes, 1000.0)
    return RepairContext(
        snapshot=snap, requester=0, helpers=tuple(range(1, num_nodes)), k=k
    )


class TestAgreementWithExecutor:
    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    def test_chain_agreement_uniform_slices(self, depth):
        ctx = make_context(k=depth)
        nodes = list(range(1, depth + 1))
        edges = [Edge(a, b, 200.0) for a, b in zip(nodes, nodes[1:])]
        edges.append(Edge(nodes[-1], 0, 200.0))
        plan = RepairPlan(
            algorithm="t", context=ctx,
            pipelines=[Pipeline(0, Segment(0.0, 1.0), edges)],
        )
        params = TransferParams(
            chunk_bytes=units.kib(64) * 16, slice_bytes=units.kib(64)
        )
        exact = execute(plan, params).transfer_seconds
        closed = plan_transfer_seconds(plan, params)
        assert closed == pytest.approx(exact, rel=1e-9)

    def test_star_agreement(self):
        ctx = make_context(k=3)
        edges = [Edge(h, 0, 150.0) for h in (1, 2, 3)]
        plan = RepairPlan(
            algorithm="t", context=ctx,
            pipelines=[Pipeline(0, Segment(0.0, 1.0), edges)],
        )
        params = TransferParams(
            chunk_bytes=units.kib(64) * 8, slice_bytes=units.kib(64)
        )
        assert plan_transfer_seconds(plan, params) == pytest.approx(
            execute(plan, params).transfer_seconds, rel=1e-9
        )

    def test_hub_tree_agreement(self):
        """FullRepair's depth-2 shape: senders -> hub -> requester."""
        ctx = make_context(k=3)
        edges = [Edge(2, 1, 100.0), Edge(3, 1, 100.0), Edge(1, 0, 100.0)]
        plan = RepairPlan(
            algorithm="t", context=ctx,
            pipelines=[Pipeline(0, Segment(0.0, 1.0), edges)],
        )
        params = TransferParams(
            chunk_bytes=units.kib(64) * 4, slice_bytes=units.kib(64)
        )
        assert plan_transfer_seconds(plan, params) == pytest.approx(
            execute(plan, params).transfer_seconds, rel=1e-9
        )

    def test_remainder_slice_within_tolerance(self):
        ctx = make_context(k=2)
        edges = [Edge(1, 2, 100.0), Edge(2, 0, 100.0)]
        plan = RepairPlan(
            algorithm="t", context=ctx,
            pipelines=[Pipeline(0, Segment(0.0, 1.0), edges)],
        )
        params = TransferParams(chunk_bytes=units.mib(1) + 777)
        exact = execute(plan, params).transfer_seconds
        closed = plan_transfer_seconds(plan, params)
        assert closed == pytest.approx(exact, rel=0.01)

    def test_non_uniform_rates_rejected(self):
        ctx = make_context(k=2)
        pipe = Pipeline(0, Segment(0.0, 1.0), [Edge(1, 2, 100.0), Edge(2, 0, 50.0)])
        with pytest.raises(ValueError):
            pipeline_transfer_seconds(pipe, 0, TransferParams(chunk_bytes=1024))


class TestIdealBound:
    def test_formula(self):
        assert ideal_transfer_seconds(units.mib(64), 900.0) == pytest.approx(
            units.transfer_seconds(units.mib(64), 900.0)
        )

    def test_zero_rate_raises(self):
        with pytest.raises(ValueError):
            ideal_transfer_seconds(100, 0.0)

    def test_executor_never_beats_ideal(self):
        ctx = make_context(k=3)
        edges = [Edge(2, 1, 100.0), Edge(3, 1, 100.0), Edge(1, 0, 100.0)]
        plan = RepairPlan(
            algorithm="t", context=ctx,
            pipelines=[Pipeline(0, Segment(0.0, 1.0), edges)],
        )
        params = TransferParams(chunk_bytes=units.mib(4))
        exact = execute(plan, params).transfer_seconds
        assert exact >= ideal_transfer_seconds(units.mib(4), 100.0)
