"""Exact pipelined-transfer executor: hand-computed cases + invariants."""

import numpy as np
import pytest

from repro.net import BandwidthSnapshot, RepairContext, units
from repro.repair.plan import Edge, Pipeline, RepairPlan, Segment
from repro.sim import TransferParams, execute
from repro.sim.transfer import _fifo_arrivals


def make_context(num_nodes=6, bw=1000.0, k=2):
    snap = BandwidthSnapshot.uniform(num_nodes, bw)
    return RepairContext(
        snapshot=snap, requester=0, helpers=tuple(range(1, num_nodes)), k=k
    )


def chain_plan(context, rate, nodes):
    """nodes[0] -> nodes[1] -> ... -> requester at uniform rate."""
    edges = [Edge(a, b, rate) for a, b in zip(nodes, nodes[1:])]
    edges.append(Edge(nodes[-1], context.requester, rate))
    return RepairPlan(
        algorithm="test",
        context=context,
        pipelines=[Pipeline(task_id=0, segment=Segment(0.0, 1.0), edges=edges)],
    )


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransferParams(chunk_bytes=-1)
        with pytest.raises(ValueError):
            TransferParams(chunk_bytes=10, slice_bytes=0)
        with pytest.raises(ValueError):
            TransferParams(chunk_bytes=10, slice_overhead_s=-1.0)


class TestFifoArrivals:
    def test_all_ready_serialises(self):
        ready = np.zeros(4)
        occ = np.full(4, 2.0)
        arr = _fifo_arrivals(ready, occ, latency=0.0)
        assert list(arr) == [2.0, 4.0, 6.0, 8.0]

    def test_late_ready_stalls(self):
        ready = np.array([0.0, 10.0, 10.0])
        occ = np.full(3, 2.0)
        arr = _fifo_arrivals(ready, occ, latency=0.0)
        assert list(arr) == [2.0, 12.0, 14.0]

    def test_latency_added_per_slice(self):
        ready = np.zeros(2)
        occ = np.full(2, 1.0)
        arr = _fifo_arrivals(ready, occ, latency=0.5)
        assert list(arr) == [1.5, 2.5]

    def test_variable_occupancy(self):
        ready = np.zeros(3)
        occ = np.array([1.0, 2.0, 0.5])
        arr = _fifo_arrivals(ready, occ, latency=0.0)
        assert list(arr) == [1.0, 3.0, 3.5]


class TestChainExecution:
    def test_single_hop_no_overheads(self):
        ctx = make_context(k=1)
        plan = RepairPlan(
            algorithm="test",
            context=ctx,
            pipelines=[
                Pipeline(0, Segment(0.0, 1.0), [Edge(1, 0, 800.0)])
            ],
        )
        params = TransferParams(
            chunk_bytes=units.mib(1),
            slice_bytes=None,
            slice_overhead_s=0.0,
            compute_s_per_byte=0.0,
        )
        result = execute(plan, params)
        expected = units.transfer_seconds(units.mib(1), 800.0)
        assert result.transfer_seconds == pytest.approx(expected)

    def test_pipeline_law_uniform_slices(self):
        """(S + depth - 1) stage times for a 2-hop chain, zero compute."""
        ctx = make_context(k=2)
        plan = chain_plan(ctx, rate=100.0, nodes=[1, 2])
        slice_bytes = 12_500  # 1 ms at 100 Mbps
        params = TransferParams(
            chunk_bytes=slice_bytes * 8,
            slice_bytes=slice_bytes,
            slice_overhead_s=0.0,
            compute_s_per_byte=0.0,
        )
        result = execute(plan, params)
        stage = slice_bytes / units.mbps_to_bytes_per_s(100.0)
        assert result.transfer_seconds == pytest.approx((8 + 2 - 1) * stage)

    def test_overhead_charged_per_slice_per_hop(self):
        ctx = make_context(k=2)
        plan = chain_plan(ctx, rate=100.0, nodes=[1, 2])
        slice_bytes = 12_500
        base = TransferParams(
            chunk_bytes=slice_bytes * 4, slice_bytes=slice_bytes,
            slice_overhead_s=0.0, compute_s_per_byte=0.0,
        )
        loaded = TransferParams(
            chunk_bytes=slice_bytes * 4, slice_bytes=slice_bytes,
            slice_overhead_s=1e-3, compute_s_per_byte=0.0,
        )
        t0 = execute(plan, base).transfer_seconds
        t1 = execute(plan, loaded).transfer_seconds
        # (S + d - 1) extra stage overheads
        assert t1 - t0 == pytest.approx((4 + 2 - 1) * 1e-3)

    def test_compute_charged_on_combining_path(self):
        ctx = make_context(k=2)
        plan = chain_plan(ctx, rate=100.0, nodes=[1, 2])
        slice_bytes = 12_500
        params = TransferParams(
            chunk_bytes=slice_bytes, slice_bytes=slice_bytes,
            slice_overhead_s=0.0, compute_s_per_byte=1e-9,
        )
        result = execute(plan, params)
        stage = slice_bytes / units.mbps_to_bytes_per_s(100.0)
        # node 2 combines + requester combines: 2 compute charges
        assert result.transfer_seconds == pytest.approx(2 * stage + 2 * 1e-9 * slice_bytes)

    def test_deeper_chain_is_slower(self):
        ctx = make_context(num_nodes=8, k=4)
        short = chain_plan(make_context(num_nodes=8, k=2), 100.0, [1, 2])
        long = chain_plan(ctx, 100.0, [1, 2, 3, 4])
        params = TransferParams(chunk_bytes=units.mib(4))
        assert (
            execute(long, params).transfer_seconds
            > execute(short, params).transfer_seconds
        )

    def test_remainder_slice(self):
        ctx = make_context(k=2)
        plan = chain_plan(ctx, rate=100.0, nodes=[1, 2])
        params = TransferParams(
            chunk_bytes=30_000, slice_bytes=12_500,
            slice_overhead_s=0.0, compute_s_per_byte=0.0,
        )
        result = execute(plan, params)
        rate = units.mbps_to_bytes_per_s(100.0)
        # slices 12500, 12500, 5000: hop 2's link is busy with the two
        # full slices until 3 stage times, then the short slice crosses
        assert result.transfer_seconds == pytest.approx(
            (2 + 2 - 1) * 12_500 / rate + 5_000 / rate
        )


class TestMultiPipeline:
    def test_star_pipeline(self):
        """k leaf children of R, each edge carries the full chunk."""
        ctx = make_context(k=3)
        edges = [Edge(h, 0, 100.0) for h in (1, 2, 3)]
        plan = RepairPlan(
            algorithm="test",
            context=ctx,
            pipelines=[Pipeline(0, Segment(0.0, 1.0), edges)],
        )
        params = TransferParams(
            chunk_bytes=units.mib(1), slice_bytes=None,
            slice_overhead_s=0.0, compute_s_per_byte=0.0,
        )
        result = execute(plan, params)
        assert result.transfer_seconds == pytest.approx(
            units.transfer_seconds(units.mib(1), 100.0)
        )
        assert result.bytes_moved == pytest.approx(3 * units.mib(1))

    def test_parallel_segments_overlap_in_time(self):
        """Two half-chunk pipelines run concurrently: the makespan equals
        one pipeline moving half the chunk (not the sum)."""
        ctx = make_context(num_nodes=8, k=2)
        halves = RepairPlan(
            algorithm="test", context=ctx,
            pipelines=[
                Pipeline(0, Segment(0.0, 0.5), [Edge(1, 2, 100.0), Edge(2, 0, 100.0)]),
                Pipeline(1, Segment(0.5, 1.0), [Edge(3, 4, 100.0), Edge(4, 0, 100.0)]),
            ],
        )
        single_half = RepairPlan(
            algorithm="test", context=ctx,
            pipelines=[Pipeline(0, Segment(0.0, 1.0),
                                [Edge(1, 2, 100.0), Edge(2, 0, 100.0)])],
        )
        params = TransferParams(
            chunk_bytes=units.mib(8), slice_bytes=None,
            slice_overhead_s=0.0, compute_s_per_byte=0.0,
        )
        t_half = execute(halves, params).transfer_seconds
        t_ref = execute(
            single_half,
            TransferParams(chunk_bytes=units.mib(4), slice_bytes=None,
                           slice_overhead_s=0.0, compute_s_per_byte=0.0),
        ).transfer_seconds
        assert t_half == pytest.approx(t_ref, rel=1e-9)

    def test_makespan_is_slowest_pipeline(self):
        ctx = make_context(num_nodes=8, k=2)
        plan = RepairPlan(
            algorithm="test", context=ctx,
            pipelines=[
                Pipeline(0, Segment(0.0, 0.5), [Edge(1, 2, 400.0), Edge(2, 0, 400.0)]),
                Pipeline(1, Segment(0.5, 1.0), [Edge(3, 4, 50.0), Edge(4, 0, 50.0)]),
            ],
        )
        params = TransferParams(chunk_bytes=units.mib(2))
        result = execute(plan, params)
        assert result.transfer_seconds == pytest.approx(max(result.pipeline_seconds))
        assert result.pipeline_seconds[1] > result.pipeline_seconds[0]

    def test_infeasible_plan_rejected(self):
        """Execution validates rates: oversubscribed plans fail loudly."""
        ctx = make_context(num_nodes=4, bw=100.0, k=2)
        plan = RepairPlan(
            algorithm="test", context=ctx,
            pipelines=[Pipeline(0, Segment(0.0, 1.0),
                                [Edge(1, 2, 200.0), Edge(2, 0, 200.0)])],
        )
        with pytest.raises(ValueError):
            execute(plan, TransferParams(chunk_bytes=1024))


class TestScalingShapes:
    """The monotonic shapes behind Experiments 4 and 5."""

    def _plan(self):
        ctx = make_context(k=2)
        return chain_plan(ctx, 100.0, [1, 2])

    def test_repair_time_decreases_with_slice_size(self):
        """Experiment 4's shape: per-slice overhead dominates small slices.

        (With a 64 MiB chunk and a protocol overhead of ~1 ms per slice,
        growing the slice monotonically reduces repair time across the
        paper's 2 KiB - 1 MiB range.)"""
        plan = self._plan()
        times = [
            execute(
                plan,
                TransferParams(chunk_bytes=units.mib(64), slice_bytes=units.kib(s),
                               slice_overhead_s=1e-3),
            ).transfer_seconds
            for s in (2, 8, 32, 128, 512, 1024)
        ]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_repair_time_increases_linearly_with_chunk_size(self):
        plan = self._plan()
        times = [
            execute(
                plan, TransferParams(chunk_bytes=units.mib(m))
            ).transfer_seconds
            for m in (4, 8, 16, 32, 64)
        ]
        assert all(a < b for a, b in zip(times, times[1:]))
        # near-linear: doubling the chunk ~doubles the time
        assert times[-1] / times[0] == pytest.approx(16, rel=0.05)


class TestDeepChains:
    def test_chain_deeper_than_recursion_limit(self):
        """RP-style path trees can exceed Python's recursion limit; the
        bottom-up sweep in ``_pipeline_makespan`` must stay iterative."""
        import sys

        depth = sys.getrecursionlimit() + 200
        ctx = make_context(num_nodes=depth + 1, k=depth)
        plan = chain_plan(ctx, rate=100.0, nodes=list(range(depth, 0, -1)))
        params = TransferParams(
            chunk_bytes=units.mib(1),
            slice_bytes=None,
            slice_overhead_s=0.0,
            compute_s_per_byte=0.0,
        )
        result = execute(plan, params)
        # store-and-forward over `depth` hops of the whole chunk
        hop = units.transfer_seconds(units.mib(1), 100.0)
        assert result.transfer_seconds == pytest.approx(depth * hop)
        assert result.bytes_moved == pytest.approx(units.mib(1) * depth)

    def test_iterative_matches_small_chain_with_overheads(self):
        """Same recurrence as before the rewrite on a small case."""
        ctx = make_context(k=3)
        plan = chain_plan(ctx, rate=200.0, nodes=[3, 2, 1])
        params = TransferParams(
            chunk_bytes=units.mib(2),
            slice_bytes=64 * units.KIB,
            slice_overhead_s=100e-6,
            compute_s_per_byte=1e-10,
        )
        result = execute(plan, params)
        assert np.isfinite(result.transfer_seconds)
        assert result.transfer_seconds > 0
        # three hops move the full segment each
        assert result.bytes_moved == pytest.approx(units.mib(2) * 3)
