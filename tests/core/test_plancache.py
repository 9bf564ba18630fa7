"""Plan cache: quantisation round-trip, LRU bounding, drift invalidation,
and the master integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import make_fixed_context
from repro.cluster.master import Master, StripeLocation
from repro.cluster.messages import BandwidthReport
from repro.core.plancache import PlanCache
from repro.ec.rs import RSCode
from repro.net import BandwidthSnapshot, RepairContext
from repro.repair import get_algorithm

from tests.conftest import random_context


def _pipelines_identical(a, b) -> None:
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.task_id == pb.task_id
        assert pa.segment.start == pb.segment.start
        assert pa.segment.stop == pb.segment.stop
        assert [(e.child, e.parent, e.rate) for e in pa.edges] == [
            (e.child, e.parent, e.rate) for e in pb.edges
        ]


def _rebased(ctx: RepairContext, up, down) -> RepairContext:
    return RepairContext(
        snapshot=BandwidthSnapshot(up, down),
        requester=ctx.requester,
        helpers=ctx.helpers,
        k=ctx.k,
        chunk_index=dict(ctx.chunk_index),
    )


class TestCacheCore:
    def setup_method(self):
        self.algo = get_algorithm("fullrepair")

    def test_miss_then_hit(self):
        cache = PlanCache()
        ctx = make_fixed_context(14, 10, seed=2023)
        p1 = cache.get_or_compute(self.algo, ctx)
        p2 = cache.get_or_compute(self.algo, ctx)
        assert p1.meta["plan_cache"] == "miss"
        assert p2.meta["plan_cache"] == "hit"
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert 0.0 < cache.stats.hit_rate < 1.0
        # plans are bound to the caller's context, not the floored one
        assert p1.context is ctx and p2.context is ctx
        _pipelines_identical(p1.pipelines, p2.pipelines)

    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_property(self, seed):
        """Cached plan == fresh plan on the quantised context, exactly."""
        rng = np.random.default_rng(seed)
        ctx = random_context(rng)
        cache = PlanCache()
        cached = cache.get_or_compute(self.algo, ctx)
        again = cache.get_or_compute(self.algo, ctx)
        fresh = self.algo.plan(cache.quantise(ctx))
        _pipelines_identical(cached.pipelines, fresh.pipelines)
        _pipelines_identical(again.pipelines, fresh.pipelines)

    def test_sub_quantum_jitter_hits_and_stays_feasible(self):
        ctx = make_fixed_context(14, 10, seed=2023)
        up0 = np.floor(ctx.snapshot.uplink)
        down0 = np.floor(ctx.snapshot.downlink)
        cache = PlanCache()
        cache.get_or_compute(self.algo, _rebased(ctx, up0, down0))
        jittered = _rebased(ctx, up0 + 0.7, down0 + 0.4)
        plan = cache.get_or_compute(self.algo, jittered)
        assert plan.meta["plan_cache"] == "hit"
        # floored rates must fit the exact (higher) snapshot
        plan.validate()

    def test_cross_quantum_change_misses(self):
        ctx = make_fixed_context(14, 10, seed=2023)
        up0 = np.floor(ctx.snapshot.uplink)
        down0 = np.floor(ctx.snapshot.downlink)
        cache = PlanCache()
        cache.get_or_compute(self.algo, _rebased(ctx, up0, down0))
        shifted = up0.copy()
        shifted[ctx.helpers[0]] += 1.0  # one full quantum
        plan = cache.get_or_compute(self.algo, _rebased(ctx, shifted, down0))
        assert plan.meta["plan_cache"] == "miss"

    def test_key_separates_roles_and_algorithms(self):
        ctx = make_fixed_context(14, 10, seed=2023)
        cache = PlanCache()
        cache.get_or_compute(self.algo, ctx)
        other = cache.get_or_compute(get_algorithm("pivotrepair"), ctx)
        assert other.meta["plan_cache"] == "miss"
        assert len(cache) == 2

    def test_lru_bound_and_evictions(self):
        cache = PlanCache(max_entries=3)
        for seed in range(6):
            cache.get_or_compute(self.algo, make_fixed_context(14, 10, seed=seed))
        assert len(cache) == 3
        assert cache.stats.evictions == 3

    def test_drift_invalidation(self):
        ctx = make_fixed_context(14, 10, seed=2023)
        cache = PlanCache()
        cache.get_or_compute(self.algo, ctx)
        node = ctx.helpers[0]
        up = float(ctx.snapshot.uplink[node])
        down = float(ctx.snapshot.downlink[node])
        # within tolerance: entry survives
        assert cache.observe_report(node, up * 1.01, down) == 0
        assert len(cache) == 1
        # beyond tolerance: entry dropped
        assert cache.observe_report(node, up * 2.0, down) == 1
        assert len(cache) == 0
        assert cache.stats.invalidations == 1
        assert cache.get_or_compute(self.algo, ctx).meta["plan_cache"] == "miss"

    def test_invalidate_node_and_clear(self):
        ctx = make_fixed_context(14, 10, seed=2023)
        cache = PlanCache()
        cache.get_or_compute(self.algo, ctx)
        assert cache.invalidate_node(ctx.requester) == 1
        assert len(cache) == 0
        cache.get_or_compute(self.algo, ctx)
        cache.clear()
        assert len(cache) == 0
        assert cache.invalidate_node(ctx.requester) == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)


class TestMasterIntegration:
    def _master(self):
        master = Master(
            RSCode(n=6, k=4),
            get_algorithm("fullrepair"),
            num_nodes=10,
        )
        master.plan_cache = PlanCache()
        for i in range(10):
            master.on_bandwidth_report(
                BandwidthReport(
                    node=i, uplink_mbps=500.0 + 20 * i, downlink_mbps=800.0 + 10 * i
                )
            )
        master.register_stripe(StripeLocation("s1", (0, 1, 2, 3, 4, 5)))
        return master

    def test_schedule_repair_hits_and_compiles(self):
        master = self._master()
        first = master.schedule_repair("s1", failed_node=2, requester=7)
        second = master.schedule_repair("s1", failed_node=2, requester=7)
        assert first.meta["plan_cache"] == "miss"
        assert second.meta["plan_cache"] == "hit"
        wire = dict(intervals=[(0, 1 << 20)], num_slices=16, repair_id="s1/r1")
        tasks = master.compile_tasks(second, "s1", lost_chunk=2, **wire)
        assert tasks and all(t.stripe_id == "s1" for t in tasks)
        # cached and fresh plans compile to identical transfer tasks
        assert tasks == master.compile_tasks(first, "s1", lost_chunk=2, **wire)

    def test_bandwidth_report_drift_invalidates(self):
        master = self._master()
        master.schedule_repair("s1", failed_node=2, requester=7)
        master.on_bandwidth_report(
            BandwidthReport(node=1, uplink_mbps=50.0, downlink_mbps=810.0)
        )
        plan = master.schedule_repair("s1", failed_node=2, requester=7)
        assert plan.meta["plan_cache"] == "miss"

    def test_without_cache_unchanged(self):
        master = Master(RSCode(n=6, k=4), get_algorithm("fullrepair"), num_nodes=10)
        for i in range(10):
            master.on_bandwidth_report(
                BandwidthReport(node=i, uplink_mbps=600.0, downlink_mbps=900.0)
            )
        master.register_stripe(StripeLocation("s1", (0, 1, 2, 3, 4, 5)))
        plan = master.schedule_repair("s1", failed_node=2, requester=7)
        assert "plan_cache" not in plan.meta

