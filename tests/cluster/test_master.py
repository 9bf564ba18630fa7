"""Master: stripe metadata, bandwidth registry, context building."""

import numpy as np
import pytest

from repro.cluster import Master, StripeLocation
from repro.cluster.messages import BandwidthReport
from repro.core import FullRepair
from repro.ec import RSCode


@pytest.fixture
def master():
    m = Master(RSCode(5, 3), FullRepair(), num_nodes=8)
    m.register_stripe(StripeLocation("s1", (0, 1, 2, 3, 4)))
    for i in range(8):
        m.on_bandwidth_report(
            BandwidthReport(node=i, uplink_mbps=100.0 + i, downlink_mbps=200.0 + i)
        )
    return m


class TestStripeLocation:
    def test_lookup(self):
        loc = StripeLocation("s", (5, 3, 7))
        assert loc.node_of(1) == 3
        assert loc.chunk_on(7) == 2

    def test_chunk_on_missing(self):
        with pytest.raises(KeyError):
            StripeLocation("s", (5, 3, 7)).chunk_on(9)


class TestMaster:
    def test_register_validates_length(self, master):
        with pytest.raises(ValueError):
            master.register_stripe(StripeLocation("bad", (0, 1, 2)))

    def test_register_validates_distinct(self, master):
        with pytest.raises(ValueError):
            master.register_stripe(StripeLocation("bad", (0, 1, 2, 3, 3)))

    def test_bandwidth_snapshot(self, master):
        snap = master.snapshot()
        assert snap.uplink[3] == 103.0
        assert snap.downlink[5] == 205.0

    def test_build_context(self, master):
        ctx = master.build_context("s1", failed_node=2, requester=6)
        assert ctx.requester == 6
        assert set(ctx.helpers) == {0, 1, 3, 4}
        assert ctx.k == 3
        assert ctx.chunk_index[3] == 3

    def test_build_context_requires_failed_in_stripe(self, master):
        with pytest.raises(ValueError):
            master.build_context("s1", failed_node=7, requester=6)

    def test_build_context_requester_outside_stripe(self, master):
        with pytest.raises(ValueError):
            master.build_context("s1", failed_node=2, requester=0)

    def test_schedule_repair_returns_valid_plan(self, master):
        plan = master.schedule_repair("s1", failed_node=2, requester=6)
        plan.validate()
        assert plan.calc_seconds is not None

    def test_compile_tasks_cover_chunk(self, master):
        plan = master.schedule_repair("s1", failed_node=2, requester=6)
        tasks = master.compile_tasks(plan, "s1", lost_chunk=2, intervals=[(0, 1 << 20)],
                                     num_slices=16, repair_id="s1/r1")
        # per pipeline, k tasks (hub pipelines) or k (star) exist, and the
        # byte ranges of any one pipeline id are identical across tasks
        by_pipe = {}
        for t in tasks:
            by_pipe.setdefault(t.pipeline_id, []).append(t)
        for pid, group in by_pipe.items():
            assert len(group) == plan.context.k
            assert len({(t.start, t.stop) for t in group}) == 1
        # the union of pipeline ranges covers the chunk
        spans = sorted({(g[0].start, g[0].stop) for g in by_pipe.values()})
        assert spans[0][0] == 0
        assert spans[-1][1] == 1 << 20

    def test_compile_tasks_coefficients_repair(self, master):
        """The per-pipeline coefficients actually rebuild the lost chunk."""
        from repro.ec import gf256

        code = master.code
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, (3, 1024), dtype=np.uint8)
        stripe = code.encode(data)
        plan = master.schedule_repair("s1", failed_node=2, requester=6)
        tasks = master.compile_tasks(plan, "s1", lost_chunk=2, intervals=[(0, 1024)],
                                     num_slices=4, repair_id="s1/r1")
        rebuilt = np.zeros(1024, dtype=np.uint8)
        for t in tasks:
            contrib = gf256.mul_chunk(t.coeff, stripe[t.chunk_index][t.start:t.stop])
            rebuilt[t.start:t.stop] ^= contrib
        assert np.array_equal(rebuilt, stripe[2])

    @pytest.mark.parametrize("remainder", [[(256, 1024)], [(0, 100), (600, 1024)]],
                             ids=["tail", "two_spans"])
    def test_compile_tasks_cover_only_the_remainder(self, master, remainder):
        """Each pipeline repairs its share of what is left, and the
        coefficients still rebuild those bytes and no others."""
        from repro.ec import gf256

        stripe = master.code.encode(
            np.random.default_rng(1).integers(0, 256, (3, 1024), dtype=np.uint8))
        plan = master.schedule_repair("s1", failed_node=2, requester=6)
        tasks = master.compile_tasks(plan, "s1", lost_chunk=2, intervals=remainder,
                                     num_slices=4, repair_id="s1/r2")
        covered = np.zeros(1024, dtype=bool)
        rebuilt = np.zeros(1024, dtype=np.uint8)
        for t in tasks:
            covered[t.start:t.stop] = True
            rebuilt[t.start:t.stop] ^= gf256.mul_chunk(
                t.coeff, stripe[t.chunk_index][t.start:t.stop])
        wanted = np.zeros(1024, dtype=bool)
        for lo, hi in remainder:
            wanted[lo:hi] = True
        assert np.array_equal(covered, wanted)
        assert np.array_equal(rebuilt[wanted], stripe[2][wanted])

    def test_compile_tasks_requires_intervals(self, master):
        plan = master.schedule_repair("s1", failed_node=2, requester=6)
        with pytest.raises(TypeError, match="intervals"):
            master.compile_tasks(plan, "s1", lost_chunk=2, num_slices=4,
                                 repair_id="s1/r1")

    def test_an_empty_remainder_compiles_nothing(self, master):
        plan = master.schedule_repair("s1", failed_node=2, requester=6)
        for remainder in ([], [(512, 512)]):
            assert master.compile_tasks(plan, "s1", lost_chunk=2, intervals=remainder,
                                        num_slices=4, repair_id="s1/r1") == []


class TestRelocation:
    def test_relocate_updates_lookup(self, master):
        master.relocate_chunk("s1", 2, 7)
        assert master.stripe("s1").node_of(2) == 7
        assert master.stripe("s1").chunk_on(7) == 2
        assert "s1" in master.stripes_with_node(7)

    def test_relocate_rejects_conflicting_node(self, master):
        with pytest.raises(ValueError):
            master.relocate_chunk("s1", 2, 0)  # node 0 holds chunk 0

    def test_relocate_to_same_node_is_noop(self, master):
        master.relocate_chunk("s1", 2, 2)
        assert master.stripe("s1").node_of(2) == 2

    def test_repair_relocates_metadata(self, master):
        """After repair(store=True) reads route to the replacement."""
        import numpy as np

        from repro.cluster import ClusterSystem
        from repro.ec import RSCode
        from repro.workloads import make_trace

        sys_ = ClusterSystem(8, RSCode(5, 3), slice_bytes=2048)
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, (3, 8192), dtype=np.uint8)
        sys_.write_stripe("x", data, placement=(0, 1, 2, 3, 4))
        sys_.set_bandwidth(
            make_trace("tpcds", num_nodes=8, num_snapshots=10, seed=1).snapshot(5)
        )
        sys_.fail_node(1)
        sys_.repair("x", failed_node=1, requester=6)
        assert sys_.master.stripe("x").node_of(1) == 6
        assert np.array_equal(sys_.read_chunk("x", 1), data[1])


class TestLiveness:
    def test_report_from_unregistered_node_rejected(self, master):
        from repro.cluster.master import UnknownNodeError

        with pytest.raises(UnknownNodeError, match="not registered"):
            master.on_bandwidth_report(
                BandwidthReport(node=42, uplink_mbps=10.0, downlink_mbps=10.0)
            )

    def test_report_from_dead_node_rejected(self, master):
        from repro.cluster.master import DeadNodeError

        master.mark_node_dead(3)
        with pytest.raises(DeadNodeError, match="dead node 3"):
            master.on_bandwidth_report(
                BandwidthReport(node=3, uplink_mbps=10.0, downlink_mbps=10.0)
            )

    def test_mark_node_live_rejoins(self, master):
        master.mark_node_dead(3)
        assert master.is_node_dead(3)
        assert master.dead_nodes() == (3,)
        master.mark_node_live(3)
        assert not master.is_node_dead(3)
        master.on_bandwidth_report(
            BandwidthReport(node=3, uplink_mbps=55.0, downlink_mbps=66.0)
        )
        assert master.snapshot().uplink[3] == 55.0

    def test_build_context_excludes_dead_helpers(self, master):
        master.mark_node_dead(1)
        ctx = master.build_context("s1", failed_node=0, requester=6)
        assert 1 not in ctx.helpers
        assert set(ctx.helpers) == {2, 3, 4}

    def test_build_context_dead_requester_rejected(self, master):
        from repro.cluster.master import DeadNodeError

        master.mark_node_dead(6)
        with pytest.raises(DeadNodeError, match="requester 6 is dead"):
            master.build_context("s1", failed_node=0, requester=6)

    def test_too_few_live_helpers_is_repair_impossible(self, master):
        from repro.cluster.master import RepairImpossibleError

        master.mark_node_dead(1)
        master.mark_node_dead(2)
        with pytest.raises(RepairImpossibleError, match="need k=3"):
            master.build_context("s1", failed_node=0, requester=6)


class TestLeases:
    def test_lease_config_validation(self, master):
        with pytest.raises(ValueError):
            master.configure_lease(0.0)

    def test_leases_disabled_by_default(self, master):
        assert master.check_leases(now=1e9) == []

    def test_lease_expiry_declares_node_dead(self):
        m = Master(RSCode(5, 3), FullRepair(), num_nodes=8)
        m.configure_lease(0.1)
        for i in range(4):
            m.on_bandwidth_report(
                BandwidthReport(node=i, uplink_mbps=100.0, downlink_mbps=100.0),
                now=0.0,
            )
        m.on_bandwidth_report(
            BandwidthReport(node=0, uplink_mbps=100.0, downlink_mbps=100.0),
            now=0.5,
        )
        expired = m.check_leases(now=0.55)
        assert expired == [1, 2, 3]
        assert m.dead_nodes() == (1, 2, 3)
        assert not m.is_node_dead(0)

    def test_never_reported_nodes_are_not_leased(self):
        m = Master(RSCode(5, 3), FullRepair(), num_nodes=8)
        m.configure_lease(0.1)
        m.on_bandwidth_report(
            BandwidthReport(node=0, uplink_mbps=100.0, downlink_mbps=100.0),
            now=0.0,
        )
        assert m.check_leases(now=10.0) == [0]
        # nodes 1..7 never reported: not declared dead
        assert m.dead_nodes() == (0,)

    def test_lease_false_positive_heals_on_rejoin(self):
        m = Master(RSCode(5, 3), FullRepair(), num_nodes=8)
        m.configure_lease(0.1)
        m.on_bandwidth_report(
            BandwidthReport(node=2, uplink_mbps=100.0, downlink_mbps=100.0),
            now=0.0,
        )
        assert m.check_leases(now=1.0) == [2]
        m.mark_node_live(2)
        m.on_bandwidth_report(
            BandwidthReport(node=2, uplink_mbps=80.0, downlink_mbps=90.0),
            now=1.0,
        )
        assert not m.is_node_dead(2)
        assert m.check_leases(now=1.05) == []


class TestFallbackLadder:
    def test_promotion_reuses_previous_plan_shape(self):
        from repro.repair import get_algorithm

        m = Master(RSCode(5, 3), get_algorithm("rp"), num_nodes=8)
        m.register_stripe(StripeLocation("s1", (0, 1, 2, 3, 4)))
        for i in range(8):
            m.on_bandwidth_report(
                BandwidthReport(node=i, uplink_mbps=100.0, downlink_mbps=100.0)
            )
        prev = m.schedule_repair("s1", failed_node=0, requester=6)
        victim = prev.pipelines[0].participants[0]
        m.mark_node_dead(victim)
        dead = m.dead_nodes()
        promoted = m.schedule_repair(
            "s1", failed_node=0, requester=6, prev_plan=prev, newly_dead=dead
        )
        promoted.validate()
        assert promoted.meta.get("recovery") == "promoted"
        assert victim in promoted.meta["promoted"]
        for pipeline in promoted.pipelines:
            assert not set(pipeline.participants) & set(dead)
        # tree shape preserved: same number of pipelines and edges
        assert len(promoted.pipelines) == len(prev.pipelines)
        assert [len(p.edges) for p in promoted.pipelines] == [
            len(p.edges) for p in prev.pipelines
        ]

    def test_replan_without_prev_plan(self, master):
        master.mark_node_dead(1)
        plan = master.schedule_repair("s1", failed_node=0, requester=6)
        plan.validate()
        for pipeline in plan.pipelines:
            assert 1 not in pipeline.participants

    def test_every_rung_fails_raises_repair_impossible(self, master):
        from repro.cluster.master import RepairImpossibleError

        master.mark_node_dead(1)
        master.mark_node_dead(2)
        with pytest.raises(RepairImpossibleError):
            master.schedule_repair("s1", failed_node=0, requester=6)
