"""Repair under bandwidth drift."""

import numpy as np
import pytest

from repro.net import BandwidthSnapshot, units
from repro.repair import get_algorithm
from repro.sim import simulate_under_drift
from repro.sim.dynamics import _interval_progress
from repro.workloads import Trace, make_trace


def flat_trace(num_nodes=8, bw=400.0, length=100):
    return Trace(
        workload="flat",
        capacity_mbps=1000.0,
        uplink=np.full((length, num_nodes), bw),
        downlink=np.full((length, num_nodes), bw),
    )


def run(algorithm, trace, *, chunk=units.mib(64), replan=None, start=0,
        helpers=tuple(range(1, 7)), k=4, requester=7):
    return simulate_under_drift(
        get_algorithm(algorithm), trace, start_instant=start,
        requester=requester, helpers=helpers, k=k, chunk_bytes=chunk,
        replan_interval_s=replan,
    )


class TestFlatTrace:
    def test_matches_ideal_time_on_constant_bandwidth(self):
        """No drift: drift-sim time == chunk / plan-rate + calc."""
        trace = flat_trace()
        res = run("pivotrepair", trace)
        assert res.completed
        # uniform 400 Mbps, 6 helpers, k=4: single pipeline at 400
        expected = units.transfer_seconds(units.mib(64), 400.0)
        assert res.seconds == pytest.approx(expected, rel=0.01)

    def test_fullrepair_faster_than_single_pipeline(self):
        # fat requester downlink: aggregate throughput beats any single
        # pipeline (which is capped by the 300 Mbps helper links)
        up = np.full((100, 8), 300.0)
        down = np.full((100, 8), 300.0)
        down[:, 7] = 1000.0
        trace = Trace(workload="flat", capacity_mbps=1000.0, uplink=up, downlink=down)
        t_full = run("fullrepair", trace).seconds
        t_tree = run("pivotrepair", trace).seconds
        assert t_full < t_tree

    def test_replan_noop_on_stable_bandwidth(self):
        trace = flat_trace(length=300)
        static = run("fullrepair", trace, chunk=units.mib(512))
        adaptive = run("fullrepair", trace, chunk=units.mib(512), replan=2.0)
        # replans happen but cannot improve a stationary optimum
        assert adaptive.replans > 0
        assert adaptive.seconds == pytest.approx(
            static.seconds, rel=0.02, abs=adaptive.calc_seconds_total + 0.05
        )


class TestDrift:
    @pytest.fixture(scope="class")
    def swim_trace(self):
        return make_trace("swim", num_nodes=16, num_snapshots=1500, seed=3)

    def _args(self, trace):
        rng = np.random.default_rng(1)
        nodes = rng.permutation(16)
        start = int(trace.congested_instants()[200])
        return dict(
            helpers=tuple(int(x) for x in nodes[1:9]),
            requester=int(nodes[9]),
            k=6,
            start=start,
        )

    def test_replanning_helps_under_drift(self, swim_trace):
        kw = self._args(swim_trace)
        static = run("fullrepair", swim_trace, chunk=units.mib(1024), **kw)
        adaptive = run(
            "fullrepair", swim_trace, chunk=units.mib(1024), replan=3.0, **kw
        )
        assert static.completed and adaptive.completed
        assert adaptive.replans > 0
        assert adaptive.seconds < static.seconds

    def test_goodput_trace_recorded(self, swim_trace):
        kw = self._args(swim_trace)
        res = run("rp", swim_trace, chunk=units.mib(256), **kw)
        assert res.goodput_mbps
        assert all(g >= 0 for g in res.goodput_mbps)

    def test_timeout_reports_incomplete(self):
        dead = Trace(
            workload="dead",
            capacity_mbps=1000.0,
            uplink=np.zeros((50, 8)),
            downlink=np.zeros((50, 8)),
        )
        # schedule against a healthy first instant, then everything dies
        start_ok = flat_trace(length=1)
        mixed = Trace(
            workload="mixed",
            capacity_mbps=1000.0,
            uplink=np.vstack([start_ok.uplink, dead.uplink]),
            downlink=np.vstack([start_ok.downlink, dead.downlink]),
        )
        res = simulate_under_drift(
            get_algorithm("rp"), mixed, start_instant=0, requester=7,
            helpers=tuple(range(1, 7)), k=4, chunk_bytes=units.mib(64),
            max_seconds=30.0,
        )
        assert not res.completed
        assert res.stalled_intervals > 0

    def test_bad_start_instant(self):
        with pytest.raises(ValueError):
            run("rp", flat_trace(length=10), start=99)


class TestIntervalProgress:
    def test_partial_capacity_slows_flows(self):
        from repro.net import RepairContext
        from repro.repair.plan import Edge, Pipeline, RepairPlan, Segment

        snap_full = BandwidthSnapshot.uniform(4, 100.0)
        ctx = RepairContext(
            snapshot=snap_full, requester=0, helpers=(1, 2, 3), k=2
        )
        plan = RepairPlan(
            "t", ctx,
            [Pipeline(0, Segment(0, 1), [Edge(1, 2, 100.0), Edge(2, 0, 100.0)])],
        )
        remaining = {0: units.mib(10)}
        degraded = BandwidthSnapshot.uniform(4, 50.0)
        step, moved = _interval_progress(plan, degraded, remaining, 1.0)
        assert step == 1.0
        assert moved == pytest.approx(units.mbps_to_bytes_per_s(50.0))

    def test_finished_pipeline_ignored(self):
        from repro.net import RepairContext
        from repro.repair.plan import Edge, Pipeline, RepairPlan, Segment

        snap = BandwidthSnapshot.uniform(4, 100.0)
        ctx = RepairContext(snapshot=snap, requester=0, helpers=(1, 2, 3), k=2)
        plan = RepairPlan(
            "t", ctx,
            [Pipeline(0, Segment(0, 1), [Edge(1, 2, 100.0), Edge(2, 0, 100.0)])],
        )
        step, moved = _interval_progress(plan, snap, {0: 0.0}, 1.0)
        assert step == 0.0 and moved == 0.0


class TestInjectedFaults:
    def test_dead_helper_stalls_with_fault_cause(self):
        """A crashed helper with no re-planning pins its pipeline at zero
        progress; the stall records name the fault, not congestion."""
        trace = flat_trace()
        res = simulate_under_drift(
            get_algorithm("rp"), trace, start_instant=0, requester=7,
            helpers=(1, 2, 3, 4), k=4, chunk_bytes=units.mib(64),
            dead_from={1: 0.5}, stall_deadline_s=5.0,
        )
        assert not res.completed
        assert res.timed_out
        assert res.stalled_intervals > 0
        assert res.stalled_intervals == len(res.stalls)
        assert all(s.cause == "fault" for s in res.stalls)

    def test_congestion_stall_keeps_congestion_cause(self):
        """Zero bandwidth everywhere (no injected fault) stalls with the
        congestion cause."""
        flat = flat_trace()
        up, down = flat.uplink.copy(), flat.downlink.copy()
        up[5:] = 0.0
        down[5:] = 0.0
        trace = Trace(workload="flat", capacity_mbps=1000.0, uplink=up, downlink=down)
        res = simulate_under_drift(
            get_algorithm("rp"), trace, start_instant=0, requester=7,
            helpers=tuple(range(1, 7)), k=4, chunk_bytes=units.mib(4096),
            stall_deadline_s=3.0,
        )
        assert res.timed_out and not res.completed
        assert res.stalls and all(s.cause == "congestion" for s in res.stalls)

    def test_stall_deadline_bounds_runtime(self):
        """Without the deadline a dead helper grinds to max_seconds; with
        it the sim gives up as soon as the stall budget is spent."""
        trace = flat_trace(length=10)
        kw = dict(
            start_instant=0, requester=7, helpers=(1, 2, 3, 4), k=4,
            chunk_bytes=units.mib(64), dead_from={1: 0.5},
        )
        bounded = simulate_under_drift(
            get_algorithm("rp"), trace, stall_deadline_s=4.0, **kw
        )
        unbounded = simulate_under_drift(
            get_algorithm("rp"), trace, max_seconds=60.0, **kw
        )
        assert bounded.timed_out
        assert bounded.seconds < unbounded.seconds
        assert not unbounded.timed_out  # hit max_seconds, not the deadline

    def test_replanning_routes_around_the_crash(self):
        """With re-planning enabled the scheduler drops the dead helper
        at the next period and the repair completes."""
        trace = flat_trace(length=200)
        res = simulate_under_drift(
            get_algorithm("fullrepair"), trace, start_instant=0, requester=7,
            helpers=tuple(range(1, 7)), k=4, chunk_bytes=units.mib(64),
            dead_from={1: 0.5}, replan_interval_s=1.0, stall_deadline_s=30.0,
        )
        assert res.completed
        assert res.replans >= 1

    def test_straggler_cap_slows_completion(self):
        trace = flat_trace()
        clean = run("rp", trace)
        capped = simulate_under_drift(
            get_algorithm("rp"), trace, start_instant=0, requester=7,
            helpers=(1, 2, 3, 4), k=4, chunk_bytes=units.mib(64),
            node_rate_caps={1: 50.0, 2: 50.0},
        )
        assert capped.completed
        assert capped.seconds > clean.seconds

    def test_invalid_stall_deadline_rejected(self):
        with pytest.raises(ValueError):
            simulate_under_drift(
                get_algorithm("rp"), flat_trace(), start_instant=0,
                requester=7, helpers=tuple(range(1, 7)), k=4,
                chunk_bytes=units.mib(1), stall_deadline_s=0.0,
            )

    def test_fault_plus_congestion_reports_mixed_cause(self):
        """A dead helper AND starved healthy pipelines in the same
        interval: the stall cause is ``"mixed"``, not a fault that
        silently masks the concurrent congestion."""
        # fat requester downlink so fullrepair builds several pipelines
        # over *different* 4-of-6 helper subsets; instant 0 is healthy
        # (the plan schedules there), everything after carries nothing
        up = np.full((10, 8), 300.0)
        down = np.full((10, 8), 300.0)
        down[:, 7] = 1000.0
        up[1:] = 0.0
        down[1:] = 0.0
        trace = Trace(
            workload="mixed", capacity_mbps=1000.0, uplink=up, downlink=down
        )
        res = simulate_under_drift(
            get_algorithm("fullrepair"), trace, start_instant=0,
            requester=7, helpers=tuple(range(1, 7)), k=4,
            chunk_bytes=units.mib(512), dead_from={6: 0.5},
            stall_deadline_s=3.0,
        )
        assert res.timed_out and not res.completed
        assert res.stalls
        assert all(s.cause == "mixed" for s in res.stalls)


class TestDetectReplan:
    """``replan_on="detect"``: re-planning driven by divergence alarms."""

    def _swim_kwargs(self, **over):
        kw = dict(
            start_instant=0, requester=9, helpers=tuple(range(6)), k=4,
            chunk_bytes=units.mib(2048), interval_s=1.0,
            stall_deadline_s=120.0,
        )
        kw.update(over)
        return kw

    def test_flat_trace_never_alarms(self):
        """False-positive floor: a stationary plan raises no alarms and
        triggers no re-plans."""
        res = simulate_under_drift(
            get_algorithm("fullrepair"), flat_trace(num_nodes=10, length=400),
            replan_on="detect",
            **self._swim_kwargs(chunk_bytes=units.mib(512)),
        )
        assert res.completed
        assert res.alarms == 0 and res.alarm_seconds == []
        assert res.replans == 0

    def test_dead_helper_alarms_and_beats_never_replan(self):
        """A helper dying mid-repair is detected within a bounded number
        of intervals and the alarm-triggered re-plan routes around it."""
        trace = make_trace("swim", num_nodes=10, num_snapshots=400, seed=3)
        kw = self._swim_kwargs(dead_from={2: 5.0})
        never = simulate_under_drift(get_algorithm("fullrepair"), trace, **kw)
        detect = simulate_under_drift(
            get_algorithm("fullrepair"), trace,
            replan_on="detect", replan_interval_s=15.0, **kw,
        )
        assert detect.completed
        assert detect.alarms >= 1
        # detection latency: first alarm within a handful of intervals
        assert 5.0 < detect.alarm_seconds[0] <= 25.0
        assert detect.replans >= 1
        assert detect.seconds < never.seconds

    def test_interval_mode_records_no_alarms(self):
        trace = make_trace("swim", num_nodes=10, num_snapshots=400, seed=3)
        res = simulate_under_drift(
            get_algorithm("fullrepair"), trace, replan_interval_s=3.0,
            **self._swim_kwargs(),
        )
        assert res.alarms == 0 and res.alarm_seconds == []

    def test_custom_detector_is_honoured(self):
        """A caller-supplied detector replaces the default ref-scored
        CUSUM — here one so insensitive it never fires."""
        from repro.obs.detect import CUSUMDetector

        trace = make_trace("swim", num_nodes=10, num_snapshots=400, seed=3)
        numb = CUSUMDetector(k=0.5, h=1e9, ref=1.0, direction="down")
        res = simulate_under_drift(
            get_algorithm("fullrepair"), trace,
            replan_on="detect", detector=numb,
            **self._swim_kwargs(dead_from={2: 5.0}),
        )
        assert res.alarms == 0
        assert res.replans == 0

    def test_invalid_replan_on_rejected(self):
        with pytest.raises(ValueError):
            simulate_under_drift(
                get_algorithm("rp"), flat_trace(), start_instant=0,
                requester=7, helpers=tuple(range(1, 7)), k=4,
                chunk_bytes=units.mib(1), replan_on="sometimes",
            )
