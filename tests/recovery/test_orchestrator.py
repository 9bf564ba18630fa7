"""RecoveryOrchestrator: drain, budget, priority, determinism, dead-letters."""

import numpy as np
import pytest

from repro.cluster import ClusterSystem
from repro.cluster.system import ESCALATION_MARK
from repro.ec import RSCode
from repro.faults import FAILED
from repro.net import BandwidthSnapshot
from repro.obs import DivergenceMonitor, MetricsRegistry, Tracer
from repro.recovery import (
    RecoveryConfig,
    RecoveryOrchestrator,
    run_recovery_scenario,
)
from repro.recovery import orchestrator as orch_mod

pytestmark = pytest.mark.recovery


def make_system(num_nodes=8, n=4, k=2, chunk=4096, mbps=500.0, seed=0):
    sys_ = ClusterSystem(num_nodes, RSCode(n, k), slice_bytes=2048)
    sys_.set_bandwidth(BandwidthSnapshot.uniform(num_nodes, mbps))
    rng = np.random.default_rng(seed)
    payloads = {}

    def write(sid, placement):
        data = rng.integers(0, 256, (k, chunk), dtype=np.uint8)
        sys_.write_stripe(sid, data, placement=placement)
        payloads[sid] = data

    return sys_, write, payloads


class TestPriority:
    def test_double_loss_preempts_older_single_losses(self):
        """A 2-chunk-lost stripe is repaired before older 1-chunk-lost ones."""
        sys_, write, _ = make_system()
        write("single-0", (0, 4, 5, 6))
        write("single-1", (0, 5, 6, 7))
        write("double", (1, 2, 5, 6))
        orch = RecoveryOrchestrator(
            sys_, RecoveryConfig(max_concurrent=1, budget_fraction=0.5)
        )
        orch.start()
        sys_.events.schedule(0.001, lambda: sys_.fail_node(0))
        sys_.events.schedule(0.002, lambda: sys_.fail_node(1))
        sys_.events.schedule(0.003, lambda: sys_.fail_node(2))
        sys_.events.run()
        finished = [r.stripe_id for r in orch.records if r.status != FAILED]
        # single-0 was already in flight when the double loss landed; the
        # freed slot must then go to the exposed stripe, not the older queued
        # single-loss one
        assert finished[0] == "single-0"
        assert finished[1] == "double"
        assert "single-1" in finished[2:]
        assert [r for r in orch.records if r.stripe_id == "double"][0].priority_class == 2
        assert all(r.verified for r in orch.records if r.status != FAILED)

    def test_failure_listener_resorts_queued_backlog(self):
        """A queued single-loss stripe that loses chunk #2 jumps the line."""
        sys_, write, _ = make_system()
        write("a-older", (0, 4, 5, 6))
        write("b-jumper", (0, 1, 5, 6))
        orch = RecoveryOrchestrator(
            sys_, RecoveryConfig(max_concurrent=1, budget_fraction=0.5)
        )
        sys_.fail_node(0)  # both queued as class 1; "a-older" has lower seq
        assert orch.queue.stripe_ids() == ["a-older", "b-jumper"]
        sys_.fail_node(1)  # jumper becomes class 2 while still queued
        assert orch.queue.stripe_ids() == ["b-jumper", "a-older"]


class TestEndToEnd:
    def test_scenario_drains_inside_budget_and_verifies(self):
        sc = run_recovery_scenario(
            num_stripes=18,
            foreground_reads=120,
            chunk_bytes=8192,
            kills=((0, 0.001), (1, 0.004)),
            slo_latency_multiple=None,  # constant budget for the ±10% check
        )
        rep = sc.report
        assert rep.drained_at is not None
        assert rep.queue_depth == 0 and rep.inflight == 0
        assert rep.dead_letters == 0
        assert rep.repaired > 0 and rep.verified == rep.repaired
        # staggered second kill forces at least one multi-chunk repair
        assert any(r.priority_class >= 2 for r in sc.orchestrator.records)
        # a campaign keeps every record: no per-instance __dict__
        assert not any(hasattr(r, "__dict__") for r in sc.orchestrator.records)
        # budget compliance: committed stays under the cap at every tick
        # and averages within 10% of it while a backlog stands
        for _t, eff, committed, _inflight, _depth in sc.orchestrator.timeline:
            assert committed <= eff + 1e-9
        assert rep.peak_committed <= rep.budget_fraction + 1e-9
        assert rep.backlogged_committed == pytest.approx(
            rep.budget_fraction, rel=0.10
        )
        # every stripe healthy again, bytes byte-identical to the originals
        for sid, data in sc.payloads.items():
            loc = sc.system.master.stripe(sid)
            assert all(sc.system.is_alive(node) for node in loc.placement)
            for ci in range(data.shape[0]):
                assert np.array_equal(sc.system.read_chunk(sid, ci), data[ci])

    def test_scenario_is_deterministic_per_seed(self):
        def fingerprint():
            sc = run_recovery_scenario(
                num_stripes=12,
                foreground_reads=60,
                chunk_bytes=4096,
                kills=((0, 0.001), (1, 0.004)),
            )
            return (
                [
                    (r.stripe_id, r.priority_class, r.admitted_at,
                     r.finished_at, r.share, r.status, r.verified)
                    for r in sc.orchestrator.records
                ],
                [
                    (r.stripe_id, r.degraded, r.latency_s, r.ok)
                    for r in sc.foreground.reads
                ],
                sc.orchestrator.drained_at,
                sc.orchestrator.throttle,
            )

        assert fingerprint() == fingerprint()

    def test_different_seed_changes_the_run(self):
        a = run_recovery_scenario(num_stripes=8, foreground_reads=40,
                                  chunk_bytes=4096, seed=1)
        b = run_recovery_scenario(num_stripes=8, foreground_reads=40,
                                  chunk_bytes=4096, seed=2)
        assert [r.latency_s for r in a.foreground.reads] != [
            r.latency_s for r in b.foreground.reads
        ]

    def test_recovery_metrics_published(self):
        sc = run_recovery_scenario(
            num_stripes=12, foreground_reads=40, chunk_bytes=4096
        )
        names = {name for name, _fam in sc.metrics.families()}
        for expected in (
            "repro_recovery_queue_depth",
            "repro_recovery_queue_oldest_age_seconds",
            "repro_recovery_inflight",
            "repro_recovery_budget_fraction",
            "repro_recovery_budget_committed_fraction",
            "repro_recovery_enqueued_total",
            "repro_recovery_admitted_total",
            "repro_recovery_completed_total",
            "repro_recovery_repair_seconds",
            "repro_recovery_share_seconds_total",
            "repro_foreground_latency_seconds",
            "repro_foreground_reads_total",
        ):
            assert expected in names, expected
        assert sc.metrics.total("repro_recovery_admitted_total") >= 6

    def test_recovery_spans_and_events_emitted(self):
        sc = run_recovery_scenario(
            num_stripes=12, foreground_reads=40, chunk_bytes=4096
        )
        runs = sc.tracer.find(kind="recovery")
        assert len(runs) == 1
        events = {e.name for e in runs[0].events}
        assert {"recovery.failure", "recovery.admit",
                "recovery.complete", "recovery.drained"} <= events

    def test_queue_depth_feeds_a_wired_divergence_monitor(self):
        """Every tick scores the queue depth on the monitor's Page–Hinkley
        detector.  ``until`` returns the scenario before the kill fires,
        which is where a monitor can be wired into it."""
        sc = run_recovery_scenario(
            num_stripes=12, foreground_reads=40, chunk_bytes=4096, until=0.0005
        )
        monitor = DivergenceMonitor.standard(clock=lambda: sc.system.events.now)
        sc.system.divergence = monitor
        ticks_before = len(sc.orchestrator.timeline)
        sc.system.events.run()
        ticks = len(sc.orchestrator.timeline) - ticks_before
        assert sc.orchestrator.records and not sc.orchestrator.queue
        assert monitor.observations("recovery.queue_depth") == ticks > 0
        assert monitor.detector_name("recovery.queue_depth") == "page-hinkley"


class TestFailurePaths:
    def test_no_spare_requester_dead_letters_and_terminates(self):
        # the only node outside every placement is dead too: nothing can
        # host a rebuild, so the backlog must dead-letter, not spin
        sys_, write, _ = make_system(num_nodes=5, n=4, k=2)
        write("s0", (0, 1, 2, 3))
        orch = RecoveryOrchestrator(
            sys_, RecoveryConfig(max_concurrent=1)
        )
        orch.start()
        sys_.fail_node(4)
        sys_.fail_node(0)
        sys_.events.run()
        assert orch.dead_letters == {
            "s0": "no spare live node to rebuild onto"
        }
        assert not orch.active
        assert orch.drained_at is not None

    def test_beyond_tolerance_stripe_dead_letters(self):
        # n-k = 2 lost chunks is repairable, 3 is not: the orchestrator
        # must surface the planner's refusal instead of looping
        sys_, write, _ = make_system(num_nodes=8, n=4, k=2)
        write("s0", (0, 1, 2, 3))
        orch = RecoveryOrchestrator(
            sys_, RecoveryConfig(max_concurrent=1)
        )
        orch.start()
        for node in (0, 1, 2):
            sys_.fail_node(node)
        sys_.events.run()
        assert "s0" in orch.dead_letters
        assert not orch.active

    def test_healed_while_queued_is_skipped(self):
        sys_, write, payloads = make_system()
        write("s0", (0, 4, 5, 6))
        orch = RecoveryOrchestrator(sys_, RecoveryConfig(max_concurrent=1))
        sys_.fail_node(0)  # queued (orchestrator not started: no tick yet)
        # a degraded read with store=True heals the stripe out-of-band
        done = []
        orch_started = orch.start
        sys_.repair_async(
            "s0", 0, requester=7, store=True, on_done=done.append
        )
        sys_.events.run()
        assert done and done[0].verified
        orch_started()
        sys_.events.run()
        assert orch.skipped == 1
        assert orch.records == []

    def test_escalated_repair_requeues_uncharged_with_live_obs(self):
        """A second chunk dies under a single-chunk dispatch: the bounce
        is requeued without costing an attempt, counted and traced, and
        the stripe then heals through the multi-chunk path."""
        tracer, metrics = Tracer(), MetricsRegistry()
        sys_ = ClusterSystem(
            10, RSCode(6, 4), algorithm="conventional", slice_bytes=2048,
            tracer=tracer, metrics=metrics,
        )
        sys_.set_bandwidth(BandwidthSnapshot.uniform(10, 100.0))
        data = np.random.default_rng(0).integers(
            0, 256, (4, 32 * 1024), dtype=np.uint8
        )
        sys_.write_stripe("s0", data, placement=tuple(range(6)))
        orch = RecoveryOrchestrator(sys_, RecoveryConfig(tick_s=0.001))
        orch.start()
        sys_.events.schedule(0.001, lambda: sys_.fail_node(0))
        # node 5 holds a chunk the star plan (helpers 1-4) never reads
        sys_.events.schedule(0.003, lambda: sys_.fail_node(5))
        sys_.events.run()
        assert orch.requeues == 1 and not orch.dead_letters
        assert metrics.total("repro_recovery_requeued_total") == 1
        (run,) = tracer.find(kind="recovery")
        (requeue,) = [e for e in run.events if e.name == "recovery.requeue"]
        assert ESCALATION_MARK in requeue.attrs["reason"]
        assert requeue.attrs["attempts"] == 0
        assert [(r.priority_class, r.status, r.verified) for r in orch.records] == [
            (1, FAILED, False), (2, "completed", True),
        ]
        loc = sys_.master.stripe("s0")
        assert all(sys_.is_alive(node) for node in loc.placement)
        for ci in range(4):
            assert np.array_equal(sys_.read_chunk("s0", ci), data[ci])


@pytest.mark.parametrize(
    "field, value",
    [
        ("budget_fraction", 0.0), ("budget_fraction", 1.5),
        ("max_concurrent", 0), ("tick_s", 0.0),
        ("multi_deadline_s", 0.0), ("multi_deadline_s", -1.0),
    ],
)
def test_recovery_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        RecoveryConfig(**{field: value})


@pytest.mark.parametrize(
    "name, in_range",
    [
        ("THROTTLE_SHRINK", lambda v: 0.0 < v < 1.0),
        ("THROTTLE_RESTORE", lambda v: v > 1.0),
        ("THROTTLE_FLOOR", lambda v: 0.0 < v <= 1.0),
        ("MIN_SHARE_FRACTION", lambda v: 0.0 < v < 1.0),
        ("MAX_ITEM_ATTEMPTS", lambda v: isinstance(v, int) and v >= 1),
    ],
)
def test_loop_constants_in_range(name, in_range):
    # the bounds RecoveryConfig enforced while these were settable
    assert in_range(getattr(orch_mod, name))
