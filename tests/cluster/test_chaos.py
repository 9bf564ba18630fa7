"""Chaos harness: seeded random fault schedules against a (14,10) code.

Every schedule must terminate (the event queue drains; the watchdog and
``max_attempts`` bound every retry loop) with either a byte-exact
recovered chunk or an explicit ``failed`` verdict carrying a reason —
never a hang, never silent corruption.

The tier-1 run replays a fixed default seed set; scale up with
``CHAOS_ITERATIONS=<n> pytest -m chaos``.  Any failure reproduces from
its seed alone (`FaultInjector.random_schedule` is deterministic).
"""

import os

import numpy as np
import pytest

from repro.cluster import ClusterSystem
from repro.ec import RSCode
from repro.faults import DEGRADED, FAILED, REPAIR_STATUSES, FaultInjector
from repro.obs import FleetAggregator, MetricsRegistry, SLOEngine, Tracer, parse_rules

pytestmark = pytest.mark.chaos

NUM_NODES = 18
REQUESTER = 16
FAILED_NODE = 3
CHUNK = 16 * 1024
ITERATIONS = int(os.environ.get("CHAOS_ITERATIONS", "200"))


def make_system(seed, **sinks):
    sys_ = ClusterSystem(NUM_NODES, RSCode(14, 10), algorithm="fullrepair",
                         slice_bytes=4096, **sinks)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (10, CHUNK), dtype=np.uint8)
    sys_.write_stripe("s1", data, placement=tuple(range(14)))
    uplink = rng.uniform(200.0, 1000.0, NUM_NODES)
    downlink = rng.uniform(200.0, 1000.0, NUM_NODES)
    from repro.net import BandwidthSnapshot

    sys_.set_bandwidth(BandwidthSnapshot(uplink=uplink, downlink=downlink))
    return sys_, data


def run_one(seed, **sinks):
    sys_, data = make_system(seed, **sinks)
    sys_.fail_node(FAILED_NODE)
    injector = FaultInjector.random_schedule(
        seed,
        nodes=range(NUM_NODES),
        horizon_s=0.05,
        max_faults=3,
        max_crashes=2,
        protected=(REQUESTER,),
    )
    sys_.enable_heartbeats(period_s=0.01)
    out = sys_.repair(
        "s1", FAILED_NODE, requester=REQUESTER,
        injector=injector, on_failure="outcome", store=False,
    )
    return sys_, data, injector, out


@pytest.mark.parametrize("seed", range(ITERATIONS))
def test_random_schedule_terminates_correctly(seed):
    _, data, injector, out = run_one(seed)
    assert len(injector.log.fired) <= injector.log.armed
    assert out.status in REPAIR_STATUSES
    if out.status == FAILED:
        # explicit verdict: a reason, no phantom chunk
        assert out.failure_reason
        assert out.rebuilt is None and not out.verified
    else:
        # anything else must be byte-exact — no silent corruption
        assert out.verified
        assert np.array_equal(out.rebuilt, data[FAILED_NODE])
    assert out.attempts >= 1
    assert out.bytes_received >= 0


def test_same_seed_reproduces_identical_outcome():
    _, _, inj_a, out_a = run_one(11)
    _, _, inj_b, out_b = run_one(11)
    assert inj_a.faults == inj_b.faults
    assert (out_a.status, out_a.attempts, out_a.retries, out_a.replans) == (
        out_b.status, out_b.attempts, out_b.retries, out_b.replans
    )
    assert out_a.elapsed_seconds == out_b.elapsed_seconds
    assert out_a.bytes_received == out_b.bytes_received


@pytest.mark.parametrize("seed", range(ITERATIONS))
def test_traced_schedule_explains_every_outcome(seed):
    """Satellite of the observability PR: replay the schedule with a live
    tracer/registry and demand a per-seed metrics snapshot plus — for any
    failed or degraded outcome — a non-empty trace that explains it."""
    tracer, metrics = Tracer(), MetricsRegistry()
    _, _, injector, out = run_one(seed, tracer=tracer, metrics=metrics)

    # per-seed metrics snapshot: outcome, timing, and fault activity
    snap = metrics.snapshot()
    assert metrics.total("repro_repairs_total") == 1
    assert metrics.get("repro_repairs_total", status=out.status).value == 1
    assert snap["repro_repair_seconds"][()]["count"] == 1
    assert metrics.total("repro_faults_injected_total") == len(injector.log.fired)
    assert metrics.total("repro_replans_total") == out.replans
    assert metrics.total("repro_retries_total") == out.retries

    # the trace must carry the same story
    repairs = tracer.find(kind="repair")
    assert len(repairs) == 1
    root = repairs[0]
    assert root.attrs["status"] == out.status
    assert root.attrs["attempts"] == out.attempts
    if out.status in (FAILED, DEGRADED):
        assert out.failure_reason
        assert root.attrs["failure_reason"] == out.failure_reason
        # a non-empty event stream explains *why*: something observable
        # went wrong before the verdict
        names = set(tracer.event_names())
        assert names & {
            "fault.injected", "node.crash", "watchdog.fire",
            "attempt.abort", "planning.failed", "repair.escalate",
            "ladder.promotion", "ladder.star-fallback",
        }, f"no explanatory events for {out.status}: {out.failure_reason}"


def test_tracing_does_not_perturb_outcomes():
    """Spans and metrics are recorded off the simulated clock; enabling
    them must leave every scheduling decision byte-identical."""
    for seed in (0, 11, 23):
        _, _, _, plain = run_one(seed)
        _, _, _, traced = run_one(seed, tracer=Tracer(), metrics=MetricsRegistry())
        assert (
            plain.status, plain.attempts, plain.retries, plain.replans,
            plain.elapsed_seconds, plain.bytes_received,
        ) == (
            traced.status, traced.attempts, traced.retries, traced.replans,
            traced.elapsed_seconds, traced.bytes_received,
        )


class _KeepsSamples(FleetAggregator):
    """A fleet aggregator that also keeps every raw sample, by metric."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.samples: dict[str, list[float]] = {}

    def observe(self, metric, value, t=None, **labels):
        self.samples.setdefault(metric, []).append(value)
        super().observe(metric, value, t, **labels)


def test_end_of_repair_numbers_agree_across_sinks():
    """With all four sinks live, the fleet and the registry read one
    computation of each repair's time, achieved throughput and ratio to
    t_max: a chaos repair that re-plans after a crash, then a second
    repair on its cluster that a still-armed crash escalates."""
    tracer, metrics = Tracer(), MetricsRegistry()
    fleet = _KeepsSamples(window_s=1.0)
    slo = SLOEngine(fleet, parse_rules(["p99 repro_repair_seconds < 1"]),
                    tracer=tracer, metrics=metrics)
    sys_, _, _, first = run_one(
        114, tracer=tracer, metrics=metrics, fleet=fleet, slo=slo
    )
    second = sys_.repair("s1", FAILED_NODE, requester=REQUESTER,
                         on_failure="outcome", store=False)
    outcomes = [first, second]
    assert [(o.status, o.replans > 0, o.verified) for o in outcomes] == [
        ("completed", True, True), ("escalated", True, True),
    ]

    seconds = fleet.samples["repro_repair_seconds"]
    assert seconds == [o.elapsed_seconds for o in outcomes]
    histogram = metrics.get("repro_repair_seconds")
    assert (histogram.count, histogram.sum) == (2, sum(seconds))
    for name in ("repro_achieved_mbps", "repro_throughput_ratio"):
        assert len(fleet.samples[name]) == 2
        assert metrics.get(name).value == fleet.samples[name][-1]
    assert fleet.samples["repro_throughput_ratio"][-1] == pytest.approx(
        fleet.samples["repro_achieved_mbps"][-1]
        / metrics.get("repro_t_max_mbps").value
    )
    assert slo.status() == {"repro_repair_seconds": True}  # evaluated at repair end


def test_chaos_outcomes_are_mostly_recoverable():
    """Sanity on the harness itself: with at most 2 extra crashes against
    a code tolerating 4 losses, the vast majority of schedules recover."""
    statuses = [run_one(seed)[3].status for seed in range(40)]
    recovered = sum(s != FAILED for s in statuses)
    assert recovered >= 30


# ---- silent corruption in the fault mix -------------------------------- #


def run_one_corrupted(seed, tracer=None, metrics=None):
    """`run_one` with bit rot, torn writes and wire corruption enabled."""
    sys_, data = make_system(seed, tracer=tracer, metrics=metrics)
    sys_.fail_node(FAILED_NODE)
    injector = FaultInjector.random_schedule(
        seed,
        nodes=range(NUM_NODES),
        horizon_s=0.05,
        max_faults=4,
        max_crashes=2,
        protected=(REQUESTER,),
        corruption=True,
    )
    sys_.enable_heartbeats(period_s=0.01)
    out = sys_.repair(
        "s1", FAILED_NODE, requester=REQUESTER,
        injector=injector, on_failure="outcome", store=False,
    )
    return sys_, data, injector, out


@pytest.mark.integrity
@pytest.mark.parametrize("seed", range(ITERATIONS))
def test_corruption_schedule_never_silently_corrupts(seed):
    """The chaos invariant survives an adversary that flips bits: every
    schedule still ends byte-exact or explicitly failed, and whatever
    was quarantined along the way was both detected and recorded."""
    sys_, data, injector, out = run_one_corrupted(seed)
    assert out.status in REPAIR_STATUSES
    if out.status == FAILED:
        assert out.failure_reason
        assert out.rebuilt is None and not out.verified
    else:
        assert out.verified
        assert np.array_equal(out.rebuilt, data[FAILED_NODE])
    if out.quarantined_chunks:
        assert out.corruption_detected
        for ci in out.quarantined_chunks:
            assert sys_.master.is_quarantined("s1", ci)


@pytest.mark.integrity
def test_corruption_schedule_reproduces_identical_outcome():
    _, _, inj_a, out_a = run_one_corrupted(17)
    _, _, inj_b, out_b = run_one_corrupted(17)
    assert inj_a.faults == inj_b.faults
    assert (
        out_a.status, out_a.attempts, out_a.retries, out_a.replans,
        out_a.elapsed_seconds, out_a.bytes_received,
        out_a.corruption_detected, out_a.quarantined_chunks,
    ) == (
        out_b.status, out_b.attempts, out_b.retries, out_b.replans,
        out_b.elapsed_seconds, out_b.bytes_received,
        out_b.corruption_detected, out_b.quarantined_chunks,
    )


@pytest.mark.integrity
def test_corruption_chaos_exercises_detection():
    """The new fault kinds must actually fire *during* repairs and be
    caught — otherwise the seeds above are testing dead schedules.  A
    tight horizon packs the faults into the repair's lifetime."""
    detected = quarantined = 0
    for seed in range(60):
        sys_, data, = make_system(seed)
        sys_.fail_node(FAILED_NODE)
        injector = FaultInjector.random_schedule(
            seed, nodes=range(NUM_NODES), horizon_s=0.004, max_faults=4,
            max_crashes=1, protected=(REQUESTER,), corruption=True,
        )
        sys_.enable_heartbeats(period_s=0.01)
        out = sys_.repair(
            "s1", FAILED_NODE, requester=REQUESTER,
            injector=injector, on_failure="outcome", store=False,
        )
        if out.status != FAILED:
            assert out.verified
            assert np.array_equal(out.rebuilt, data[FAILED_NODE])
        detected += bool(out.corruption_detected)
        quarantined += bool(out.quarantined_chunks)
    assert detected >= 8
    assert quarantined >= 4


# ---- orchestrated recovery under chaos --------------------------------- #

ORCH_ITERATIONS = max(1, ITERATIONS // 8)


def run_orchestrated(seed):
    """Node deaths landing *during* orchestrator-driven node recovery.

    Three seeded crashes hit a (6,4) cluster while the background
    recovery orchestrator drains: the later deaths kill helpers,
    requesters, and queued stripes' second chunks mid-flight.
    """
    from repro.recovery import RecoveryConfig, RecoveryOrchestrator

    rng = np.random.default_rng(seed + 10_000)
    sys_ = ClusterSystem(12, RSCode(6, 4), slice_bytes=4096)
    from repro.net import BandwidthSnapshot

    sys_.set_bandwidth(
        BandwidthSnapshot(
            uplink=rng.uniform(200.0, 1000.0, 12),
            downlink=rng.uniform(200.0, 1000.0, 12),
        )
    )
    payloads = {}
    for s in range(8):
        data = rng.integers(0, 256, (4, CHUNK), dtype=np.uint8)
        sid = f"s{s}"
        sys_.write_stripe(
            sid, data,
            placement=tuple(int(x) for x in rng.choice(12, 6, replace=False)),
        )
        payloads[sid] = data
    orch = RecoveryOrchestrator(
        sys_,
        RecoveryConfig(
            budget_fraction=0.5, max_concurrent=2, tick_s=0.005,
            multi_deadline_s=0.05,
        ),
    )
    orch.start()
    victims = [int(v) for v in rng.choice(12, size=3, replace=False)]
    times = sorted(0.001 + rng.uniform(0.0, 0.04, 3))
    for victim, t in zip(victims, times):
        sys_.events.schedule_at(t, lambda v=victim: sys_.fail_node(v))
    sys_.events.run()
    return sys_, orch, payloads


@pytest.mark.recovery
@pytest.mark.parametrize("seed", range(ORCH_ITERATIONS))
def test_death_during_orchestrated_recovery_terminates(seed):
    sys_, orch, payloads = run_orchestrated(seed)
    # termination: the control loop wound down, never wedged
    assert not orch.active
    assert orch.inflight == 0 and orch.committed_fraction == 0.0
    # every terminal record is either byte-verified or carries a reason
    for record in orch.records:
        if record.status == FAILED:
            assert record.failure_reason
        else:
            assert record.verified
    assert all(reason for reason in orch.dead_letters.values())
    # any stripe the orchestrator did not give up on ends fully healthy,
    # its chunks byte-identical to the originals
    for sid, data in payloads.items():
        if sid in orch.dead_letters:
            continue
        loc = sys_.master.stripe(sid)
        assert all(sys_.is_alive(node) for node in loc.placement), sid
        for ci in range(data.shape[0]):
            assert np.array_equal(sys_.read_chunk(sid, ci), data[ci]), sid


@pytest.mark.recovery
def test_orchestrated_chaos_reproduces_per_seed():
    def fingerprint(seed):
        _, orch, _ = run_orchestrated(seed)
        return (
            [
                (r.stripe_id, r.priority_class, r.status, r.verified,
                 r.admitted_at, r.finished_at, r.share)
                for r in orch.records
            ],
            dict(orch.dead_letters),
            orch.drained_at,
        )

    assert fingerprint(17) == fingerprint(17)
