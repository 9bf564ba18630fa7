"""SLO-coupled throttle: breach shrinks repair budget, recovery restores it."""

import numpy as np
import pytest

from repro.cluster import ClusterSystem
from repro.ec import RSCode
from repro.net import BandwidthSnapshot
from repro.obs import FleetAggregator, MetricsRegistry, SLOEngine, Tracer
from repro.obs.slo import parse_rules
from repro.recovery import RecoveryConfig, RecoveryOrchestrator

pytestmark = [pytest.mark.recovery, pytest.mark.slo]

LATENCY_METRIC = "repro_foreground_latency_seconds"


def build(num_stripes=12, chunk=256 * 1024):
    tracer = Tracer()
    metrics = MetricsRegistry()
    fleet = FleetAggregator(window_s=0.03, buckets=6)
    sys_ = ClusterSystem(
        12, RSCode(6, 4), tracer=tracer, metrics=metrics, fleet=fleet
    )
    sys_.set_bandwidth(BandwidthSnapshot.uniform(12, 500.0))
    rng = np.random.default_rng(3)
    for s in range(num_stripes):
        data = rng.integers(0, 256, (4, chunk), dtype=np.uint8)
        sys_.write_stripe(
            f"s{s:02d}", data, placement=tuple((s + j) % 12 for j in range(6))
        )
    slo = SLOEngine(
        fleet=fleet,
        rules=parse_rules([f"p95 {LATENCY_METRIC} < 0.1"]),
        tracer=tracer,
        metrics=metrics,
    )
    orch = RecoveryOrchestrator(
        sys_,
        RecoveryConfig(
            budget_fraction=0.6,
            max_concurrent=2,
            tick_s=0.005,
        ),
        slo=slo,
    )
    return sys_, fleet, slo, orch, tracer, metrics


class TestThrottle:
    def test_breach_shrinks_budget_and_recovery_restores_it(self):
        sys_, fleet, slo, orch, tracer, metrics = build()
        # foreground latency: terrible until 40ms, healthy afterwards
        for i in range(20):
            sys_.events.schedule_at(
                0.002 + i * 0.002, lambda: fleet.observe(LATENCY_METRIC, 1.0)
            )
        for i in range(200):
            sys_.events.schedule_at(
                0.050 + i * 0.002, lambda: fleet.observe(LATENCY_METRIC, 0.001)
            )
        orch.start()
        sys_.events.schedule(0.001, lambda: sys_.fail_node(0))
        sys_.events.run()

        # the run must still drain completely, just more slowly
        assert orch.drained_at is not None
        assert not orch.dead_letters
        assert all(r.verified for r in orch.records)

        # breach happened and was recovered, per repro_slo_* metrics
        assert metrics.total("repro_slo_breaches_total") >= 1
        assert metrics.get("repro_slo_ok", rule=slo.rules[0].name).value == 1.0

        # the throttle moved both ways and ended fully restored
        assert orch.throttle_shrinks >= 2
        assert orch.throttle_restores >= 2
        assert orch.throttle == pytest.approx(1.0)
        assert orch.effective_budget() == pytest.approx(0.6)

        # recovery.* span events record the moves
        run_span = tracer.find(kind="recovery")[0]
        moves = [e for e in run_span.events if e.name == "recovery.throttle"]
        directions = [e.attrs["direction"] for e in moves]
        assert "shrink" in directions and "restore" in directions
        # shrink phase precedes the restore phase
        assert directions.index("shrink") < directions.index("restore")
        floor_move = min(e.attrs["throttle"] for e in moves)
        assert floor_move == pytest.approx(0.1)

        # in-flight repair bandwidth measurably shrank: admissions during
        # the breach got a fraction of the pre-breach share, and
        # admissions after restore got the full share back
        shares = [
            r.share for r in sorted(orch.records, key=lambda r: r.admitted_at)
        ]
        full_share = 0.6 / 2
        assert shares[0] == pytest.approx(full_share)
        assert min(shares) <= 0.1  # squeezed under the floored budget
        assert shares[-1] >= full_share - 1e-9

    def test_throttle_counter_metrics(self):
        sys_, fleet, slo, orch, tracer, metrics = build()
        for i in range(20):
            sys_.events.schedule_at(
                0.002 + i * 0.002, lambda: fleet.observe(LATENCY_METRIC, 1.0)
            )
        for i in range(200):
            sys_.events.schedule_at(
                0.050 + i * 0.002, lambda: fleet.observe(LATENCY_METRIC, 0.001)
            )
        orch.start()
        sys_.events.schedule(0.001, lambda: sys_.fail_node(0))
        sys_.events.run()
        shrinks = metrics.get(
            "repro_recovery_throttle_total", direction="shrink"
        )
        restores = metrics.get(
            "repro_recovery_throttle_total", direction="restore"
        )
        assert shrinks is not None and shrinks.value >= 2
        assert restores is not None and restores.value >= 2

    def test_no_slo_means_no_throttle(self):
        sys_, fleet, slo, orch, tracer, metrics = build()
        orch.slo = None
        orch.start()
        sys_.events.schedule(0.001, lambda: sys_.fail_node(0))
        sys_.events.run()
        assert orch.throttle == 1.0
        assert orch.throttle_shrinks == 0 and orch.throttle_restores == 0
