"""Detector-informed watchdog: early abort, clean-run silence, S6.

The cluster-side control wiring for ``repro.obs.detect``: a
``system.divergence = monitor`` arms a throughput sampler alongside
every attempt's watchdog timer.  These tests pin down the contract —
a diverged attempt aborts *before* the timeout (``detect.abort``), a
clean repair is byte-identical with and without the monitor, and a
detector action declined because the timeout fallback already owns the
attempt epoch is recorded as a structured ``detect.suppressed`` event
with its reason.
"""

import pytest

from repro.obs import DivergenceMonitor, MetricsRegistry, Tracer
from repro.obs.demo import _build_system, _find_hub
from repro.workloads import make_trace

pytestmark = pytest.mark.detect

N, K, NUM_NODES = 14, 10, 16
FAILED, REQUESTER = 3, NUM_NODES - 1
CHUNK = 64 * 1024


def _snapshot():
    return make_trace(
        "tpcds", num_nodes=NUM_NODES, num_snapshots=60, seed=4
    ).snapshot(30)


def _system(monitor=None, tracer=None, metrics=None):
    system = _build_system(
        n=N, k=K, num_nodes=NUM_NODES, chunk_bytes=CHUNK,
        failed_node=FAILED, snapshot=_snapshot(), seed=2023,
        tracer=tracer, metrics=metrics,
    )
    system.divergence = monitor
    if monitor is not None:
        monitor.clock = lambda: system.events.now
    system.enable_heartbeats(period_s=0.005)
    return system


def _events(tracer, name):
    return [e for e in tracer.all_events() if e.name == name]


class TestEarlyAbort:
    @pytest.fixture(scope="class")
    def crash_runs(self):
        """The same hub crash, timeout-only vs detector-informed."""
        probe = _system()
        clean = probe.repair(
            "s1", FAILED, requester=REQUESTER, store=False
        )
        hub = _find_hub(clean.plan, REQUESTER)
        crash_at = 0.5 * clean.elapsed_seconds

        runs = {}
        for arm in ("baseline", "detector"):
            tracer, metrics = Tracer(), MetricsRegistry()
            monitor = (
                DivergenceMonitor.standard(tracer=tracer, metrics=metrics)
                if arm == "detector"
                else None
            )
            system = _system(monitor, tracer=tracer, metrics=metrics)
            system.events.schedule(
                crash_at, lambda s=system, h=hub: s.fail_node(h)
            )
            outcome = system.repair(
                "s1", FAILED, requester=REQUESTER, store=False,
                on_failure="outcome",
            )
            runs[arm] = (outcome, tracer, metrics, monitor)
        return crash_at, runs

    def test_detector_aborts_before_timeout_would(self, crash_runs):
        crash_at, runs = crash_runs
        base_out, base_tracer, _, _ = runs["baseline"]
        det_out, det_tracer, _, _ = runs["detector"]
        assert base_out.status == det_out.status == "completed"
        (abort,) = _events(det_tracer, "detect.abort")
        (fire,) = _events(base_tracer, "watchdog.fire")
        assert crash_at < abort.time < fire.time
        assert det_out.elapsed_seconds < base_out.elapsed_seconds

    def test_abort_event_names_the_divergence(self, crash_runs):
        _, runs = crash_runs
        _, tracer, _, _ = runs["detector"]
        (abort,) = _events(tracer, "detect.abort")
        assert abort.attrs["detector"] == "cusum"
        assert abort.attrs["ratio"] < 0.5
        assert abort.attrs["stat"] > 0
        assert abort.attrs["timeout_s"] > 0

    def test_early_abort_counted_and_alarm_recorded(self, crash_runs):
        _, runs = crash_runs
        outcome, _, metrics, monitor = runs["detector"]
        counter = metrics.counter("repro_detect_early_aborts_total", "")
        assert counter.value == 1
        assert monitor.alarm_count("repair.throughput_ratio") == 1
        assert outcome.retries >= 1  # the abort went through the retry path

    def test_wire_detector_discarded_after_repair(self, crash_runs):
        _, runs = crash_runs
        _, _, _, monitor = runs["detector"]
        assert monitor.keys("repair.throughput_ratio") == []


class TestCleanRun:
    def test_monitor_is_a_pure_observer(self):
        """No fault: identical repair with and without the monitor, no
        throughput alarms, no early aborts."""
        plain = _system().repair(
            "s1", FAILED, requester=REQUESTER, store=False
        )
        tracer = Tracer()
        monitor = DivergenceMonitor.standard(tracer=tracer)
        watched = _system(monitor, tracer=tracer).repair(
            "s1", FAILED, requester=REQUESTER, store=False
        )
        assert watched.elapsed_seconds == pytest.approx(
            plain.elapsed_seconds, rel=1e-9
        )
        assert monitor.alarm_count("repair.throughput_ratio") == 0
        assert _events(tracer, "detect.abort") == []
        assert monitor.observations("repair.throughput_ratio") > 0


class TestSuppression:
    def test_stale_epoch_tick_is_suppressed_with_reason(self):
        """S6: a detect tick landing after its attempt epoch was retired
        declines to act and records the structured reason."""
        tracer = Tracer()
        monitor = DivergenceMonitor.standard(tracer=tracer)
        system = _system(monitor, tracer=tracer)

        def stale_tick():
            (asm,) = system._assemblies.values()
            # the epoch string the sampler captured no longer matches:
            # exactly what a tick scheduled before a timeout-driven
            # re-plan observes when it finally runs
            asm.detect_tick("w-stale")

        system.events.schedule(0.001, stale_tick)
        outcome = system.repair(
            "s1", FAILED, requester=REQUESTER, store=False
        )
        assert outcome.status == "completed"
        (record,) = monitor.suppressions
        assert record["signal"] == "repair.throughput_ratio"
        assert record["reason"] == "timeout fallback owns attempt epoch"
        assert record["key"] == "w-stale"
        (event,) = _events(tracer, "detect.suppressed")
        assert event.attrs["reason"] == record["reason"]
        # suppressed means *no* control action was taken
        assert _events(tracer, "detect.abort") == []
        assert outcome.retries == 0
