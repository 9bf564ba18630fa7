"""Engine self-observability: profiler, run monitor, and their exporters.

Unit-level coverage for :mod:`repro.obs.prof` — site attribution across
callable shapes, histogram/reservoir bookkeeping, queue integration,
heartbeat emission with a fake clock — plus the empty-input contract
for every exporter (fresh tracer/registry, unused profiler).
"""

import functools
import io
import json

import pytest

from repro.obs import (
    EngineProfiler,
    MetricsRegistry,
    RunMonitor,
    SiteStats,
    Tracer,
    chrome_trace,
    chrome_trace_json,
    collapsed_stacks,
    exponential_buckets,
    prometheus_text,
    site_of,
    spans_to_jsonl,
    speedscope_json,
    speedscope_json_str,
)
from repro.sim.events import EventQueue

#: The engine-bench scenario: an orchestrated two-node recovery with 4 KiB
#: slices, so per-event dispatch dominates (20,313 events, ~1 s).
GATE_SCENARIO = dict(
    num_stripes=48,
    chunk_bytes=64 * 1024,
    slice_bytes=4 * 1024,
    foreground_reads=200,
    kills=((0, 0.001), (3, 0.004)),
    seed=2023,
)


def _noop() -> None:
    pass


class _Worker:
    def __init__(self) -> None:
        self.calls = 0

    def pump(self) -> None:
        self.calls += 1


class _CallableObject:
    def __call__(self) -> None:
        pass


# --------------------------------------------------------------------- #
# Site attribution                                                      #
# --------------------------------------------------------------------- #

class TestSiteOf:
    def test_plain_function(self):
        module, qualname = site_of(_noop)
        assert module == __name__
        assert qualname == "_noop"

    def test_bound_methods_share_one_site(self):
        a, b = _Worker(), _Worker()
        assert site_of(a.pump) == site_of(b.pump)
        assert site_of(a.pump)[1] == "_Worker.pump"

    def test_partial_unwraps_to_inner_function(self):
        bound = functools.partial(max, 1, 2)
        module, qualname = site_of(bound)
        assert qualname == "max"
        nested = functools.partial(functools.partial(_noop))
        assert site_of(nested) == (__name__, "_noop")

    def test_wrapped_decorator_unwraps(self):
        @functools.wraps(_noop)
        def wrapper():
            _noop()

        assert site_of(wrapper) == (__name__, "_noop")

    def test_callable_object_attributes_to_class(self):
        module, qualname = site_of(_CallableObject())
        assert module == __name__
        assert qualname == "_CallableObject"

    def test_lambda(self):
        module, qualname = site_of(lambda: None)
        assert "<lambda>" in qualname


class TestSiteStats:
    def test_to_dict_units(self):
        s = SiteStats("m", "q")
        s.events = 4
        s.self_ns = 8_000_000  # 8 ms
        s.max_ns = 3_000_000
        s.alloc_bytes = 2048
        d = s.to_dict()
        assert d["site"] == "m:q"
        assert d["self_ms"] == pytest.approx(8.0)
        assert d["mean_us"] == pytest.approx(2000.0)
        assert d["max_us"] == pytest.approx(3000.0)
        assert d["alloc_kib"] == pytest.approx(2.0)

    def test_empty_mean_is_zero(self):
        assert SiteStats("m", "q").mean_us == 0.0


# --------------------------------------------------------------------- #
# EngineProfiler                                                        #
# --------------------------------------------------------------------- #

class TestEngineProfiler:
    def test_attributes_across_instances(self):
        prof = EngineProfiler()
        workers = [_Worker() for _ in range(3)]
        for w in workers:
            prof.run_action(w.pump)
            prof.run_action(w.pump)
        assert all(w.calls == 2 for w in workers)
        assert prof.events == 6
        sites = list(prof.sites.values())
        assert len(sites) == 1
        assert sites[0].events == 6
        assert sites[0].qualname == "_Worker.pump"
        assert sites[0].self_ns > 0
        assert prof.total_self_ns == sites[0].self_ns

    def test_distinct_builtin_callables_stay_distinct(self):
        prof = EngineProfiler()
        prof.run_action(functools.partial(max, 1, 2))
        prof.run_action(functools.partial(min, 1, 2))
        qualnames = {s.qualname for s in prof.sites.values()}
        assert {"max", "min"} <= qualnames

    def test_hot_sites_sorted_by_self_time(self):
        prof = EngineProfiler()
        fast = SiteStats("m", "fast")
        slow = SiteStats("m", "slow")
        fast.self_ns, slow.self_ns = 10, 1000
        prof.sites = {("m", "fast"): fast, ("m", "slow"): slow}
        assert [s.qualname for s in prof.hot_sites(2)] == ["slow", "fast"]

    def test_batch_histogram_buckets(self):
        prof = EngineProfiler()
        prof.record_batch(0.0, 1, 0)
        prof.record_batch(0.0, 3, 0)
        prof.record_batch(0.0, 7, 0)
        prof.record_batch(0.0, 4, 0)
        snap = prof.snapshot()
        assert snap["batch_size_hist"] == {"1": 1, "2-3": 1, "4-7": 2}

    def test_batch_reservoir_decimates(self):
        prof = EngineProfiler(max_batch_samples=16)
        for i in range(200):
            prof.record_batch(float(i), 1, i)
        assert prof.batches == 200
        assert len(prof.batch_samples) < 16
        assert prof._sample_stride > 1
        # survivors keep their original (time, ran, pending) shape
        t, ran, pending = prof.batch_samples[0]
        assert ran == 1 and pending == int(t)

    def test_fanout_histogram(self):
        prof = EngineProfiler()
        prof.record_fanout("failure_listeners", 2)
        prof.record_fanout("failure_listeners", 2)
        prof.record_fanout("failure_listeners", 5)
        assert prof.fanout["failure_listeners"] == {2: 2, 5: 1}
        assert prof.snapshot()["fanout"]["failure_listeners"] == {
            "2": 2, "5": 1,
        }

    def test_track_alloc_attributes_bytes(self):
        sink = []

        def allocate():
            sink.append(bytearray(64 * 1024))

        with EngineProfiler(track_alloc=True) as prof:
            prof.install(EventQueue())
            prof.run_action(allocate)
        (stats,) = prof.sites.values()
        assert stats.alloc_bytes >= 64 * 1024

    def test_install_uninstall_roundtrip(self):
        q = EventQueue()
        prof = EngineProfiler().install(q)
        assert q.profiler is prof
        prof.uninstall()
        assert q.profiler is None
        # uninstalling twice (or after replacement) is harmless
        other = EngineProfiler().install(q)
        prof.uninstall()
        assert q.profiler is other

    def test_queue_run_attributes_events(self):
        q = EventQueue()
        w = _Worker()
        for i in range(10):
            q.schedule(i * 0.5, w.pump)
        prof = EngineProfiler().install(q)
        q.run()
        prof.uninstall()
        assert w.calls == 10
        assert prof.events == 10
        assert prof.run_wall_ns > 0
        assert prof.run_wall_ns >= prof.total_self_ns
        snap = prof.snapshot()
        assert snap["hot_sites"][0]["site"].endswith("_Worker.pump")

    def test_queue_step_also_profiled(self):
        q = EventQueue()
        q.schedule(0.0, _noop)
        EngineProfiler().install(q)
        assert q.step() is True
        assert q.profiler.events == 1
        assert q.profiler.batches == 1

    def test_same_timestamp_batch_recorded_once(self):
        q = EventQueue()
        for _ in range(8):
            q.schedule(1.0, _noop)
        prof = EngineProfiler().install(q)
        q.run()
        assert prof.events == 8
        assert prof.batches == 1
        assert prof.mean_batch_size == pytest.approx(8.0)

    def test_batches_and_sites_pinned_on_the_engine_bench_scenario(self):
        """Counts recorded at f0cd0d1, when ``run`` popped whole
        equal-time batches off the heap before running them."""
        from repro.recovery import run_recovery_scenario

        scenario = run_recovery_scenario(**GATE_SCENARIO, profile=True)
        prof = scenario.profiler
        assert scenario.system.events.executed == prof.events == 20313
        assert prof.batches == 9168
        assert prof.batch_hist == {
            1: 4535, 2: 4341, 3: 187, 4: 66, 5: 31, 6: 4, 7: 4
        }
        assert {
            f"{module.rpartition('.')[2]}:{qualname}": stats.events
            for (module, qualname), stats in prof.sites.items()
        } == {
            "datanode:DataNode._arrive": 18732,
            "attempt:Assembly.start": 1,
            "attempt:Assembly.on_timeout": 2,
            "system:ClusterSystem._dispatch_tasks.<locals>.<lambda>": 1176,
            "foreground:ForegroundTraffic._issue": 200,
            "orchestrator:RecoveryOrchestrator._tick": 200,
            "scenario:run_recovery_scenario.<locals>.<lambda>": 2,
        }


# --------------------------------------------------------------------- #
# RunMonitor                                                            #
# --------------------------------------------------------------------- #

class _FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class TestRunMonitor:
    def _queue_with_events(self, n=100, spacing=0.01):
        q = EventQueue()
        for i in range(n):
            q.schedule(i * spacing, _noop)
        return q

    def test_heartbeats_emitted_and_final(self):
        clock = _FakeClock()
        q = self._queue_with_events(100)
        stream = io.StringIO()
        mon = RunMonitor(
            interval_s=1.0, stream=stream, check_every=10, clock=clock
        ).install(q)

        # advance the fake wall clock as events execute
        orig_after = mon.after_batch

        def ticking_after_batch(queue):
            clock.t += 0.05
            orig_after(queue)

        mon.after_batch = ticking_after_batch
        q.monitor = mon
        q.run()
        mon.uninstall()

        beats = mon.heartbeats
        assert len(beats) >= 2
        assert beats[-1]["final"] is True
        assert all(b["final"] is False for b in beats[:-1])
        assert beats[-1]["events"] == 100
        assert beats[-1]["events_per_s"] > 0
        # the stream saw exactly the same lines heartbeats_jsonl renders
        assert stream.getvalue() == mon.heartbeats_jsonl()
        for line in stream.getvalue().splitlines():
            json.loads(line)

    def test_cum_rate_ignores_preattach_events(self):
        clock = _FakeClock()
        q = self._queue_with_events(10)
        q.run()  # 10 events before the monitor exists
        for i in range(5):
            q.schedule(0.1 * (i + 1), _noop)
        mon = RunMonitor(interval_s=0.0, check_every=1, clock=clock).install(q)
        clock.t = 1.0
        q.run()
        mon.uninstall()
        final = mon.heartbeats[-1]
        assert final["events"] == 15  # queue-lifetime counter
        # but the cumulative rate only counts post-attach events
        assert final["cum_events_per_s"] <= 5 / 1e-9

    def test_eta_from_until(self):
        clock = _FakeClock()
        q = self._queue_with_events(100, spacing=0.01)
        mon = RunMonitor(
            interval_s=0.5, until=2.0, check_every=10, clock=clock
        ).install(q)
        orig_after = mon.after_batch

        def ticking(queue):
            clock.t += 0.1
            orig_after(queue)

        mon.after_batch = ticking
        q.monitor = mon
        q.run(until=2.0)
        mon.uninstall()
        mids = [b for b in mon.heartbeats if not b["final"]]
        assert mids, "expected at least one periodic heartbeat"
        assert any(
            b["eta_s"] is not None and b["eta_s"] >= 0.0 for b in mids
        )

    def test_eta_from_expected_events(self):
        clock = _FakeClock()
        q = self._queue_with_events(50)
        mon = RunMonitor(
            interval_s=0.1, expected_events=200, check_every=5, clock=clock
        ).install(q)
        orig_after = mon.after_batch

        def ticking(queue):
            clock.t += 0.05
            orig_after(queue)

        mon.after_batch = ticking
        q.monitor = mon
        q.run()
        mon.uninstall()
        mids = [b for b in mon.heartbeats if not b["final"]]
        assert any(b["eta_s"] is not None and b["eta_s"] > 0 for b in mids)

    def test_no_events_no_heartbeats(self):
        q = EventQueue()
        mon = RunMonitor(clock=_FakeClock()).install(q)
        q.run()
        mon.uninstall()
        assert mon.heartbeats == []
        assert mon.heartbeats_jsonl() == ""

    def test_hot_sites_in_heartbeat_with_profiler(self):
        clock = _FakeClock()
        q = self._queue_with_events(20)
        prof = EngineProfiler().install(q)
        mon = RunMonitor(
            interval_s=0.0, profiler=prof, check_every=1, clock=clock
        ).install(q)
        clock.t = 0.5
        q.run()
        mon.uninstall()
        prof.uninstall()
        hot = mon.heartbeats[-1]["hot"]
        assert hot and hot[0]["site"].endswith("_noop")


# --------------------------------------------------------------------- #
# Profiler exporters                                                    #
# --------------------------------------------------------------------- #

class TestProfilerExporters:
    def _profiled_queue(self):
        q = EventQueue()
        w = _Worker()
        for i in range(12):
            q.schedule(i * 0.1, w.pump)
            q.schedule(i * 0.1, _noop)
        prof = EngineProfiler().install(q)
        q.run()
        prof.uninstall()
        return prof

    def test_collapsed_stacks_format(self):
        prof = self._profiled_queue()
        lines = collapsed_stacks(prof).splitlines()
        assert len(lines) == 2  # two sites
        for line in lines:
            frames, weight = line.rsplit(" ", 1)
            assert ";" in frames
            assert int(weight) >= 1

    def test_speedscope_document(self):
        prof = self._profiled_queue()
        doc = speedscope_json(prof)
        assert doc == json.loads(speedscope_json_str(prof))
        frames = doc["shared"]["frames"]
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert profile["unit"] == "nanoseconds"
        assert len(profile["samples"]) == len(profile["weights"]) == len(frames)
        # every sample indexes a real frame
        for sample in profile["samples"]:
            (idx,) = sample
            assert 0 <= idx < len(frames)
        assert any("pump" in f["name"] for f in frames)

    def test_chrome_trace_engine_counters(self):
        q = EventQueue()
        clock = _FakeClock()
        for i in range(30):
            q.schedule(i * 0.1, _noop)
        prof = EngineProfiler().install(q)
        mon = RunMonitor(interval_s=0.0, check_every=1, clock=clock).install(q)
        clock.t = 1.0
        q.run()
        mon.uninstall()
        prof.uninstall()
        doc = chrome_trace(Tracer(), profiler=prof, monitor=mon)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert {"engine pending", "engine batch", "engine events/sec"} <= names
        pending = [e for e in counters if e["name"] == "engine pending"]
        assert pending == sorted(pending, key=lambda e: e["ts"])
        # the engine process is labelled
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(
            e["args"]["name"] == "event engine" for e in metas
        )


# --------------------------------------------------------------------- #
# Empty inputs: every exporter stays well-formed with nothing to show   #
# --------------------------------------------------------------------- #

class TestEmptyInputs:
    def test_spans_to_jsonl_fresh_tracer(self):
        assert spans_to_jsonl(Tracer()) == ""

    def test_chrome_trace_fresh_tracer(self):
        doc = json.loads(chrome_trace_json(Tracer()))
        events = doc["traceEvents"]
        # nothing but (possibly) metadata records; all parseable
        assert all(e["ph"] == "M" for e in events)

    def test_prometheus_text_fresh_registry(self):
        text = prometheus_text(MetricsRegistry())
        assert text == "" or text.endswith("\n")
        for line in text.splitlines():
            assert line.startswith("#") or " " in line

    def test_collapsed_stacks_unused_profiler(self):
        assert collapsed_stacks(EngineProfiler()) == ""

    def test_speedscope_unused_profiler(self):
        doc = speedscope_json(EngineProfiler())
        json.dumps(doc)  # serialisable
        assert doc["shared"]["frames"] == []
        assert doc["profiles"][0]["samples"] == []
        assert doc["profiles"][0]["weights"] == []

    def test_chrome_trace_unused_profiler_and_monitor(self):
        doc = chrome_trace(
            Tracer(), profiler=EngineProfiler(), monitor=RunMonitor()
        )
        assert not [e for e in doc["traceEvents"] if e["ph"] == "C"]

    def test_snapshot_unused_profiler(self):
        snap = EngineProfiler().snapshot()
        assert snap["events"] == 0
        assert snap["hot_sites"] == []
        json.dumps(snap)


# --------------------------------------------------------------------- #
# exponential_buckets helper                                            #
# --------------------------------------------------------------------- #

class TestExponentialBuckets:
    def test_geometric_series(self):
        buckets = exponential_buckets(0.001, 2.0, 5)
        assert buckets == pytest.approx((0.001, 0.002, 0.004, 0.008, 0.016))

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 5)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 2.0, 0)

    def test_usable_as_histogram_buckets(self):
        reg = MetricsRegistry()
        hist = reg.histogram(
            "t", "test", buckets=exponential_buckets(0.01, 4.0, 4)
        )
        hist.observe(0.05)
        assert "t" in prometheus_text(reg)
