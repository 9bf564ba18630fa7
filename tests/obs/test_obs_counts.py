"""Count gate: with live sinks, one slice costs a small constant.

The clean traced (14,10) repair below puts ~640 slices on the wire.
Every slice is recorded — one row that reads back as an uplink and a
downlink ``transfer`` span — but a slice looks no metric up by name
(each node's byte counter is bound on that node's first send), keeps no
object the garbage collector walks, and its leaf spans own no
containers.  Counts, unlike timings, are the same on every machine: a
change that quietly returns to a registry lookup per slice, to a
``Span`` kept per slice or to two fresh lists per span trips this gate
by a factor of the slice count, and one that meets it by dropping spans
trips the span-count identity.

Live sinks only observe: the traced repair takes the same simulated time
and events as an untraced twin.  With observability off — the NULL
observer every caller defaults to — one planning request makes a fixed,
small number of observer calls, counted the same way, and no no-op
primitive keeps memory alive from one call to the next.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.analysis import make_fixed_context
from repro.cluster import ClusterSystem
from repro.cluster.datanode import DataNode
from repro.cluster.master import Master, StripeLocation
from repro.core.plancache import PlanCache
from repro.ec import RSCode
from repro.net import BandwidthSnapshot
from repro.obs import (
    NULL_COUNTER,
    FleetAggregator,
    NULL_FLEET,
    NULL_METRICS,
    NULL_OBSERVER,
    NULL_TRACER,
    MetricsRegistry,
    NullObserver,
    Observer,
    Tracer,
)
from repro.repair import get_algorithm

N, K = 14, 10
NUM_NODES = 16
CHUNK = 256 * 1024
SLICE = 16 * 1024


@pytest.fixture
def traced(monkeypatch):
    """A traced (14,10) cluster with one failed node, and the calls it makes."""
    counts = {"counter": 0, "_labelkey": 0, "slices": 0}

    def counting(owner, attr, key, wrap=lambda f: f):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrap(wrapper))

    counting(MetricsRegistry, "counter", "counter")
    counting(MetricsRegistry, "_labelkey", "_labelkey", staticmethod)
    counting(DataNode, "_transmit", "slices")

    system, data = _failed_cluster(tracer=Tracer(), metrics=MetricsRegistry())
    for key in counts:
        counts[key] = 0
    return system, data, counts


def _failed_cluster(slice_bytes: int = SLICE, **obs) -> tuple[ClusterSystem, np.ndarray]:
    """A (14,10) cluster with node 0 failed, observed by ``obs`` sinks."""
    system = ClusterSystem(NUM_NODES, RSCode(N, K), slice_bytes=slice_bytes, **obs)
    rng = np.random.default_rng(7)
    system.set_bandwidth(
        BandwidthSnapshot(
            uplink=rng.uniform(100.0, 1000.0, NUM_NODES),
            downlink=rng.uniform(100.0, 1000.0, NUM_NODES),
        )
    )
    data = rng.integers(0, 256, (K, CHUNK), dtype=np.uint8)
    system.write_stripe("s", data, placement=tuple(range(N)))
    system.fail_node(0)
    return system, data


def _lists_in_forest(tracer: Tracer) -> int:
    """``list`` objects the span forest owns (the roots list included)."""
    return 1 + sum(
        isinstance(held, list)
        for span in tracer.spans()
        for held in (span.children, span.events)
    )


def test_one_traced_repair_costs_a_constant_per_slice(traced):
    system, data, counts = traced
    outcome = system.repair("s", 0, 15, store=False)
    assert outcome.verified and np.array_equal(outcome.rebuilt, data[0])

    slices = counts["slices"]
    assert slices >= 20 * NUM_NODES  # the gate has teeth
    spans = list(system.tracer.spans())
    transfers = [s for s in spans if s.kind == "transfer"]
    others = len(spans) - len(transfers)

    # (c) nothing is sampled, aggregated or dropped: two spans per slice
    assert len(transfers) == 2 * slices
    assert 0 < others < slices // 4
    assert system.metrics.total("repro_node_bytes_sent_total") == system.traffic_bytes

    # (a) by-name registry lookups: per node and per repair, never per
    # slice (the end-of-repair gauges are a few label sets per node)
    assert 0 < counts["counter"] <= NUM_NODES + 8
    assert counts["counter"] <= counts["_labelkey"] <= 4 * NUM_NODES

    # (b) a leaf span owns no containers; a non-leaf span at most two
    assert all(s.children == () and s.events == () for s in transfers)
    assert _lists_in_forest(system.tracer) <= 2 * others + 1


def test_a_traced_repair_keeps_no_collector_object_per_slice(monkeypatch):
    """What a traced repair leaves for the garbage collector to walk, read
    before anyone reads the trace, does not grow with the slice count:
    slices are rows in flat columns, and spans are built on read."""
    sent = [0]
    transmit = DataNode._transmit

    def counting(self, *args):
        sent[0] += 1
        return transmit(self, *args)

    monkeypatch.setattr(DataNode, "_transmit", counting)
    small = SLICE // 4
    grown, slices = {}, {}
    for slice_bytes in (small, SLICE, small):  # the first run warms caches
        system, data = _failed_cluster(
            slice_bytes, tracer=Tracer(), metrics=MetricsRegistry())
        sent[0] = 0
        gc.collect()
        before = len(gc.get_objects())
        outcome = system.repair("s", 0, 15, store=False)
        gc.collect()
        grown[slice_bytes] = len(gc.get_objects()) - before
        slices[slice_bytes] = sent[0]
        assert outcome.verified and np.array_equal(outcome.rebuilt, data[0])
        # still two transfer spans per slice once someone reads
        transfers = sum(1 for s in system.tracer.spans() if s.kind == "transfer")
        assert transfers == 2 * sent[0]
    # the gate has teeth: one object kept per extra slice would be ~1.9k,
    # sixty times the slack
    assert slices[small] - slices[SLICE] >= 50 * 32
    assert grown[small] <= grown[SLICE] + 32


def test_live_sinks_only_observe_the_repair():
    """Tracing and metrics change no simulated time and schedule no event."""
    (null, _), (live, data) = _failed_cluster(), _failed_cluster(
        tracer=Tracer(), metrics=MetricsRegistry())
    outcomes = [system.repair("s", 0, 15, store=False) for system in (null, live)]
    assert all(o.verified and np.array_equal(o.rebuilt, data[0]) for o in outcomes)
    assert outcomes[0].elapsed_seconds == outcomes[1].elapsed_seconds
    assert null.events.executed == live.events.executed
    assert null.traffic_bytes == live.traffic_bytes
    assert list(live.tracer.spans()) and not list(null.tracer.spans())


def _fixed_points() -> list[str]:
    """The observer's public methods: every fixed point of the seam."""
    return sorted(
        name for name, attr in vars(Observer).items()
        if callable(attr) and not name.startswith("_")
    )


def test_the_send_hook_needs_the_tracer_or_the_registry():
    """A fleet alone makes the observer live, but the per-slice send hook
    stays off: nothing it records would be read."""
    system = ClusterSystem(NUM_NODES, RSCode(N, K), fleet=FleetAggregator())
    assert system.obs is not NULL_OBSERVER
    assert all(node.on_transfer is None for node in system.nodes)


#: The no-op calls instrumented code makes when observability is off:
#: every fixed point of the NULL observer, and the NULL sinks beneath it.
NULL_PRIMITIVES = {
    "event": lambda: NULL_TRACER.event(None, "x", a=1),
    "span_pair": lambda: NULL_TRACER.end_span(NULL_TRACER.start_span("x", a=1)),
    "counter_inc": lambda: NULL_COUNTER.inc(),
    "counter_factory_inc": lambda: NULL_METRICS.counter("repro_x_total", "h", l="v").inc(),
    "fleet_observe": lambda: NULL_FLEET.observe("repro_x", 1.0, algorithm="a"),
    "enabled_check": lambda: NULL_TRACER.enabled,
    **{
        f"observer.{name}": (
            lambda name=name: getattr(NULL_OBSERVER, name)(None, "x", 1, a=1)
        )
        for name in _fixed_points()
    },
}


def test_the_null_observer_skips_every_fixed_point():
    """A fixed point the NULL observer forgot would run the live fan-out
    (against NULL sinks) on every call of every unobserved system."""
    points = _fixed_points()
    assert len(points) >= 30  # the gate has teeth
    assert all(
        getattr(NullObserver, name) is NullObserver._nothing for name in points
    )


@pytest.mark.parametrize("primitive", list(NULL_PRIMITIVES))
def test_null_primitive_retains_nothing(primitive):
    """A thousand calls keep less than one byte alive per call: a no-op
    that quietly records a span, an event or a label set fails by ~50x."""
    call, calls = NULL_PRIMITIVES[primitive], 1000
    call()  # first-call interning and caches land here
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(calls):
            call()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < calls


class _CountingNullObserver(NullObserver):
    """The NULL observer naming every fixed point it is called at."""

    def __init__(self):
        super().__init__()
        self.calls: list[str] = []


for _name in _fixed_points():
    setattr(
        _CountingNullObserver, _name,
        lambda self, *args, _name=_name, **kwargs: self.calls.append(_name),
    )


def test_one_planning_request_makes_two_null_obs_calls():
    """``plan_for_context`` + ``compile_tasks`` with observability off: one
    plan-cache lookup and one compiled-tasks point on the NULL observer,
    within the budget of two calls."""
    master = Master(RSCode(N, K), get_algorithm("fullrepair"), N + 2)
    master.plan_cache = PlanCache(max_entries=16)
    master.obs = _CountingNullObserver()
    # helpers 1..N-1 hold chunks 0..N-2; the lost chunk N-1 lived on node N
    master.register_stripe(StripeLocation("s0", placement=tuple(range(1, N + 1))))
    plan = master.plan_for_context(make_fixed_context(N, K, seed=2023))
    master.compile_tasks(plan, "s0", N - 1, intervals=[(0, 1 << 20)],
                         num_slices=16, repair_id="s0/nX")
    assert master.obs.calls == ["plan_cache", "tasks_compiled"]
