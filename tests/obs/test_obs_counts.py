"""Count gate: with live sinks, one slice costs a small constant.

The clean traced (14,10) repair below puts ~640 slices on the wire.
Every slice is recorded — one uplink and one downlink ``transfer`` span
— but a slice looks no metric up by name (each node's byte counter is
bound on that node's first send) and its leaf spans own no containers.
Counts, unlike timings, are the same on every machine: a change that
quietly returns to a registry lookup per slice or to two fresh lists per
span trips this gate by a factor of the slice count, and one that meets
it by dropping spans trips the span-count identity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSystem
from repro.cluster.datanode import DataNode
from repro.ec import RSCode
from repro.net import BandwidthSnapshot
from repro.obs import MetricsRegistry, Tracer

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

    tracer, metrics = Tracer(), MetricsRegistry()
    system = ClusterSystem(
        NUM_NODES, RSCode(N, K), slice_bytes=SLICE, tracer=tracer, metrics=metrics
    )
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
    for key in counts:
        counts[key] = 0
    return system, data, counts


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
