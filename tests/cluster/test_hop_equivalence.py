"""Recorded outputs of the slice hop: a change to how a node sends,
routes or folds a slice must reproduce them exactly.

Each case runs one program and records:

* the number of events the queue executed;
* every slice arrival — the simulated time (as ``float.hex``), the
  receiving node, the sender and the slice start, in delivery order;
* the tracer's transfer rows (``ints``, ``times`` as ``float.hex``,
  ``wires``) under each parent span, in span order;
* the sha256 of the rebuilt bytes.

Arrivals and rows are stored as the sha256 of their canonical JSON,
with their counts, so the fixture stays small.  The cases: one clean
(14,10) repair at 16 KiB and at 4 KiB slices, the six ``repair_chaos``
fault seeds at the benchmark's smoke size, and the ``recovery_campaign``
smoke scenario.  A mutant hop that skips the per-slice overhead on a
task's first slice must fail the record.

Regenerate (``python -m tests.cluster.test_hop_equivalence``) only for
a change that is *meant* to move when or what a slice arrives.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
from operator import attrgetter

import numpy as np
import pytest

from repro.cluster import ClusterSystem, datanode
from repro.cluster.datanode import DataNode
from repro.ec import RSCode
from repro.faults import FaultInjector
from repro.net import units
from repro.obs import MetricsRegistry, Tracer
from repro.obs.trace import _depth_first
from repro.recovery import run_recovery_scenario
from repro.workloads import make_trace

from ..obs.test_obs_counts import _failed_cluster

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_hop.json")
#: ``repair_chaos``'s fault seeds and its smoke-size cluster
CHAOS_SEEDS = (0, 2, 8, 9, 10, 14)
CHAOS_NODES, CHAOS_REQUESTER = 18, 17
DATASET_SEED = 2023
CASES = (
    "clean-16k",
    "clean-4k",
    *(f"chaos-{seed}" for seed in CHAOS_SEEDS),
    "recovery-smoke",
)


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, separators=(",", ":")).encode()
    ).hexdigest()


def _rows(tracer: Tracer) -> list:
    """Every transfer row, grouped by parent span id (``None``: orphans)."""
    groups = [(span.span_id, span._rows) for span in _depth_first(
        tracer._roots, attrgetter("_children")
    ) if span._rows is not None]
    groups.append((None, tracer._orphans))
    return [
        [sid, list(rows.ints), [t.hex() for t in rows.times], list(rows.wires)]
        for sid, rows in groups
    ]


def _chaos_cluster(seed: int, snapshot, data):
    """One ``repair_chaos`` cluster at smoke size (64 KiB chunks, 4 KiB
    slices) with its fault schedule."""
    system = ClusterSystem(
        CHAOS_NODES, RSCode(14, 10), slice_bytes=4 * units.KIB,
        tracer=Tracer(), metrics=MetricsRegistry(),
    )
    system.write_stripe("s", data, placement=tuple(range(14)))
    system.set_bandwidth(snapshot)
    system.fail_node(0)
    system.enable_heartbeats(period_s=0.01)
    injector = FaultInjector.random_schedule(
        seed, nodes=range(CHAOS_NODES), horizon_s=0.02, max_faults=3,
        max_crashes=2, protected=(CHAOS_REQUESTER,), corruption=True,
    )
    return system, injector


@functools.lru_cache(maxsize=1)
def _chaos_snapshots() -> dict:
    """Seed -> the congested dataset instant ``repair_chaos`` replays."""
    trace = make_trace(
        "tpcds", num_nodes=CHAOS_NODES, num_snapshots=1500, seed=DATASET_SEED
    )
    picks = np.random.default_rng(DATASET_SEED).choice(
        trace.congested_instants(), size=len(CHAOS_SEEDS), replace=False
    )
    return dict(zip(CHAOS_SEEDS, (trace.snapshot(int(t)) for t in picks)))


def run_case(case: str, monkeypatch) -> dict:
    """The record of one case (see the module docstring)."""
    arrivals = []
    real = ClusterSystem._deliver

    def deliver(self, destination, data):
        arrivals.append((self.events.now.hex(), destination, data.source, data.start))
        real(self, destination, data)

    monkeypatch.setattr(ClusterSystem, "_deliver", deliver)
    if case == "recovery-smoke":
        scenario = run_recovery_scenario(
            num_stripes=4, chunk_bytes=8 * units.KIB, slice_bytes=units.KIB,
            foreground_reads=20, kills=((0, 0.001), (3, 0.004)),
            seed=DATASET_SEED,
        )
        system, tracer = scenario.system, scenario.tracer
        events = system.events.executed
        rebuilt = b"".join(
            system.read_chunk(sid, idx).tobytes()
            for sid, data in sorted(scenario.payloads.items())
            for idx in range(data.shape[0])
        )
    else:
        if case.startswith("clean"):
            slice_kib = int(case.split("-")[1][:-1])
            tracer = Tracer()
            system, _data = _failed_cluster(
                slice_kib * units.KIB, tracer=tracer, metrics=MetricsRegistry()
            )
            outcome = system.repair("s", 0, 15, store=False)
        else:
            seed = int(case.split("-")[1])
            data = np.random.default_rng(0).integers(
                0, 256, size=(10, 64 * units.KIB), dtype=np.uint8
            )
            system, injector = _chaos_cluster(seed, _chaos_snapshots()[seed], data)
            tracer = system.tracer
            outcome = system.repair(
                "s", 0, CHAOS_REQUESTER, injector=injector,
                on_failure="outcome", store=False,
            )
        events = system.events.executed
        rebuilt = b"" if outcome.rebuilt is None else outcome.rebuilt.tobytes()
    rows = _rows(tracer)
    return {
        "events": events,
        "arrivals": len(arrivals),
        "arrivals_sha256": _sha(arrivals),
        "rows": sum(len(group[3]) for group in rows),
        "rows_sha256": _sha(rows),
        "rebuilt_sha256": hashlib.sha256(rebuilt).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", CASES)
def test_the_hop_reproduces_its_record(case, golden, monkeypatch):
    assert run_case(case, monkeypatch) == golden[case]


def test_a_hop_without_the_first_slice_overhead_fails_the_record(golden, monkeypatch):
    """The record has teeth: a first slice that skips the per-slice
    overhead arrives early, and so does everything behind it."""
    real = DataNode._transmit

    def transmit(self, state, idx, *rest):
        if idx:
            return real(self, state, idx, *rest)
        overhead = datanode.SLICE_OVERHEAD_S
        datanode.SLICE_OVERHEAD_S = 0.0
        try:
            return real(self, state, idx, *rest)
        finally:
            datanode.SLICE_OVERHEAD_S = overhead

    monkeypatch.setattr(DataNode, "_transmit", transmit)
    got = run_case("clean-16k", monkeypatch)
    want = golden["clean-16k"]
    assert got["arrivals_sha256"] != want["arrivals_sha256"]
    assert got["rows_sha256"] != want["rows_sha256"]
    assert got["rebuilt_sha256"] == want["rebuilt_sha256"]  # bytes unmoved


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    records = {}
    for name in CASES:
        with pytest.MonkeyPatch.context() as m:
            records[name] = run_case(name, m)
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(records)} cases)")
