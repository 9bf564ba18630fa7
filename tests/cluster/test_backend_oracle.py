"""The fused data plane and the naive oracle agree on whole repairs.

``tests/ec/test_backends.py`` proves the kernels byte-identical; this
file proves that nothing *above* the kernels depends on which one runs.
One (14,10) repair, clean and then under a crash plus a wire-corruption
window, is run once under ``use_backend("naive")`` and once on the
default backend: the rebuilt bytes, the verdict, the simulated clock,
the traffic, the recovery work and the event count must all match.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSystem
from repro.ec import RSCode, kernels, use_backend
from repro.faults import Crash, FaultInjector, WireCorruption
from repro.net import BandwidthSnapshot

pytestmark = pytest.mark.ec

N, K = 14, 10
NUM_NODES = 18
FAILED_NODE, REQUESTER = 3, 16
CHUNK = 256 * 1024
SLICE = 16 * 1024

OUTCOME_FIELDS = (
    "status", "verified", "elapsed_seconds", "bytes_received", "attempts",
    "retries", "replans", "bytes_retransferred", "corruption_detected",
    "failure_reason",
)

#: scenario -> (faults, check(outcome) proving the faults bit)
SCENARIOS = {
    "clean": (
        (),
        lambda o: o.retries == 0 and not o.corruption_detected,
    ),
    "crash+corrupt-wire": (
        (
            WireCorruption(node=5, time=0.001, duration_s=0.002, seed=4),
            Crash(node=8, time=0.004),
        ),
        lambda o: o.corruption_detected and o.retries >= 1 and o.replans >= 1,
    ),
}


def run_repair(faults):
    system = ClusterSystem(NUM_NODES, RSCode(N, K), slice_bytes=SLICE)
    rng = np.random.default_rng(7)
    system.set_bandwidth(
        BandwidthSnapshot(
            uplink=rng.uniform(200.0, 1000.0, NUM_NODES),
            downlink=rng.uniform(200.0, 1000.0, NUM_NODES),
        )
    )
    data = rng.integers(0, 256, (K, CHUNK), dtype=np.uint8)
    system.write_stripe("s", data, placement=tuple(range(N)))
    system.fail_node(FAILED_NODE)
    system.enable_heartbeats(period_s=0.01)
    injector = FaultInjector(list(faults))
    outcome = system.repair(
        "s", FAILED_NODE, requester=REQUESTER,
        injector=injector, on_failure="outcome", store=False,
    )
    assert len(injector.log.fired) == len(faults)
    return system, data, outcome


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_repair_is_the_same_under_the_oracle(scenario, monkeypatch):
    faults, faults_bit = SCENARIOS[scenario]
    with use_backend("naive"):
        oracle_system, data, oracle = run_repair(faults)

    fused_calls = []
    real = kernels.fused_matmul
    monkeypatch.setattr(
        kernels, "fused_matmul",
        lambda *a, **k: (fused_calls.append(1), real(*a, **k))[1],
    )
    system, _, outcome = run_repair(faults)

    assert fused_calls, "the default run never reached the fused kernels"
    assert outcome.verified and faults_bit(outcome)
    assert np.array_equal(outcome.rebuilt, data[FAILED_NODE])
    assert np.array_equal(oracle.rebuilt, outcome.rebuilt)
    for name in OUTCOME_FIELDS:
        assert getattr(oracle, name) == getattr(outcome, name), name
    assert oracle_system.events.executed == system.events.executed
