"""Fault-free equivalence: the cluster's repair time is the transfer model's.

A clean repair on :class:`~repro.cluster.ClusterSystem` moves real bytes
through the slice hop; :func:`repro.sim.transfer.execute` computes the
same plan's makespan from the same execution model (one repair-wide
window count, the per-slice overhead on every hop, the GF compute
charge).  After the cluster's one dispatch latency the two agree up to
integer-byte rounding, and this suite holds them to that bound on clean
(14,10) repairs at 4 MiB / 64 KiB and 1 MiB / 16 KiB.

Where the residual comes from: ``Master.compile_tasks`` rounds each
segment boundary to a whole byte, and the data node cuts its range into
the window count's integer windows (the first ``r`` one byte longer),
where the model cuts fractional bytes evenly.  On a hop that carries a
contiguous run of windows the two byte totals differ by the two end
cuts' position errors: a rounded boundary (< 0.5 B), an integer window
cut (< 1 B) and the rounded segment length spread over the run (<= 1 B),
so fewer than 4 bytes per hop.  A pipeline's finish differs by at most
that many bytes at its rate on each hop of its deepest path, and the
repair's by the largest pipeline difference.  Reproducing both integer
rules inside the model closes the residual to float noise (< 1e-15 s on
the benchmark's three ``repair_clean`` ops).  Wherever the bound is below
one slice overhead, a model one window off breaks it: the suite checks
that too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSystem
from repro.ec import RSCode
from repro.net import units
from repro.sim import TransferParams, execute
from repro.sim.transfer import DISPATCH_LATENCY_S, SLICE_OVERHEAD_S
from repro.workloads import make_trace

N, K = 14, 10
NUM_NODES = 16
FAILED_NODE, REQUESTER = 0, 15
#: integer-byte rounding per hop (see the module docstring)
ROUNDING_BYTES = 4
SIZES = {
    "4MiB-64KiB": (4 * units.MIB, 64 * units.KIB, 3),
    "1MiB-16KiB": (units.MIB, 16 * units.KIB, 5),
}


def _snapshots(count: int):
    trace = make_trace("tpcds", num_nodes=NUM_NODES, num_snapshots=300, seed=11)
    picks = np.random.default_rng(11).choice(
        trace.congested_instants(), size=count, replace=False
    )
    return [trace.snapshot(int(t)) for t in picks]


def _rounding_bound_s(plan) -> float:
    return max(
        p.depth() * ROUNDING_BYTES / units.mbps_to_bytes_per_s(p.rate)
        for p in plan.pipelines
    )


@pytest.mark.parametrize("size", sorted(SIZES))
def test_clean_repair_is_the_model_after_the_dispatch_latency(size):
    chunk, slice_bytes, count = SIZES[size]
    data = np.random.default_rng(0).integers(0, 256, size=(K, chunk), dtype=np.uint8)
    params = TransferParams(chunk_bytes=chunk, slice_bytes=slice_bytes)
    one_window_more = TransferParams(
        chunk_bytes=chunk, slice_bytes=chunk / (chunk // slice_bytes + 1)
    )
    resolved = 0
    for snapshot in _snapshots(count):
        system = ClusterSystem(NUM_NODES, RSCode(N, K), slice_bytes=slice_bytes)
        system.write_stripe("s", data, placement=tuple(range(N)))
        system.fail_node(FAILED_NODE)
        system.set_bandwidth(snapshot)
        outcome = system.repair("s", FAILED_NODE, REQUESTER, store=False)
        assert outcome.verified and outcome.retries == 0 and outcome.replans == 0
        bound = _rounding_bound_s(outcome.plan)
        model = execute(outcome.plan, params).transfer_seconds
        residual = outcome.elapsed_seconds - model - DISPATCH_LATENCY_S
        assert abs(residual) <= bound, (size, residual)
        if bound < SLICE_OVERHEAD_S:  # the bound resolves one window
            resolved += 1
            off = execute(outcome.plan, one_window_more).transfer_seconds
            assert abs(outcome.elapsed_seconds - off - DISPATCH_LATENCY_S) > bound
    assert resolved
