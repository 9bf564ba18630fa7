"""Count gate: data-plane work per repair is per task, not per slice.

The clean (14,10) repair below is 40 transfer tasks of 16 slices each.  The
node's own bytes are read and GF-scaled once per task, and a chunk is
digested once per mutation — so the calls below are bounded by the
number of *tasks* and of *chunks*, whatever the slice count.  Counts,
unlike timings, are the same on every machine: a change that quietly
returns to per-slice kernel calls or per-task whole-chunk digests trips
this gate by a factor of the slice count.

Memory is gated the same way, in chunks rather than MiB: the
``tracemalloc`` high-water of one warmed write or repair, divided by the
chunk size, counts the chunk-sized buffers alive at once — the same
number on every machine.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.cluster import ClusterSystem, chunkstore
from repro.cluster.chunkstore import ChunkStore
from repro.cluster.datanode import DataNode
from repro.ec import RSCode
from repro.ec.backend import get_backend
from repro.net import BandwidthSnapshot

pytestmark = pytest.mark.ec

N, K = 14, 10
NUM_NODES = 16
CHUNK = 256 * 1024
SLICE = 16 * 1024


def _cluster(chunk: int, slice_bytes: int):
    """A (14,10) cluster on fixed random bandwidth, and k random data rows."""
    system = ClusterSystem(NUM_NODES, RSCode(N, K), slice_bytes=slice_bytes)
    rng = np.random.default_rng(7)
    system.set_bandwidth(
        BandwidthSnapshot(
            uplink=rng.uniform(100.0, 1000.0, NUM_NODES),
            downlink=rng.uniform(100.0, 1000.0, NUM_NODES),
        )
    )
    return system, rng.integers(0, 256, (K, chunk), dtype=np.uint8)


@pytest.fixture
def counted(monkeypatch):
    """A (14,10) cluster with one failed node, and the calls it makes."""
    counts = {"mul_chunk": 0, "get_range": 0, "get": 0, "chunk_digest": 0}
    tasks = []

    def counting(owner, attr, key):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(type(get_backend()), "mul_chunk", "mul_chunk")
    counting(ChunkStore, "get_range", "get_range")
    counting(ChunkStore, "get", "get")
    counting(chunkstore, "chunk_digest", "chunk_digest")  # the store's binding
    real_assign = DataNode.assign
    monkeypatch.setattr(
        DataNode, "assign",
        lambda node, task: (tasks.append(task), real_assign(node, task))[1],
    )

    system, data = _cluster(CHUNK, SLICE)
    system.write_stripe("s", data, placement=tuple(range(N)))
    system.fail_node(0)
    for key in counts:
        counts[key] = 0
    return system, data, counts, tasks


def test_one_clean_repair_works_per_task_and_per_chunk(counted):
    system, data, counts, tasks = counted
    outcome = system.repair("s", 0, 15, store=False)
    assert outcome.verified and np.array_equal(outcome.rebuilt, data[0])

    scaled = [t for t in tasks if t.coeff != 0]
    slices = sum(t.num_slices for t in tasks)
    assert len(tasks) > K and slices >= 10 * len(tasks)  # the gate has teeth
    assert 0 < counts["mul_chunk"] <= len(scaled)
    assert 0 < counts["get_range"] <= len(tasks)
    # assign-time helper checks plus the post-repair audit: at most one
    # digest per surviving chunk of the stripe, however many tasks read it
    helpers = {t.chunk_index for t in scaled}
    assert K <= len(helpers) <= counts["chunk_digest"] <= N - 1
    # the audit and the settle-time comparison read the stores in place
    assert counts["get"] == 0


def test_a_second_repair_digests_nothing(counted):
    system, data, counts, tasks = counted
    system.repair("s", 0, 15, store=False)
    counts["chunk_digest"] = 0
    outcome = system.repair("s", 0, 15, store=False)
    assert outcome.verified and np.array_equal(outcome.rebuilt, data[0])
    assert counts["chunk_digest"] == 0  # no chunk changed since the first


# --------------------------------------------------------------------- #
# memory: chunk-sized buffers alive at once, in units of the chunk       #
# --------------------------------------------------------------------- #

MEM_CHUNK = 1024 * 1024
MEM_SLICE = 64 * 1024  # the paper's slice size


def _traced_peak(action) -> int:
    """High-water of the bytes ``action`` allocated, tracemalloc-counted."""
    gc.collect()
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def warmed():
    """A cluster whose encode path, plan and kernel tables are warm."""
    system, data = _cluster(MEM_CHUNK, MEM_SLICE)
    system.write_stripe("warm", data, placement=tuple(range(N)))
    return system, data


def test_a_warmed_write_builds_only_the_parity(warmed):
    system, data = warmed
    peak = _traced_peak(
        lambda: system.write_stripe("s", data, placement=tuple(range(N)))
    )
    # the n stored copies are the write; on top of them only the n - k
    # parity rows and one chunk of slack, not a second (n, L) stripe
    assert N * MEM_CHUNK <= peak <= (2 * N - K + 1) * MEM_CHUNK


def test_a_warmed_clean_repair_holds_k_plus_two_chunks(warmed):
    system, data = warmed
    system.fail_node(0)
    system.repair("warm", 0, 15, store=False)
    outcome = None

    def repair():
        nonlocal outcome
        outcome = system.repair("warm", 0, 15, store=False)

    peak = _traced_peak(repair)
    assert outcome.verified and np.array_equal(outcome.rebuilt, data[0])
    # k x chunk of scaled segments is the repair's traffic and must be
    # there; the requester's buffer and per-slice state fit in two more
    # chunks because segments are released before the audit and the
    # audit predicts block by block over the stored chunks
    assert K * MEM_CHUNK <= peak <= (K + 2) * MEM_CHUNK
