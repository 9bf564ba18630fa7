"""Count gate: data-plane work per repair is per task, not per slice.

The clean (14,10) repair below is 40 transfer tasks of 16 slices each.  The
node's own bytes are read and GF-scaled once per task, and a chunk is
digested once per mutation — so the calls below are bounded by the
number of *tasks* and of *chunks*, whatever the slice count.  Counts,
unlike timings, are the same on every machine: a change that quietly
returns to per-slice kernel calls or per-task whole-chunk digests trips
this gate by a factor of the slice count.
"""

from __future__ import annotations

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


@pytest.fixture
def counted(monkeypatch):
    """A (14,10) cluster with one failed node, and the calls it makes."""
    counts = {"mul_chunk": 0, "get_range": 0, "chunk_digest": 0}
    tasks = []

    def counting(owner, attr, key):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(type(get_backend()), "mul_chunk", "mul_chunk")
    counting(ChunkStore, "get_range", "get_range")
    counting(chunkstore, "chunk_digest", "chunk_digest")  # the store's binding
    real_assign = DataNode.assign
    monkeypatch.setattr(
        DataNode, "assign",
        lambda node, task: (tasks.append(task), real_assign(node, task))[1],
    )

    system = ClusterSystem(NUM_NODES, RSCode(N, K), slice_bytes=SLICE)
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


def test_a_second_repair_digests_nothing(counted):
    system, data, counts, tasks = counted
    system.repair("s", 0, 15, store=False)
    counts["chunk_digest"] = 0
    outcome = system.repair("s", 0, 15, store=False)
    assert outcome.verified and np.array_equal(outcome.rebuilt, data[0])
    assert counts["chunk_digest"] == 0  # no chunk changed since the first
