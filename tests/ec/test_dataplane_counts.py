"""Count gate: data-plane work per repair is per window, not per slice.

The clean (14,10) repair below is 40 transfer tasks of 16 slices each.  A
node's own bytes are GF-scaled once per window of
:data:`~repro.cluster.datanode.WINDOW_BYTES` (a leaf) or once per task
(a hub), and a chunk is digested at most once per mutation — so the
calls below are bounded by windows, tasks and chunks, whatever the slice
count.  A stripe whose stored chunks were proven on their codeword (by
the write, or by the last audit) and have not changed since is audited
by predicting the lost row alone.
Counts, unlike timings, are the same on every machine: a change that
quietly returns to per-slice kernel calls or per-task whole-chunk
digests trips this gate by a factor of the slice count.

Memory is gated the same way, in chunks rather than MiB: the
``tracemalloc`` high-water of one warmed write or repair, divided by the
chunk size, counts the chunk-sized buffers alive at once — the same
number on every machine.
"""

from __future__ import annotations

import gc
import threading
import tracemalloc

import numpy as np
import pytest

from repro.cluster import ClusterSystem, chunkstore
from repro.cluster.chunkstore import ChunkStore
from repro.cluster.datanode import WINDOW_BYTES, DataNode
from repro.ec import RSCode, kernels
from repro.ec.backend import get_backend
from repro.integrity.verify import BLOCK_BYTES
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
    #: rows of every ``matmul_chunks`` product: only the audit's, in a repair
    audit_rows = []

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
    #: (call, shape of its first argument) of every kernel table lookup
    #: and gather inside those products
    audit_gathers = []
    backend = type(get_backend())
    real_matmul = backend.matmul_chunks

    def matmul(self, matrix, *args, **kwargs):
        audit_rows.append(len(matrix))
        with monkeypatch.context() as scope:
            for owner, name in (
                (kernels, "fused_tables"), (kernels, "pair_table"), (np, "take")
            ):
                real = getattr(owner, name)
                scope.setattr(
                    owner, name,
                    lambda *a, real=real, name=name, **kw: (
                        audit_gathers.append((name, np.shape(a[0]))),
                        real(*a, **kw),
                    )[1],
                )
            return real_matmul(self, matrix, *args, **kwargs)

    monkeypatch.setattr(backend, "matmul_chunks", matmul)
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
    audit_rows.clear()
    audit_gathers.clear()
    counts["audit_rows"] = audit_rows
    counts["audit_gathers"] = audit_gathers
    return system, data, counts, tasks


def test_one_clean_repair_works_per_task_and_per_chunk(counted):
    system, data, counts, tasks = counted
    outcome = system.repair("s", 0, 15, store=False)
    assert outcome.verified and np.array_equal(outcome.rebuilt, data[0])

    scaled = [t for t in tasks if t.coeff != 0]
    slices = sum(t.num_slices for t in tasks)
    windows = sum(-(-(t.stop - t.start) // WINDOW_BYTES) for t in scaled)
    assert len(tasks) > K and slices >= 10 * len(tasks)  # the gate has teeth
    assert windows <= len(scaled) + slices // 10  # ... and the bound keeps them
    assert 0 < counts["mul_chunk"] <= windows
    # hubs and leaves both scale from views of their chunk: no copy
    assert any(t.wait_for for t in tasks)  # ... and there are hubs
    assert counts["get_range"] == 0
    # assign-time helper checks and the post-repair audit of a freshly
    # written stripe: every put was intact, so nothing is re-digested
    helpers = {t.chunk_index for t in scaled}
    assert K <= len(helpers) and counts["chunk_digest"] == 0
    # the write proved the stripe: the audit predicts the lost row alone,
    # one block at a time, from the other data chunks and the XOR parity
    # P0 — copies and XOR folds, with no table and no gather
    assert counts["audit_rows"] == [1] * -(-CHUNK // BLOCK_BYTES)
    assert counts["audit_gathers"] == []
    # the audit and the settle-time comparison read the stores in place
    assert counts["get"] == 0


def test_a_second_repair_digests_nothing(counted):
    system, data, counts, tasks = counted
    system.repair("s", 0, 15, store=False)
    counts["chunk_digest"] = 0
    outcome = system.repair("s", 0, 15, store=False)
    assert outcome.verified and np.array_equal(outcome.rebuilt, data[0])
    assert counts["chunk_digest"] == 0  # no chunk changed since the first


def test_silent_rot_after_a_clean_audit_is_checked_in_full(counted):
    system, data, counts, tasks = counted
    system.repair("s", 0, 15, store=False)  # a clean audit renews the proof
    rotten = N - 1
    assert system.corrupt_chunk(rotten, "s", rotten, seed=5, fix_digest=True)
    counts["chunk_digest"] = 0
    counts["audit_rows"].clear()
    counts["audit_gathers"].clear()
    outcome = system.repair("s", 0, 15, store=False)
    # the rot moved the chunk's generation: it is digested once (and its
    # digest matches), the audit predicts every row outside the decode
    # set and leave-one-out names the culprit
    assert counts["chunk_digest"] == 1
    assert counts["audit_rows"][0] == N - K
    # ... in one gather group: the XOR row rides a lane of the other three
    assert {
        shape for call, shape in counts["audit_gathers"] if call == "fused_tables"
    } == {(N - K, K)}
    assert rotten in outcome.quarantined_chunks
    assert system.master.is_quarantined("s", rotten)


# --------------------------------------------------------------------- #
# memory: chunk-sized buffers alive at once, in units of the chunk       #
# --------------------------------------------------------------------- #

MIB = 1024 * 1024
MEM_SLICE = 64 * 1024  # the paper's slice size
#: chunk size (MiB) -> high-water bound of one warmed clean repair, in
#: chunks (reads 4.67 / 2.71 / 2.22; 6.41 / 3.87 / 2.22 with 2 MiB kernel
#: blocks, 11.4-11.5 at every size with whole-segment scaling).  Leaves
#: hold a window each, so the bound falls as the chunk grows.
REPAIR_HIGH_WATER = {1: 5, 4: 3, 16: 3}


def _traced_peak(action) -> int:
    """High-water of the bytes ``action`` allocated, tracemalloc-counted."""
    gc.collect()
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _warmed(chunk: int):
    """A cluster whose encode path, plan and kernel tables are warm."""
    system, data = _cluster(chunk, MEM_SLICE)
    system.write_stripe("warm", data, placement=tuple(range(N)))
    return system, data


def test_a_warmed_write_builds_only_the_parity():
    system, data = _warmed(MIB)
    peak = _traced_peak(
        lambda: system.write_stripe("s", data, placement=tuple(range(N)))
    )
    # the n stored copies are the write; on top of them only the n - k
    # parity rows and one chunk of slack, not a second (n, L) stripe
    assert N * MIB <= peak <= (2 * N - K + 1) * MIB


def test_a_warmed_write_gathers_the_parity_in_one_group(monkeypatch):
    """The n - k = 4 parity rows, XOR row P0 among them, are one uint64
    gather group: P0 rides a lane, no row is peeled into XOR passes."""
    system, data = _warmed(MIB)
    fused = []
    real = kernels.fused_tables
    monkeypatch.setattr(
        kernels, "fused_tables", lambda m: fused.append(real(m)) or fused[-1]
    )
    system.write_stripe("s", data, placement=tuple(range(N)))
    (tables,) = set(fused)  # one cached table set
    ((start, width, dtype, _),) = tables.groups
    assert (start, width, dtype) == (0, N - K, np.uint64)


@pytest.mark.parametrize("mib", sorted(REPAIR_HIGH_WATER))
def test_a_warmed_clean_repair_holds_the_bytes_in_flight(mib):
    chunk = mib * MIB
    system, data = _warmed(chunk)
    system.fail_node(0)
    system.repair("warm", 0, 15, store=False)
    outcome = None

    def repair():
        nonlocal outcome
        outcome = system.repair("warm", 0, 15, store=False)

    peak = _traced_peak(repair)
    assert outcome.verified and np.array_equal(outcome.rebuilt, data[0])
    # the requester's buffer must be there; on top of it each leaf holds
    # about one window ahead of its send cursor, each hub its segment,
    # and a clean audit predicts block by block without a chunk-sized row
    assert chunk <= peak <= REPAIR_HIGH_WATER[mib] * chunk


def test_the_kernel_scratch_is_sized_to_the_block_not_the_chunk():
    """A (14,10) encode and decode of 16 MiB chunks leave the thread's
    kernel workspace exactly as large as 64 KiB chunks left it."""
    code = RSCode(N, K)
    rng = np.random.default_rng(3)
    sizes = []

    def workspace_bytes() -> int:
        ws = kernels._workspace()
        arrays = (ws.idx, ws.val, ws.tmp16, ws.pairbuf, *ws.accs.values())
        return sum(a.nbytes for a in arrays)

    def encode_and_decode(chunk: int) -> None:
        stripe = code.encode(rng.integers(0, 256, (K, chunk), dtype=np.uint8))
        # the parity rows in the decode set: a dense (k, k) inverse
        code.decode({i: stripe[i] for i in range(N - K, N)})
        sizes.append(workspace_bytes())

    def run() -> None:  # a fresh thread starts without a workspace
        encode_and_decode(64 * 1024)
        encode_and_decode(16 * MIB)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join()
    small, large = sizes
    # 2.75 MiB: one block's index, gather, staging and three row-group
    # accumulators (28 MiB with 2 MiB kernel blocks)
    assert 0 < small == large <= 3 * MIB
