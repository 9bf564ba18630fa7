"""Slice-granular pipelined-transfer execution of a repair plan.

Given a :class:`~repro.repair.plan.RepairPlan`, a chunk size and a slice
size, this module computes the exact makespan of the data transfer under
store-and-forward slice pipelining:

* every pipeline edge carries the pipeline's chunk segment, split into
  fixed-size slices;
* a node may forward slice ``i`` to its parent only after slice ``i`` has
  arrived from **all** of its children and has been combined with the local
  chunk data (GF combine time is charged per byte);
* an edge transmits slices in order, one at a time, at its planned rate,
  with a fixed per-slice overhead (framing, syscalls, ACK turnaround).

Rather than a heap-driven simulation, the forest structure admits an exact
per-edge recurrence that vectorises over slices (see
:func:`_fifo_arrivals`), so a 32768-slice pipeline costs microseconds
to evaluate while producing event-exact results.  The closed-form model in
:mod:`repro.sim.analytic` cross-checks this executor in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..net import units
from ..repair.plan import Pipeline, RepairPlan

# The execution model, written once.  The event-driven cluster
# (repro.cluster), the attribution replay (repro.obs.attr) and
# TransferParams' defaults all read these three constants.

#: Fixed link-time overhead charged per slice per hop (packet framing,
#: syscall and protocol turnaround): the term that penalises tiny
#: slices in Experiment 4.
SLICE_OVERHEAD_S = 200e-6

#: Effective per-byte GF-combine cost (seconds/byte) of a helper/requester.
#: Corresponds to ~8 GB/s table-lookup XOR/GF throughput on a commodity
#: server core — fast enough that bandwidth dominates, per paper §IV-C.
COMPUTE_S_PER_BYTE = 1.25e-10

#: Master-to-node latency of one task dispatch: the cluster starts a
#: plan's transfers this long after scheduling it.
DISPATCH_LATENCY_S = 200e-6


@dataclass(frozen=True)
class TransferParams:
    """Execution-model constants.

    Attributes
    ----------
    chunk_bytes:
        Size of the failed chunk.
    slice_bytes:
        Pipelining granularity.  ``None`` disables slicing (whole-segment
        store-and-forward, used by conventional repair).
    slice_overhead_s:
        Link-time overhead charged per slice per hop
        (:data:`SLICE_OVERHEAD_S` unless a sweep varies it).
    compute_s_per_byte:
        GF-combination cost charged at every non-leaf node per byte
        forwarded (:data:`COMPUTE_S_PER_BYTE` unless a sweep varies it).
    """

    chunk_bytes: int
    slice_bytes: int | None = 64 * units.KIB
    slice_overhead_s: float = SLICE_OVERHEAD_S
    compute_s_per_byte: float = COMPUTE_S_PER_BYTE

    def __post_init__(self) -> None:
        if self.chunk_bytes < 0:
            raise ValueError("chunk_bytes must be non-negative")
        if self.slice_bytes is not None and self.slice_bytes <= 0:
            raise ValueError("slice_bytes must be positive or None")
        if self.slice_overhead_s < 0 or self.compute_s_per_byte < 0:
            raise ValueError("overheads must be non-negative")


@dataclass(frozen=True)
class TransferResult:
    """Outcome of executing a plan's data phase.

    Attributes
    ----------
    transfer_seconds:
        Makespan of the data transfer (slowest pipeline).
    pipeline_seconds:
        Per-pipeline completion times, aligned with ``plan.pipelines``.
    bytes_moved:
        Total bytes crossing all links (repair-traffic volume).
    """

    transfer_seconds: float
    pipeline_seconds: tuple[float, ...]
    bytes_moved: float


def effective_slice_bytes(
    pipeline: Pipeline, total_rate: float, params: TransferParams
) -> float | None:
    """Per-pipeline slice size under the time-window interpretation.

    A slice is one *time quantum* of the whole schedule: in each window
    the full schedule moves ``slice_bytes`` of repaired data, so a
    pipeline carrying ``rate / total_rate`` of the aggregate moves that
    fraction of the slice per window.  For single-pipeline plans (RP,
    PPT, PivotRepair, conventional) this is exactly ``params.slice_bytes``;
    for FullRepair it keeps thin pipelines' store-and-forward start-up
    proportional, matching a real deployment where every pipeline slices
    its own segment into the same *number* of pieces per unit time.
    """
    if params.slice_bytes is None:
        return None
    if total_rate <= 0:
        return float(params.slice_bytes)
    frac = pipeline.rate / total_rate
    # fractional byte counts are fine: this is a fluid model, and keeping
    # the scaling exact makes every pipeline see the same window count
    return params.slice_bytes * min(1.0, max(frac, 1e-12))


def _pipeline_makespan(
    pipeline: Pipeline,
    requester: int,
    params: TransferParams,
    total_rate: float,
) -> tuple[float, float]:
    """(completion time, bytes moved) for one pipeline."""
    seg_bytes = pipeline.segment.length * params.chunk_bytes
    if seg_bytes <= 0:
        return 0.0, 0.0
    slice_bytes = effective_slice_bytes(pipeline, total_rate, params)
    if slice_bytes is None:
        sizes = np.array([seg_bytes])
    else:
        full = int(seg_bytes // slice_bytes)
        rem = seg_bytes - full * slice_bytes
        sizes = np.full(full + (1 if rem > 1e-9 else 0), float(slice_bytes))
        if rem > 1e-9:
            sizes[-1] = rem
    children: dict[int, list[int]] = {}
    edge_rate: dict[int, float] = {}
    for e in pipeline.edges:
        children.setdefault(e.parent, []).append(e.child)
        edge_rate[e.child] = e.rate

    combine = params.compute_s_per_byte * sizes

    # Bottom-up sweep over the tree: record a root-first order with an
    # explicit stack, then process it reversed so every node sees its
    # children's arrival streams first.  Iterating (rather than recursing
    # per child) keeps arbitrarily deep chain trees — RP's path topology
    # grows linearly in k — clear of the interpreter recursion limit.
    order = [requester]
    stack = [requester]
    while stack:
        for child in children.get(stack.pop(), ()):
            order.append(child)
            stack.append(child)
    # The recurrence touches four slice-length vectors per edge; with
    # 32768-slice pipelines and k-deep trees that used to mean hundreds
    # of transient megabyte arrays per makespan.  Reuse one scratch set
    # across every edge of the sweep, and recycle each consumed child
    # accumulator for the next node — the float operations and their
    # order are unchanged, only the destinations are, so results stay
    # bit-identical to the allocating form.
    occ = np.empty_like(sizes)
    sendable = np.empty_like(sizes)
    arr = np.empty_like(sizes)
    csum = np.empty_like(sizes)
    free: list[np.ndarray] = []
    ready: dict[int, np.ndarray] = {}
    for node in reversed(order):
        acc = free.pop() if free else np.empty_like(sizes)
        acc[:] = 0.0  # leaves: stays zero (local data)
        for child in children.get(node, ()):
            child_in = ready.pop(child)
            # the child combines its own chunk data with what it received
            if children.get(child):
                np.add(child_in, combine, out=sendable)
            else:
                np.copyto(sendable, child_in)
            rate = units.mbps_to_bytes_per_s(edge_rate[child])
            np.divide(sizes, rate, out=occ)
            occ += params.slice_overhead_s
            # per-slice occupancy varies only on the last slice; use the
            # exact FIFO recurrence with slice-wise occupancy
            _fifo_arrivals_into(sendable, occ, 0.0, arr, csum)
            np.maximum(acc, arr, out=acc)
            free.append(child_in)
        ready[node] = acc

    final = ready[requester]
    final += combine  # requester's own combine
    bytes_moved = float(seg_bytes) * len(pipeline.edges)
    return float(final[-1]), bytes_moved


def _fifo_arrivals_into(
    ready: np.ndarray,
    occupancy: np.ndarray,
    latency: float,
    out: np.ndarray,
    csum: np.ndarray,
) -> np.ndarray:
    """In-place FIFO recurrence: arrivals land in ``out``.

    ``start[i] = max(ready[i], start[i-1] + occ[i-1])`` unrolls against
    the prefix sums of occupancy.  ``out`` and ``csum`` are caller-owned
    slice-length scratch; every float operation happens in the same
    order as the allocating expression (``np.cumsum`` accumulates
    sequentially, so its prefix values are independent of the dropped
    final element), keeping results bit-identical.
    """
    csum[0] = 0.0
    np.cumsum(occupancy[:-1], out=csum[1:])
    np.subtract(ready, csum, out=out)
    np.maximum.accumulate(out, out=out)
    out += csum
    out += occupancy
    out += latency
    return out


def _fifo_arrivals(ready: np.ndarray, occupancy: np.ndarray, latency: float) -> np.ndarray:
    """Like :func:`_edge_arrival_times` but with per-slice occupancy.

    Allocating wrapper over :func:`_fifo_arrivals_into`.
    """
    return _fifo_arrivals_into(
        ready, occupancy, latency, np.empty_like(ready), np.empty_like(ready)
    )


def execute(plan: RepairPlan, params: TransferParams) -> TransferResult:
    """Execute a plan's data phase; returns the exact transfer makespan.

    The plan is validated (structure + simultaneous rate feasibility)
    before execution, so an infeasible schedule fails loudly rather than
    producing fictitious times.
    """
    plan.validate()
    times = []
    total_bytes = 0.0
    total_rate = plan.total_rate
    for p in plan.pipelines:
        t, b = _pipeline_makespan(p, plan.context.requester, params, total_rate)
        times.append(t)
        total_bytes += b
    return TransferResult(
        transfer_seconds=float(max(times)) if times else 0.0,
        pipeline_seconds=tuple(times),
        bytes_moved=total_bytes,
    )
