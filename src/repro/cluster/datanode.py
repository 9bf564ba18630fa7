"""Data node: stores chunks and executes pipelined transfer tasks.

A node executes :class:`~repro.cluster.messages.TransferTask` assignments
slice by slice, mirroring the execution model of
:mod:`repro.sim.transfer` exactly — leaf senders stream
coefficient-scaled slices of their chunk; hub nodes combine each incoming
slice with their own contribution before forwarding; every edge is a FIFO
serialised at its planned rate with a fixed per-slice overhead.  The
integration tests assert that the event-driven times measured here agree
with the vectorised recurrence, and that the rebuilt bytes are exact.

Events, sends and checksums are per slice; GF-scaling the node's own
bytes is per window or per task.  A leaf sender scales one window of
:data:`WINDOW_BYTES` ahead of its send cursor from a read-only view of
its chunk taken at assign; a hub scales its remaining range once from
such a view and folds arrivals into views of the result.  Neither
copies its raw chunk bytes (docs/DATAPLANE.md, "Windowed and
segment-granular scaling").
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ..ec import backend as ec_backend
from ..integrity.digest import slice_checksum
from ..net import units
from ..net.units import MEGABIT
from ..sim.events import EventQueue
from ..sim.transfer import COMPUTE_S_PER_BYTE, SLICE_OVERHEAD_S
from .chunkstore import ChunkStore
from .messages import SliceData, TransferTask

#: ``_slice_data(fields)`` builds a :class:`SliceData` from a tuple of
#: all eight fields without the generated ``__new__``'s Python frame;
#: the instance is indistinguishable from one built by keyword.
_slice_data = partial(tuple.__new__, SliceData)

#: Bytes a leaf sender scales ahead of its send cursor: a window is the
#: slices from the cursor up to the first slice boundary at or past this
#: many bytes, so a leaf holds about one window plus the slice in
#: flight, whatever its segment size.  The smallest of 64 / 128 / 256
#: KiB whose extra kernel calls keep a clean repair's wall time within
#: noise (docs/DATAPLANE.md).
WINDOW_BYTES = 64 * units.KIB


def _scale(coeff: int, source: np.ndarray | None, lo: int, hi: int) -> np.ndarray:
    """``coeff * source[lo:hi]`` through the EC backend (zeros for 0)."""
    if coeff == 0:
        return np.zeros(hi - lo, dtype=np.uint8)
    return ec_backend.get_backend().mul_chunk(coeff, source[lo:hi])


def _free(state: "_TaskState") -> None:
    """Drop a finished or cancelled task's buffers, slice tables and
    callback (a slice still in flight holds its own reference)."""
    state.bounds = None
    state.arrive = None
    state.partials = None
    state.source = None
    state.scaled = None
    state.arrived = None
    state.ready_at = None


def _mask(nodes) -> int:
    """Node ids as a bitmask: bit ``n`` set for each node ``n``."""
    mask = 0
    for n in nodes:
        mask |= 1 << n
    return mask


@dataclass(slots=True)
class _TaskState:
    """Progress of one pipeline task on one node."""

    task: TransferTask
    num_slices: int
    #: slice ``i`` spans ``[bounds[i], bounds[i + 1])``: the balanced
    #: split ``start + i*q + min(i, r)`` with ``q, r = divmod(len, num)``
    #: — the same table on every node of a pipeline, so slice
    #: boundaries line up across hops.  ``None`` once the task is
    #: released or cancelled (see ``_free``)
    bounds: list[int] | None
    #: ``task.wait_for`` as a bitmask (bit ``s`` for source node ``s``):
    #: the sources every slice needs; 0 for a leaf sender
    wait_for: int
    #: planned edge rate in bytes/s (a straggler cap applies per slice)
    rate: float
    #: ``DataNode._arrive`` bound to this state at assign: every send's callback
    arrive: partial | None = None
    #: hub only: per-slice payload accumulator (own contribution XOR
    #: arrivals); each entry is a view into ``scaled``
    partials: list[np.ndarray | None] | None = None
    #: a leaf's read-only view of its chunk as stored at assign (``None``
    #: for a zero coefficient); the store never writes a stored array,
    #: so it keeps those bytes whatever happens to the chunk later
    source: np.ndarray | None = None
    #: this node's coefficient-scaled bytes from ``scaled_lo``: a hub's
    #: ``[scaled_lo, task.stop)`` as of chunk generation ``generation``
    #: (see ``_prepare_own``), a leaf's current window (``_scale_window``)
    scaled: np.ndarray | None = None
    scaled_lo: int = 0
    generation: int = 0
    #: hub only: per-slice bitmask of sources already folded in
    arrived: list[int] | None = None
    #: hub only: per-slice time the slice became sendable (arrival + GF
    #: combine); recorded when the last dependency lands so combine time
    #: overlaps the edge occupancy of earlier slices, as in the analytic
    #: model.  A leaf's slices are all ready at assign
    ready_at: list | None = None
    #: next index this node may send (FIFO order)
    next_send: int = 0
    #: when the outgoing edge frees up
    edge_free: float = 0.0
    #: the one slice on the wire (its arrival is pending), else ``None``
    sending: SliceData | None = None
    cancelled: bool = False


class DataNode:
    """One storage node: chunk store + pipelined task executor."""

    def __init__(
        self,
        node_id: int,
        events: EventQueue,
        *,
        deliver: Callable[[int, SliceData], None],
        on_bad_slice: Callable[[int, SliceData], None],
        on_bad_chunk: Callable[[int, TransferTask], None],
    ) -> None:
        self.node_id = node_id
        self.events = events
        self.store = ChunkStore()
        #: task states by wire id (``task.repair_id``), then pipeline
        #: id; the cluster routes each delivery through it
        self.tasks: dict[str, dict[int, _TaskState]] = {}
        #: the cluster's delivery callback: (dest, SliceData)
        self.deliver = deliver
        #: total payload bytes this node has put on the wire
        self.bytes_sent = 0
        #: observability hook installed by the cluster (its observer's
        #: ``transfer_hook``); called once per slice put on the wire:
        #: (src, dest, lo, hi, start_s, end_s, wire_id, pipeline_id)
        self.on_transfer = None
        #: cumulative seconds this node's uplink was occupied by sends
        self.uplink_busy_s = 0.0
        # ---- fault state (set by the cluster's fault hooks) ----------- #
        #: straggler: persistent cap (Mbps) on every rate this node sends at
        self.rate_cap_mbps: float | None = None
        #: stall: no slice may *start* transmitting before this time
        self.stalled_until: float = 0.0
        #: report faults: heartbeat reports dropped until / delayed by
        self.reports_suppressed_until: float = 0.0
        self.report_delay_s: float = 0.0
        #: wire corruption: slices starting before this time are garbled
        #: in flight (the sender's stored data stays intact)
        self.wire_corrupt_until: float = 0.0
        self._wire_rng: np.random.Generator | None = None
        # ---- the cluster's integrity hooks ----------------------------- #
        #: called when an incoming slice fails its checksum:
        #: (receiving_node, SliceData); the cluster requests a retransmit
        self.on_bad_slice = on_bad_slice
        #: called when this node's stored chunk fails digest verification
        #: at assign time: (node, TransferTask); the cluster quarantines
        #: the chunk and re-plans the repair around it
        self.on_bad_chunk = on_bad_chunk

    # ------------------------------------------------------------------ #

    def assign(self, task: TransferTask) -> None:
        """Accept a transfer task from the master and start executing."""
        seg_len = task.stop - task.start
        if seg_len <= 0:
            return
        if task.coeff != 0:
            # read-path digest check: refuse to stream a rotten chunk
            # into the pipeline — the cluster quarantines it and
            # re-plans with a different helper
            if not (
                self.store.has(task.stripe_id, task.chunk_index)
                and self.store.verify(task.stripe_id, task.chunk_index)
            ):
                self.on_bad_chunk(self.node_id, task)
                return
        num = max(1, min(task.num_slices, seg_len))
        q, r = divmod(seg_len, num)
        state = _TaskState(
            task=task,
            num_slices=num,
            bounds=[task.start + i * q + min(i, r) for i in range(num + 1)],
            wait_for=_mask(task.wait_for),
            rate=task.rate_mbps * MEGABIT / 8.0,  # units.mbps_to_bytes_per_s
            edge_free=self.events.now,
        )
        state.arrive = partial(self._arrive, state)
        self.tasks.setdefault(task.repair_id, {})[task.pipeline_id] = state
        if task.wait_for:
            state.partials = [None] * num
            state.arrived = [0] * num
            state.ready_at = [None] * num
        else:
            # leaf sender: every slice is ready now, from the chunk as
            # stored now; the first window is scaled before the first send
            if task.coeff != 0:
                state.source = self.store.view(task.stripe_id, task.chunk_index)
            self._scale_window(state, 0)
            self._pump(state)

    def cancel_repair(self, repair_id: str) -> int:
        """Stop executing tasks of a retired repair attempt.

        Nothing further is sent and the tasks' buffers are freed, as
        :meth:`release_repair` frees them.  Slices already on the wire
        still arrive: one for a cancelled task is checksum-checked, so
        wire corruption is still reported, and then dropped.  Returns
        the number of tasks cancelled.
        """
        cancelled = 0
        for state in self.tasks.get(repair_id, {}).values():
            if not state.cancelled:
                state.cancelled = True
                _free(state)
                cancelled += 1
        return cancelled

    def release_repair(self, repair_id: str) -> None:
        """Free the per-slice state of a repair whose every slice landed.

        The task entries stay, so the cluster's routing (task lookup,
        stale-epoch handling) sees what it saw before; a retransmit
        request for a released task is refused like one for a lost task.
        """
        for state in self.tasks.get(repair_id, {}).values():
            _free(state)

    def receive(self, data: SliceData, state: _TaskState) -> None:
        """Fold an incoming partial into ``state``, the task of this node
        that consumes it.  Only the folded slice can become sendable, so
        the task sends only if it did, is next, and nothing is in flight."""
        if slice_checksum(data.payload) != data.checksum:
            # corrupted in flight: drop before any bookkeeping so the
            # retransmitted copy is not a duplicate
            self.on_bad_slice(self.node_id, data)
            return
        bounds = state.bounds
        if bounds is None:
            return  # a late slice of a cancelled task: checked, dropped
        idx = bisect_left(bounds, data.start)
        if idx >= state.num_slices or bounds[idx] != data.start:
            raise RuntimeError(f"misaligned slice start {data.start}")
        bit = 1 << data.source
        arrived = state.arrived[idx]
        if arrived & bit:
            raise RuntimeError(
                f"node {self.node_id}: duplicate slice {idx} from {data.source}"
            )
        if state.partials[idx] is None:
            self._prepare_own(state, idx)
        partial = state.partials[idx]
        if len(data.payload) != len(partial):
            raise RuntimeError(
                f"node {self.node_id}: slice {idx} size {len(data.payload)} "
                f"!= expected {len(partial)}"
            )
        np.bitwise_xor(partial, data.payload, out=partial)
        arrived = state.arrived[idx] = arrived | bit
        if not state.wait_for & ~arrived:
            # last dependency landed: the slice becomes sendable after the
            # GF combine, which overlaps earlier slices' edge occupancy
            state.ready_at[idx] = (
                self.events.now + COMPUTE_S_PER_BYTE * len(partial)
            )
            if idx == state.next_send and state.sending is None:
                self._pump(state)

    # ------------------------------------------------------------------ #

    def _prepare_own(self, state: _TaskState, idx: int) -> None:
        """Initialise a hub's slice ``idx`` with this node's own contribution.

        The whole not-yet-read remainder ``[bounds[idx], stop)`` is
        scaled by one kernel call the first time any slice needs it,
        from a read-only view of the chunk (no copy of the raw bytes)
        starting at the even byte at or before ``bounds[idx]``, as a
        leaf window does; later slices take views of the result.  A
        slice's bytes are those the chunk held when the slice was
        prepared: the store bumps the chunk's generation on every
        mutation and replaces the stored array rather than writing it,
        so if the generation moved since the remainder was scaled (bit
        rot mid-repair), the remainder is read again from here on —
        slices already prepared keep what they read.
        """
        t = state.task
        lo = state.bounds[idx]
        generation = self.store.generation(t.stripe_id, t.chunk_index)
        if (
            state.scaled is None
            or generation != state.generation
            or lo < state.scaled_lo
        ):
            source = (
                self.store.view(t.stripe_id, t.chunk_index) if t.coeff else None
            )
            start = lo & ~1
            state.scaled = _scale(t.coeff, source, start, t.stop)
            state.scaled_lo = start
            state.generation = generation
        off = lo - state.scaled_lo
        state.partials[idx] = state.scaled[off : off + state.bounds[idx + 1] - lo]

    def _pump(self, state: _TaskState) -> None:
        """Start transmitting the next ready slice (edge FIFO order).

        One send is in flight per task at a time: the next slice starts
        when the previous one's edge occupancy ends, so fault state
        (straggler caps, stalls) applied mid-transfer affects every
        slice that has not yet started — unlike scheduling the whole
        segment ahead of time, which would bake rates in at assign time.
        """
        if state.sending is not None or state.cancelled:
            return
        idx = state.next_send
        if idx >= state.num_slices:
            return
        if state.wait_for:
            payload = state.partials[idx]
            ready = state.ready_at[idx]
            if payload is None or ready is None:
                return  # still waiting on upstream partials for this slice
        else:
            # leaf: slice the window, scaling the next one when the
            # cursor leaves it; the message keeps its own view, so a
            # window lives until its last slice is delivered.  Every
            # slice was ready at assign, where ``edge_free`` started.
            bounds = state.bounds
            lo = bounds[idx]
            off = lo - state.scaled_lo
            if off >= len(state.scaled):
                self._scale_window(state, idx)
                off = lo - state.scaled_lo
            payload = state.scaled[off : off + bounds[idx + 1] - lo]
            ready = state.edge_free
        state.next_send += 1
        state.sending, arrival = self._transmit(state, idx, ready, payload)
        self.events.schedule_at(arrival, state.arrive)

    def _arrive(self, state: _TaskState) -> None:
        """The slice in flight on ``state``'s edge lands: hand it to the
        cluster, then send the task's next slice if it is ready."""
        msg = state.sending
        state.sending = None
        self.deliver(state.task.destination, msg)
        self._pump(state)

    def _scale_window(self, state: _TaskState, idx: int) -> None:
        """Scale a leaf's window starting at slice ``idx`` into ``scaled``.

        The window runs to the first slice boundary at least
        :data:`WINDOW_BYTES` past ``bounds[idx]`` (or to the task's end):
        one kernel call, whatever the slice size.  It starts at the even
        byte at or before ``bounds[idx]``, so the kernel reads whole
        aligned byte pairs (``mul_chunk``'s gather-only path).
        """
        bounds = state.bounds
        lo = bounds[idx]
        end = min(bisect_left(bounds, lo + WINDOW_BYTES, idx + 1), state.num_slices)
        lo &= ~1
        state.scaled = _scale(state.task.coeff, state.source, lo, bounds[end])
        state.scaled_lo = lo

    def _transmit(
        self, state: _TaskState, idx: int, not_before: float,
        payload: np.ndarray,
    ) -> tuple[SliceData, float]:
        """Put ``payload``, slice ``idx``, on the task's edge:
        ``(message, arrival)``.

        The slice starts once it is ready, the edge FIFO is free and no
        stall holds the node; it occupies the edge for its bytes at the
        planned (or straggler-capped) rate plus the per-slice overhead.
        """
        t = state.task
        lo, hi = state.bounds[idx], state.bounds[idx + 1]
        if self.rate_cap_mbps is None:
            rate = state.rate
        else:
            rate = min(t.rate_mbps, self.rate_cap_mbps) * MEGABIT / 8.0
        occupancy = (hi - lo) / rate + SLICE_OVERHEAD_S
        start_tx = max(not_before, state.edge_free, self.stalled_until)
        state.edge_free = arrival = start_tx + occupancy
        # SliceData's fields in order.  The checksum covers the payload
        # as sent; wire corruption happens after, on a copy, so the
        # retained partial stays clean for retransmission.  The corrupt
        # copy is made first: it draws the wire RNG.
        msg = _slice_data((
            t.stripe_id, t.pipeline_id, self.node_id, lo, hi,
            payload if start_tx >= self.wire_corrupt_until
            else self._corrupt(payload),
            t.repair_id,
            slice_checksum(payload),
        ))
        self.bytes_sent += hi - lo
        self.uplink_busy_s += occupancy
        if self.on_transfer is not None:
            self.on_transfer(
                self.node_id, t.destination, lo, hi, start_tx, arrival,
                t.repair_id, t.pipeline_id,
            )
        return msg, arrival

    def _corrupt(self, payload: np.ndarray) -> np.ndarray:
        """Garble a *copy* of a payload sent in the armed corruption
        window (``corrupt_wire`` arms the window and the RNG together)."""
        rng = self._wire_rng
        garbled = payload.copy()
        count = min(int(rng.integers(1, 9)), len(garbled))
        positions = rng.choice(len(garbled), size=count, replace=False)
        masks = rng.integers(1, 256, size=count, dtype=np.uint8)
        garbled[positions] ^= masks
        return garbled

    def retransmit(self, key: tuple[str, int], start: int, stop: int) -> bool:
        """Resend one slice whose first copy failed its checksum downstream.

        The retransmit rides the same edge FIFO (extends ``edge_free``)
        at the task's planned rate but outside the one-in-flight pump
        cycle: downstream progress on later slices is already gated by
        the receiver, which will not fold anything until this slice
        lands.  Returns False when the task is gone, released or
        cancelled — the caller falls back to the watchdog path.

        A leaf resends from its current window, or re-scales a slice it
        already dropped from the same view of its chunk, so the resent
        bytes and checksum are the first send's.
        """
        state = self.tasks.get(key[0], {}).get(key[1])
        if state is None or state.bounds is None:
            return False
        idx = bisect_left(state.bounds, start)
        if idx >= state.num_slices or state.bounds[idx] != start:
            raise RuntimeError(f"misaligned slice start {start}")
        if state.wait_for:
            payload = state.partials[idx]
        elif start >= state.scaled_lo:
            off = start - state.scaled_lo
            payload = state.scaled[off : off + stop - start]
        else:
            payload = _scale(
                state.task.coeff, state.source, start, state.bounds[idx + 1]
            )
        if payload is None or len(payload) != stop - start:
            return False
        msg, arrival = self._transmit(state, idx, self.events.now, payload)
        dest = state.task.destination
        self.events.schedule_at(arrival, lambda m=msg, d=dest: self.deliver(d, m))
        return True

    def pending_tasks(self) -> int:
        """Tasks not yet fully sent (diagnostic)."""
        return sum(
            1
            for pipelines in self.tasks.values()
            for s in pipelines.values()
            if s.next_send < s.num_slices
        )
