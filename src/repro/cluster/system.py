"""ClusterSystem — the end-to-end prototype.

Ties the pieces into the paper's §V-A system: an RS-coded cluster of data
nodes with a master, where clients write stripes, nodes fail, and failed
chunks are rebuilt through whichever repair algorithm the master runs.
The control plane (reports, dispatch) and the data plane (slice
transfers with real GF arithmetic) both run on the deterministic event
queue, so a repair returns the rebuilt *bytes* (verified against the
original) plus the simulated wall-clock it took.

Beyond the paper's single-chunk scenario the prototype also supports:

* **concurrent repairs** — multiple stripes rebuilt in one event-queue
  run (the substrate for full-node repair batches);
* **degraded reads** — serving a chunk whose node is down by repairing
  on the read path without persisting;
* **mid-repair failure recovery** — a progress watchdog detects a
  stalled transfer (crashed helper, dead link), aborts the attempt, and
  re-plans only the *unfinished remainder* against the surviving
  helpers, walking the degradation ladder (helper promotion -> full
  re-plan -> conventional star fallback) before giving an explicit
  ``failed`` verdict (see ``docs/FAULTS.md``);
* **fault injection** — :class:`~repro.faults.FaultInjector` schedules
  crashes, stragglers, stalls, and report faults onto the same event
  queue through the cluster's fault hooks (:meth:`fail_node`,
  :meth:`set_rate_cap`, :meth:`stall_node`, :meth:`suppress_reports`,
  :meth:`delay_reports`);
* **full-node repair** — rebuilding every chunk of a dead node through
  the batch planner in :mod:`repro.core.fullnode`;
* **end-to-end integrity** — per-chunk digests and per-slice wire
  checksums (:mod:`repro.integrity`), silent-corruption fault hooks
  (:meth:`corrupt_chunk`, :meth:`arm_torn_write`, :meth:`corrupt_wire`),
  post-repair verification against surplus parity with leave-one-out
  localization and quarantine of poisoned chunks, and checksum-failed
  slice retransmission (see ``docs/INTEGRITY.md``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..core.fullnode import StripeRepairSpec, plan_full_node_repair
from ..ec.rs import RSCode
from ..faults import COMPLETED, DEGRADED, ESCALATED, FAILED
from ..integrity.digest import slice_checksum
from ..integrity.verify import audit_stripe
from ..net import units
from ..net.bandwidth import BandwidthSnapshot, RepairContext
from ..obs import NULL_FLEET, NULL_METRICS, NULL_TRACER
from ..repair.base import RepairAlgorithm, get_algorithm
from ..repair.plan import RepairPlan
from ..repair.recovery import uncovered_intervals
from ..sim.events import EventQueue
from ..sim.transfer import COMPUTE_S_PER_BYTE, DISPATCH_LATENCY_S
from .datanode import DataNode
from .master import DeadNodeError, Master, RepairImpossibleError, StripeLocation, bits
from .messages import BandwidthReport, SliceData, TransferTask

log = logging.getLogger("repro.cluster.system")

#: ``failure_reason`` text of a non-blocking repair bounced back because a
#: second chunk was lost mid-repair; the recovery orchestrator matches it
#: to requeue the stripe without charging its retry allowance
ESCALATION_MARK = "multi-chunk repair required"


@dataclass
class RepairOutcome:
    """Result of one end-to-end chunk repair.

    Attributes
    ----------
    status:
        Terminal verdict (see :mod:`repro.faults`): ``completed`` (the
        planned algorithm finished, possibly after re-plans), ``degraded``
        (finished via a ladder rung — helper promotion or star fallback),
        ``escalated`` (a second chunk was lost mid-repair; finished
        through the multi-chunk path), or ``failed`` (explicit failure
        verdict — never silent corruption).
    retries:
        Attempts aborted by the progress watchdog (re-dispatches).
    replans:
        Plans computed after the first (full re-plans and promotions).
    bytes_retransferred:
        Payload bytes received at the requester whose byte ranges never
        completed in their attempt and had to be repaired again.
    corruption_detected:
        Silent corruption was caught somewhere in this repair — a
        helper chunk failing its digest, a wire slice failing its
        checksum, a torn write caught on readback, or a post-repair
        parity verification failure.
    quarantined_chunks:
        Stripe chunk indices this repair proved corrupt and quarantined.
    """

    plan: RepairPlan | None
    rebuilt: np.ndarray | None
    elapsed_seconds: float
    bytes_received: int
    verified: bool
    attempts: int = 1
    status: str = COMPLETED
    retries: int = 0
    replans: int = 0
    bytes_retransferred: int = 0
    failure_reason: str | None = None
    corruption_detected: bool = False
    quarantined_chunks: tuple = ()


@dataclass
class _Assembly:
    """Requester-side reassembly of one failed chunk, across attempts."""

    stripe_id: str
    repair_id: str
    requester: int
    chunk_bytes: int
    failed_node: int = -1
    #: chunk index lost on failed_node, resolved at dispatch — the live
    #: placement may have relocated it by the time the repair settles
    #: (a degraded read racing the orchestrator on the same chunk)
    lost_chunk: int = -1
    #: pipeline key -> bitmask of the sender nodes expected to deliver
    #: that range (bit ``n`` for node ``n``)
    expected: dict[int, int] = field(default_factory=dict)
    #: pipeline key -> bytes of its range not yet decode-complete
    outstanding: dict[int, int] = field(default_factory=dict)
    #: pipeline key -> {(lo, hi): bitmask of sources arrived} per slice range
    slice_arrivals: dict[int, dict] = field(default_factory=dict)
    #: byte ranges with every contribution folded in (decode-correct),
    #: accumulated across attempts — the complement is the remainder
    completed: list = field(default_factory=list)
    done_bytes: int = 0
    buffer: np.ndarray = field(repr=False, default=None)
    received: int = 0
    last_arrival: float = 0.0
    # ---- recovery state (single-chunk repair path only) --------------- #
    plan: RepairPlan | None = None
    attempt: int = 0
    retries: int = 0
    replans: int = 0
    bytes_retransferred: int = 0
    wire_id: str = ""
    failure_reason: str | None = None
    escalate: bool = False
    degraded: bool = False
    timer: object = None
    armed_timeout: float = 0.0
    timer_mark: int = -1
    max_attempts: int = 3
    watchdog: bool = False
    # ---- divergence-detector sampler (DivergenceMonitor wired only) --- #
    detect_timer: object = None
    detect_period_s: float = 0.0
    detect_mark: int = 0
    detect_mark_t: float = 0.0
    #: participant node -> uplink busy seconds at the previous tick
    detect_busy: dict = field(default_factory=dict)
    # ---- integrity state ---------------------------------------------- #
    corruption_detected: bool = False
    #: stripe chunk indices this repair proved corrupt and quarantined
    quarantined: list = field(default_factory=list)
    #: post-repair parity verification verdict (None = not verifiable)
    integrity_ok: bool | None = None
    #: attempt number the completed-buffer verification last ran for
    #: (guards against re-verifying on _finish_assembly re-entry)
    integrity_attempt: int = -1
    # ---- non-blocking dispatch (orchestrator path) -------------------- #
    #: terminal callback fired exactly once with the assembly itself
    on_done: object = None
    store: bool = True
    start_time: float = 0.0
    busy_before: list | None = None
    #: fraction of cluster bandwidth this repair (and its re-plans) may use
    bandwidth_scale: float = 1.0
    # ---- observability (None / NULL_SPAN when tracing is off) --------- #
    span: object = None
    attempt_span: object = None

    @property
    def complete(self) -> bool:
        return self.done_bytes >= self.chunk_bytes

    @property
    def failed(self) -> bool:
        return self.failure_reason is not None

    @property
    def running(self) -> bool:
        """A watchdog repair not yet complete, failed or escalated — the
        only kind a crash or a timeout acts on."""
        return self.watchdog and not (self.complete or self.failed or self.escalate)

    def plan_participants(self) -> tuple[int, ...]:
        if self.plan is None:
            return ()
        return tuple(
            sorted({c for p in self.plan.pipelines for c in p.participants})
        )


def _pipeline_rates(tasks: list[TransferTask]) -> dict[int, float]:
    """Each pipeline's end-to-end rate: the min task rate on its chain.

    Recorded on pipeline spans so the bottleneck-attribution replay
    (:mod:`repro.obs.attr`) can compare measured durations against the
    plan without access to the plan object itself.
    """
    rates: dict[int, float] = {}
    for t in tasks:
        cur = rates.get(t.pipeline_id)
        if cur is None or t.rate_mbps < cur:
            rates[t.pipeline_id] = t.rate_mbps
    return rates


class ClusterSystem:
    """An erasure-coded storage cluster with pluggable repair scheduling."""

    def __init__(
        self,
        num_nodes: int,
        code: RSCode,
        *,
        algorithm: str | RepairAlgorithm = "fullrepair",
        slice_bytes: int = 64 * units.KIB,
        tracer=None,
        metrics=None,
        fleet=None,
        slo=None,
    ) -> None:
        if num_nodes < code.n + 1:
            raise ValueError(
                f"need at least n+1={code.n + 1} nodes (stripe + requester), "
                f"got {num_nodes}"
            )
        self.code = code
        self.events = EventQueue()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.fleet = fleet if fleet is not None else NULL_FLEET
        self.slo = slo
        if self.tracer.enabled and self.tracer.clock is None:
            # spans are keyed to *simulated* time, not wall-clock
            self.tracer.clock = lambda: self.events.now
        if self.fleet.enabled and self.fleet.clock is None:
            self.fleet.clock = lambda: self.events.now
        #: online divergence detection (``repro.obs.detect``): assign a
        #: DivergenceMonitor (and set its ``clock``) and watchdog repairs
        #: sample realised throughput against the plan's t_max and abort
        #: diverged attempts *before* the timeout fallback fires
        self.divergence = None
        if isinstance(algorithm, str):
            algorithm = get_algorithm(algorithm)
        self.master = Master(code, algorithm, num_nodes)
        self.master.tracer = self.tracer
        self.master.metrics = self.metrics
        self.master.fleet = self.fleet
        self.slice_bytes = slice_bytes
        self.nodes = [
            DataNode(i, self.events, slice_bytes=slice_bytes)
            for i in range(num_nodes)
        ]
        #: (wire id, pipeline id) -> open pipeline span (tracer enabled only)
        self._pipeline_spans: dict[tuple[str, int], object] = {}
        on_transfer = self._transfer_hook()
        for node in self.nodes:
            node.deliver = self._deliver
            node.on_bad_slice = self._on_bad_slice
            node.on_bad_chunk = self._on_bad_chunk
            node.on_transfer = on_transfer
        #: node mask of the crashed nodes (the truth; ``master.dead`` is
        #: the master's belief); only :meth:`fail_node` writes it
        self.down = 0
        self._assemblies: dict[str, _Assembly] = {}
        #: wire id (repair id or per-attempt epoch) -> live assembly
        self._wire_assembly: dict[str, _Assembly] = {}
        #: wire ids of aborted attempts; their in-flight slices are
        #: silently dropped instead of corrupting the new attempt's state
        self._retired: set[str] = set()
        self._stripe_sizes: dict[str, int] = {}
        self._heartbeat_on = False
        self._heartbeat_period_s = 0.05
        self._heartbeat_pending = False
        #: callbacks fired (with the node id) whenever a node crashes —
        #: how the recovery orchestrator learns of new failures
        self._failure_listeners: list = []
        #: monotone suffix source keeping async repair ids collision-free
        self._async_seq = 0

    # ---- cluster state ------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def is_alive(self, node: int) -> bool:
        return not self.down >> node & 1

    @property
    def live_mask(self) -> int:
        """Node mask of the nodes that may take new work: not crashed
        and not declared dead by the master."""
        return ((1 << len(self.nodes)) - 1) & ~(self.down | self.master.dead)

    @property
    def live(self) -> list[int]:
        """:attr:`live_mask` as ascending node ids."""
        return bits(self.live_mask)

    def spares(self, stripe_id: str) -> list[int]:
        """Ascending live nodes outside the stripe's placement: the one
        rule for rebuild targets, readers and escalation requesters."""
        placement = self.master.stripe(stripe_id).placement
        return [n for n in self.live if n not in placement]

    def unavailable(self, stripe_id: str) -> int:
        """Chunk mask of the stripe's chunks that cannot serve: on a
        crashed node (:attr:`down`) or quarantined (``master.corrupt``).
        Serving reads the crash truth; planning
        (``Master.build_context``) reads the master's belief."""
        down, placement = self.down, self.master.stripe(stripe_id).placement
        lost = sum(1 << ci for ci, n in enumerate(placement) if down >> n & 1)
        return lost | self.master.corrupt.get(stripe_id, 0)

    def serving(self, stripe_id: str) -> tuple[int, ...]:
        """Placement nodes whose chunk can serve, in chunk order."""
        word = self.unavailable(stripe_id)
        placement = self.master.stripe(stripe_id).placement
        return tuple(n for ci, n in enumerate(placement) if not word >> ci & 1)

    def crashed(self, stripe_id: str) -> tuple[int, ...]:
        """Placement nodes that crashed: what a single-chunk repair counts
        as lost when it decides to escalate (a quarantined chunk is
        re-planned around, not lost, unlike in :meth:`unavailable_nodes`)."""
        down, placement = self.down, self.master.stripe(stripe_id).placement
        return tuple(n for n in placement if down >> n & 1)

    def set_bandwidth(self, snapshot: BandwidthSnapshot) -> None:
        """Feed the master a fresh bandwidth picture (live nodes report)."""
        if snapshot.num_nodes != self.num_nodes:
            raise ValueError("snapshot size mismatch")
        for i in self.live:  # dead nodes do not report (master would reject)
            self.master.on_bandwidth_report(
                BandwidthReport(
                    node=i,
                    uplink_mbps=float(snapshot.uplink[i]),
                    downlink_mbps=float(snapshot.downlink[i]),
                ),
                now=self.events.now,
            )

    @property
    def traffic_bytes(self) -> int:
        """Total payload bytes every node has put on the wire so far."""
        return sum(node.bytes_sent for node in self.nodes)

    def write_stripe(
        self,
        stripe_id: str,
        data: np.ndarray,
        *,
        placement: tuple[int, ...] | None = None,
    ) -> StripeLocation:
        """Encode k data chunks and distribute the stripe across nodes.

        ``data`` is a (k, L) uint8 array.  Placement defaults to nodes
        ``0..n-1``; every chunk must land on a distinct, live node.
        """
        data = np.asarray(data, dtype=np.uint8)
        # the stores copy what they are handed: put the caller's data rows
        # as they are, and build only the parity rows
        rows = (*data, *self.code.parity(data))
        if placement is None:
            placement = tuple(range(self.code.n))
        if any(self.down >> p & 1 for p in placement):
            raise ValueError("cannot place chunks on failed nodes")
        loc = StripeLocation(stripe_id=stripe_id, placement=tuple(placement))
        self.master.register_stripe(loc)
        for idx, node in enumerate(placement):
            self.nodes[node].store.put(stripe_id, idx, rows[idx])
        self._stripe_sizes[stripe_id] = int(data.shape[1])
        return loc

    def fail_node(self, node: int) -> None:
        """Crash a node (its chunks become unreachable).

        The master is *not* told directly: the control plane learns of
        the death through detection — the dispatch-time liveness probe,
        a progress-watchdog abort, or heartbeat-lease expiry.

        A crash is classified against every active self-healing repair:
        a *participant* (helper/hub of the current plan) crash is left to
        the progress watchdog, which re-plans the remainder; a crash
        that loses a second, *uninvolved* chunk of the stripe escalates
        the repair to the multi-chunk path immediately.
        """
        self.down |= 1 << node
        log.debug("node %d crashed at t=%.6f", node, self.events.now)
        if self.tracer.enabled:
            self.tracer.event(self._live_span(), "node.crash", node=node)
        for asm in list(self._assemblies.values()):
            if not asm.running:
                continue
            loc = self.master.stripe(asm.stripe_id)
            if (
                node in loc.placement
                and node != asm.failed_node
                and node not in asm.plan_participants()
            ):
                self._escalate(
                    asm, node=node, reason="second chunk lost mid-repair"
                )
        listeners = list(self._failure_listeners)
        profiler = self.events.profiler
        if profiler is not None:
            profiler.record_fanout("failure_listeners", len(listeners))
        for listener in listeners:
            listener(node)

    def _escalate(self, asm: _Assembly, **attrs) -> None:
        """End a watchdog repair that lost a second chunk: its caller
        restarts it through the multi-chunk path."""
        asm.escalate = True
        if self.tracer.enabled:
            self.tracer.event(asm.span, "repair.escalate", **attrs)
        self._finish_assembly(asm, retire=True)

    def add_failure_listener(self, callback) -> None:
        """Register ``callback(node)`` to run whenever a node crashes.

        Listeners run *after* the crash has been classified against every
        active repair, so a listener observing the cluster sees the
        post-crash state (escalations already flagged).
        """
        self._failure_listeners.append(callback)

    # ---- fault hooks (used by repro.faults.FaultInjector) -------------- #

    def set_rate_cap(self, node: int, rate_cap_mbps: float | None) -> None:
        """Straggler: cap every rate ``node`` sends at (``None`` clears)."""
        self.nodes[node].rate_cap_mbps = rate_cap_mbps

    def stall_node(self, node: int, duration_s: float) -> None:
        """Freeze a node's data plane: no slice starts transmitting and
        no delivery lands at it until the stall elapses."""
        until = self.events.now + duration_s
        node_ = self.nodes[node]
        node_.stalled_until = max(node_.stalled_until, until)

    def suppress_reports(self, node: int, duration_s: float) -> None:
        """Drop the node's heartbeat reports for a while (lost reports)."""
        node_ = self.nodes[node]
        node_.reports_suppressed_until = max(
            node_.reports_suppressed_until, self.events.now + duration_s
        )

    def delay_reports(self, node: int, delay_s: float) -> None:
        """Delay the node's heartbeat reports by a fixed lag (late reports)."""
        self.nodes[node].report_delay_s = delay_s

    def corrupt_chunk(
        self,
        node: int,
        stripe_id: str | None = None,
        chunk_index: int | None = None,
        *,
        flips: int = 8,
        seed: int = 0,
        fix_digest: bool = False,
    ) -> bool:
        """Bit rot: flip bytes of a chunk stored on ``node``.

        With ``stripe_id``/``chunk_index`` unset, the victim is picked
        deterministically (seeded) among the chunks the node stores.
        No-op on a dead node (its unreachable store doubles as the
        ground-truth oracle in tests — rot there would be unobservable
        anyway).  Returns whether anything was corrupted.
        """
        if self.down >> node & 1:
            return False
        store = self.nodes[node].store
        if stripe_id is None or chunk_index is None:
            keys = store.chunk_keys()
            if stripe_id is not None:
                keys = [k for k in keys if k[0] == stripe_id]
            if not keys:
                return False
            rng = np.random.default_rng(seed)
            stripe_id, chunk_index = keys[int(rng.integers(0, len(keys)))]
        elif not store.has(stripe_id, chunk_index):
            return False
        flipped = store.corrupt(
            stripe_id, chunk_index, flips=flips, seed=seed, fix_digest=fix_digest
        )
        log.debug(
            "bit rot: %d bytes of %s chunk %d on node %d (fix_digest=%s)",
            flipped, stripe_id, chunk_index, node, fix_digest,
        )
        return flipped > 0

    def arm_torn_write(
        self, node: int, tail_fraction: float = 0.25, seed: int = 0
    ) -> None:
        """Torn write: the node's next chunk store lands with a garbled
        tail (its digest records what the writer intended)."""
        self.nodes[node].store.arm_torn_write(tail_fraction, seed)

    def corrupt_wire(self, node: int, duration_s: float, seed: int = 0) -> None:
        """Wire corruption: slices ``node`` sends while the window is
        open are garbled in flight (stored data stays intact); receivers
        catch them via the per-slice checksum and request retransmits."""
        n = self.nodes[node]
        n.wire_corrupt_until = max(
            n.wire_corrupt_until, self.events.now + duration_s
        )
        if n._wire_rng is None:
            n._wire_rng = np.random.default_rng(seed)

    def enable_heartbeats(self, period_s: float = 0.05) -> None:
        """Run periodic bandwidth heartbeats while repairs are active.

        Every live, unsuppressed node reports each ``period_s``; the
        master expires the lease of any node silent for three periods
        (:meth:`~repro.cluster.master.Master.check_leases`) and
        excludes it from subsequent plans.  A lease false positive heals
        itself: the next report from a live node rejoins it.
        """
        self.master.configure_lease(period_s)
        self._heartbeat_on = True
        self._heartbeat_period_s = period_s

    def stripes_on(self, node: int) -> list[str]:
        """Stripe ids that placed a chunk on the given node."""
        return self.master.stripes_with_node(node)

    def chunk_bytes_of(self, stripe_id: str) -> int:
        """Chunk size in bytes of a stored stripe."""
        return self._stripe_sizes[stripe_id]

    def read_chunk(self, stripe_id: str, chunk_index: int) -> np.ndarray:
        """Direct chunk read: a read-only view of the stored bytes.

        The view holds the bytes of the chunk's generation at the read
        (:meth:`ChunkStore.view`: the store replaces, never writes, an
        array it holds), so it needs no copy; writing to it raises.
        """
        loc = self.master.stripe(stripe_id)
        node = loc.node_of(chunk_index)
        if self.down >> node & 1:
            raise RuntimeError(f"chunk {chunk_index} lives on failed node {node}")
        return self.nodes[node].store.view(stripe_id, chunk_index)

    # ---- integrity ---------------------------------------------------- #

    def quarantine_chunk(
        self,
        stripe_id: str,
        chunk_index: int,
        node: int | None = None,
        *,
        kind: str = "verify",
    ) -> bool:
        """Mark a chunk corrupt: excluded from every plan until rebuilt.

        The stored payload is *not* deleted (quarantine is a metadata
        verdict; repairs already streaming the chunk are aborted and
        re-planned, never surprised by a vanishing buffer).  A repair
        that relocates the chunk clears the mark.  ``kind`` labels the
        detection path for metrics (``read``/``wire``/``verify``/
        ``scrub``).  Returns False when already quarantined.
        """
        if self.master.is_quarantined(stripe_id, chunk_index):
            return False
        self.master.quarantine_chunk(stripe_id, chunk_index)
        if node is None:
            node = self.master.stripe(stripe_id).node_of(chunk_index)
        log.debug(
            "quarantined %s chunk %d on node %d (%s)",
            stripe_id, chunk_index, node, kind,
        )
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_integrity_quarantined_total",
                "Chunks quarantined as corrupt, by detection path.",
                kind=kind,
            ).inc()
        self._count_detection(kind)
        if self.tracer.enabled:
            self.tracer.event(
                None, "integrity.quarantine",
                stripe=stripe_id, chunk=chunk_index, node=node, kind=kind,
            )
        return True

    def _count_detection(self, kind: str) -> None:
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_integrity_corruption_detected_total",
                "Silent-corruption detections, by detection path.",
                kind=kind,
            ).inc()

    def unavailable_nodes(self, stripe_id: str) -> tuple[int, ...]:
        """Placement nodes whose chunk cannot serve reads or repairs:
        dead, or holding a quarantined (corrupt) copy.  The recovery
        orchestrator's durability-exposure basis."""
        placement = self.master.stripe(stripe_id).placement
        return tuple(placement[ci] for ci in bits(self.unavailable(stripe_id)))

    def exposure(self, stripe_id: str) -> int:
        """Lost chunks of the stripe: dead nodes and quarantined
        (corrupt-but-live) copies both erode its erasure budget."""
        return self.unavailable(stripe_id).bit_count()

    def can_serve(self, stripe_id: str, chunk_index: int, node: int) -> bool:
        """Whether ``node``'s copy of the chunk may serve reads and
        repairs: the node is alive and the chunk is not quarantined —
        bit ``chunk_index`` of :meth:`unavailable`, read straight from
        the two words for a caller that already knows the node."""
        return not (
            self.down >> node & 1
            or self.master.corrupt.get(stripe_id, 0) >> chunk_index & 1
        )

    def _on_bad_chunk(self, node: int, task: TransferTask) -> None:
        """A helper's stored chunk failed its digest at assign time."""
        self.quarantine_chunk(task.stripe_id, task.chunk_index, node, kind="read")
        rid = task.repair_id or task.stripe_id
        asm = self._wire_assembly.get(rid)
        if asm is None or asm.watchdog and not asm.running:
            return
        asm.corruption_detected = True
        if task.chunk_index not in asm.quarantined:
            asm.quarantined.append(task.chunk_index)
        if self.tracer.enabled:
            self.tracer.event(
                asm.attempt_span or asm.span,
                "integrity.bad_chunk",
                node=node,
                chunk=task.chunk_index,
            )
        reason = (
            f"helper chunk {task.chunk_index} failed digest verification "
            f"on node {node}"
        )
        if asm.watchdog:
            self._abort_attempt(asm, reason)
            return
        # an unwatched chunk has no next attempt: the helper's pipelines
        # can never finish, so the chunk fails now and its wire retires
        asm.failure_reason = reason
        self._finish_assembly(asm, retire=True)

    def _on_bad_slice(self, dest: int, data: SliceData) -> None:
        """An in-flight slice failed its checksum at the receiving hop."""
        rid = data.repair_id or data.stripe_id
        self._count_detection("wire")
        span = self._pipeline_spans.get((rid, data.pipeline_id))
        if self.tracer.enabled:
            self.tracer.event(
                span, "integrity.wire_corruption",
                src=data.source, dst=dest, lo=data.start, hi=data.stop,
            )
        log.debug(
            "wire corruption caught: %d->%d [%d, %d) of %s",
            data.source, dest, data.start, data.stop, rid,
        )
        asm = self._wire_assembly.get(rid)
        if asm is not None:
            asm.corruption_detected = True
        if rid in self._retired or self.down >> data.source & 1:
            return  # stale epoch / dead sender: the watchdog path owns it
        if self.nodes[data.source].retransmit(
            (rid, data.pipeline_id), data.start, data.stop
        ):
            if self.metrics.enabled:
                self.metrics.counter(
                    "repro_integrity_retransmits_total",
                    "Slices re-sent after a checksum failure downstream.",
                ).inc()
            if self.tracer.enabled:
                self.tracer.event(
                    span, "integrity.retransmit",
                    src=data.source, lo=data.start, hi=data.stop,
                )
        # a refused retransmit leaves the range incomplete; the progress
        # watchdog aborts and re-plans the remainder

    def _audit(self, asm: _Assembly):
        """The audit-and-quarantine loop of both repair families (each
        judges the returned ``AuditReport`` by its own rule): digest-scan
        the stored chunks, parity-audit the rebuilt buffer, quarantine
        and record every culprit, and mark the assembly
        ``corruption_detected`` when the audit fails.

        Only live, non-quarantined holders participate; the leave-one-out
        localization therefore runs within *stored* chunks only — with a
        rotten helper both the helper and the rebuilt value are
        off-codeword, so mixing the rebuilt chunk into the candidate set
        could never localize.
        """
        sid = asm.stripe_id
        placement = self.master.stripe(sid).placement
        stored: dict[int, np.ndarray] = {}
        digest_bad: list[int] = []
        skip = self.unavailable(sid) | 1 << asm.lost_chunk
        for ci, node in enumerate(placement):
            if skip >> ci & 1:
                continue
            store = self.nodes[node].store
            if not store.has(sid, ci):
                continue
            if store.verify(sid, ci):
                stored[ci] = store.view(sid, ci)
            else:
                digest_bad.append(ci)
        report = audit_stripe(
            self.code, asm.lost_chunk, asm.buffer, stored,
            digest_bad=tuple(digest_bad),
        )
        if report.ok is False:
            for ci in report.culprits:
                self.quarantine_chunk(sid, ci, kind="verify")
                if ci not in asm.quarantined:
                    asm.quarantined.append(ci)
            asm.corruption_detected = True
        return report

    def _verify_completed(self, asm: _Assembly) -> bool:
        """Post-repair verification of a completed watchdog assembly.

        True — the assembly is terminal (verified clean, healed from
        surplus parity, or explicitly failed); False — the rebuilt bytes
        were poisoned, the culprit is quarantined, and a fresh attempt
        has been scheduled over the remaining helpers.
        """
        report = self._audit(asm)
        tracer = self.tracer
        m = self.metrics

        def note(result: str) -> None:
            if m.enabled:
                m.counter(
                    "repro_integrity_verifications_total",
                    "Post-repair stripe verifications by result.",
                    result=result,
                ).inc()
            if tracer.enabled:
                tracer.event(
                    asm.attempt_span or asm.span,
                    "integrity.verify",
                    result=result,
                    culprits=list(report.culprits),
                    checked=report.checked,
                )

        if report.ok:
            asm.integrity_ok = True
            note("ok")
            return True
        if report.ok is None:
            # too few clean chunks survive to check anything
            asm.integrity_ok = None
            note("unverifiable")
            return True
        if report.rebuilt_ok:
            # rot exists at rest but the culprit never fed this repair:
            # the rebuilt value checks out against the clean chunks
            asm.integrity_ok = True
            note("corrupt-helper")
            return True
        if report.culprits and asm.attempt < asm.max_attempts:
            # the rebuilt bytes are poisoned: scrub everything and
            # repair again with the quarantined culprit excluded
            note("retry")
            log.debug(
                "%s: rebuilt chunk failed verification (culprits %s); "
                "re-repairing", asm.repair_id, list(report.culprits),
            )
            if asm.timer is not None:
                self.events.cancel(asm.timer)
                asm.timer = None
            asm.bytes_retransferred += asm.done_bytes
            asm.buffer[:] = 0
            asm.completed = []
            asm.done_bytes = 0
            self._abort_attempt(
                asm, "rebuilt chunk failed integrity verification"
            )
            return False
        if report.predicted is not None:
            # attempts exhausted (or no culprit among stored chunks) but
            # the surplus parity pins the true value: heal in place
            asm.buffer[:] = report.predicted
            asm.integrity_ok = True
            asm.degraded = True
            if m.enabled:
                m.counter(
                    "repro_integrity_healed_total",
                    "Rebuilt chunks healed from surplus parity after "
                    "failing verification.",
                ).inc()
            if tracer.enabled:
                tracer.event(
                    asm.attempt_span or asm.span, "integrity.healed",
                    stripe=asm.stripe_id, chunk=asm.lost_chunk,
                )
            note("healed")
            return True
        asm.failure_reason = (
            "rebuilt chunk failed integrity verification and the "
            "corruption could not be localized"
        )
        note("failed")
        return True

    # ---- repair ------------------------------------------------------- #

    def repair(
        self,
        stripe_id: str,
        failed_node: int,
        requester: int,
        *,
        injector=None,
        max_attempts: int = 3,
        store: bool = True,
        on_failure: str = "raise",
    ) -> RepairOutcome:
        """Rebuild the failed node's chunk of a stripe at ``requester``.

        Runs the full protocol on the event queue: the master schedules
        (using its current bandwidth picture), dispatches transfer tasks
        after :data:`~repro.sim.transfer.DISPATCH_LATENCY_S`, data nodes
        stream and combine slices, the requester assembles, stores, and
        verifies the chunk.

        The repair is self-healing: a progress watchdog (auto-sized from
        the plan's throughput) aborts an attempt that stops making
        progress, scrubs half-received slices, and re-dispatches after
        an exponential backoff (``BACKOFF_BASE_S * 2**(attempt-1)``) —
        re-planning only the unfinished remainder down the master's
        degradation ladder.  A second chunk loss mid-repair escalates to
        :meth:`repair_multi` (which persists the rebuilt chunks
        regardless of ``store``).

        Faults: ``injector`` arms a whole
        :class:`~repro.faults.FaultInjector` schedule (a single crash is
        ``events.schedule(delay, lambda: fail_node(node))`` before the
        call).

        After ``max_attempts`` attempts (or an impossible re-plan) the
        repair ends with an explicit verdict: ``on_failure="raise"``
        raises ``RuntimeError``; ``"outcome"`` returns a
        :class:`RepairOutcome` with ``status="failed"`` — never a
        silently corrupt chunk.

        A *live* ``failed_node`` is accepted when its chunk is
        quarantined as corrupt (a scrub-repair): the rotten copy is
        excluded from helpers, the chunk is rebuilt on the requester,
        and relocation clears the quarantine.
        """
        if on_failure not in ("raise", "outcome"):
            raise ValueError('on_failure must be "raise" or "outcome"')
        asm = self._open_repair(
            stripe_id, failed_node, requester,
            injector=injector,
            store=store,
            max_attempts=max_attempts,
        )
        self.events.run()
        outcome = self._settle_outcome(asm, drained=True)
        if outcome.status == FAILED and on_failure == "raise":
            raise RuntimeError(
                f"repair of {stripe_id} failed after {outcome.attempts} "
                f"attempts: {outcome.failure_reason}"
            )
        return outcome

    def degraded_read(
        self, stripe_id: str, chunk_index: int, reader: int
    ) -> tuple[np.ndarray, float]:
        """Read a chunk, repairing on the fly if its node is down.

        Returns ``(payload, seconds)``.  A chunk its node can serve
        (:meth:`can_serve`) streams directly: the payload is a read-only
        view of the stored bytes, as from :meth:`read_chunk`.  A lost
        one is rebuilt at the reader without being persisted (the
        degraded-read path of erasure-coded stores).
        """
        loc = self.master.stripe(stripe_id)
        node = loc.node_of(chunk_index)
        if self.can_serve(stripe_id, chunk_index, node):
            payload = self.nodes[node].store.view(stripe_id, chunk_index)
            snap = self.master.snapshot()
            rate = min(snap.uplink[node], snap.downlink[reader])
            return payload, units.transfer_seconds(len(payload), rate)
        # node down, or its copy quarantined as corrupt: rebuild on the fly
        outcome = self.repair(stripe_id, node, reader, store=False)
        return outcome.rebuilt, outcome.elapsed_seconds

    def repair_multi(
        self,
        stripe_id: str,
        failed_nodes: tuple[int, ...],
        requester_for: dict[int, int],
    ) -> dict[int, RepairOutcome]:
        """Rebuild several lost chunks of ONE stripe concurrently.

        An (n, k) stripe tolerates up to n-k simultaneous failures; each
        lost chunk is rebuilt at its own requester by an independent
        multi-pipeline plan over the shared surviving helpers, all
        executing in the same event-queue run (each plan gets a fair 1/m
        share of every node's bandwidth, so their union is feasible).
        Returns outcomes keyed by failed node, in listed order; a chunk
        that never completes (a helper crashed mid-transfer) comes back
        ``failed`` while its siblings still settle.
        """
        plans = self._plan_multi(stripe_id, failed_nodes, requester_for)
        return self._run_group(
            [(f, plan, stripe_id, f, requester_for[f]) for f, plan in plans.items()]
        )

    def repair_node(
        self,
        failed_node: int,
        requester_for: dict[str, int] | None = None,
        *,
        strategy: str = "batched",
    ) -> dict[str, RepairOutcome]:
        """Rebuild every chunk the failed node held.

        Uses the :mod:`repro.core.fullnode` batch planner for batching
        decisions, then executes each batch's repairs concurrently on the
        event queue.  ``requester_for`` maps stripe ids to replacement
        nodes; defaults to spreading over live non-participant nodes.
        """
        if self.is_alive(failed_node):
            raise ValueError(f"node {failed_node} has not failed")
        stripe_ids = self.stripes_on(failed_node)
        if not stripe_ids:
            return {}
        requester_for = dict(requester_for or {})
        specs = []
        for i, sid in enumerate(stripe_ids):
            if sid not in requester_for:
                candidates = self.spares(sid)
                if not candidates:
                    raise RuntimeError(f"no replacement node available for {sid}")
                requester_for[sid] = candidates[i % len(candidates)]
            specs.append(
                StripeRepairSpec(
                    stripe_id=sid,
                    requester=requester_for[sid],
                    helpers=self.serving(sid),
                    chunk_bytes=self._stripe_sizes[sid],
                )
            )
        node_plan = plan_full_node_repair(
            specs,
            self.master.snapshot(),
            self.code.k,
            algorithm=self.master.algorithm.name,
            strategy=strategy,
        )
        outcomes: dict[str, RepairOutcome] = {}
        for batch in node_plan.batches:
            outcomes.update(self._run_group([
                (sid, node_plan.plans[sid], sid, failed_node, requester_for[sid])
                for sid in batch
            ]))
        return outcomes

    # ---- non-blocking dispatch (recovery-orchestrator substrate) ------ #

    def _plan_multi(
        self,
        stripe_id: str,
        failed_nodes: tuple[int, ...],
        requester_for: dict[int, int],
        *,
        bandwidth_scale: float = 1.0,
    ) -> dict[int, RepairPlan]:
        """Validate a multi-chunk repair and plan each lost chunk.

        Fair split: every concurrent repair plans inside a 1/m share of
        each node's bandwidth (an algorithm like FullRepair consumes
        everything it is offered, so residual carving would starve the
        later repairs); the shares are simultaneously feasible.  The
        split is carved out of ``bandwidth_scale`` — the budget share an
        orchestrator grants the whole stripe.
        """
        loc = self.master.stripe(stripe_id)
        failed_nodes = tuple(failed_nodes)
        if any(
            self.can_serve(stripe_id, loc.chunk_on(f), f) for f in failed_nodes
        ):
            raise ValueError("all listed nodes must have failed")
        if len(failed_nodes) > self.code.n - self.code.k:
            raise ValueError(
                f"an ({self.code.n},{self.code.k}) stripe tolerates at most "
                f"{self.code.n - self.code.k} failures"
            )
        helpers = self.serving(stripe_id)
        if len(helpers) < self.code.k:
            raise ValueError("not enough surviving helpers to decode")
        spares = self.spares(stripe_id)
        for f in failed_nodes:
            r = requester_for[f]
            if r not in spares:
                raise ValueError(f"invalid requester {r} for failed node {f}")
        if len(set(requester_for[f] for f in failed_nodes)) != len(failed_nodes):
            raise ValueError("each lost chunk needs a distinct requester")
        snapshot = self.master.snapshot()
        factor = bandwidth_scale / len(failed_nodes)
        share = BandwidthSnapshot(
            uplink=snapshot.uplink * factor,
            downlink=snapshot.downlink * factor,
        )
        plans: dict[int, RepairPlan] = {}
        for f in failed_nodes:
            context = RepairContext(
                snapshot=share,
                requester=requester_for[f],
                helpers=helpers,
                k=self.code.k,
                chunk_index={n: loc.chunk_on(n) for n in helpers},
            )
            plan = self.master.algorithm.plan(context)
            plan.validate()
            plans[f] = plan
        return plans

    def repair_async(
        self,
        stripe_id: str,
        failed_node: int,
        requester: int,
        *,
        on_done,
        store: bool = True,
        bandwidth_scale: float = 1.0,
        max_attempts: int = 3,
    ) -> str:
        """Start a self-healing chunk repair without draining the queue.

        The non-blocking sibling of :meth:`repair`, built for control
        loops that live *inside* the event queue (the recovery
        orchestrator, foreground degraded reads): the repair is planned
        inside ``bandwidth_scale`` of every node's bandwidth, dispatched,
        and left to the same watchdog/re-plan state machine; when it
        reaches a terminal state, ``on_done(outcome)`` fires from within
        the event-queue run.  A mid-repair second chunk loss is *not*
        escalated inline (that would nest an event-queue run); the
        outcome comes back ``failed`` with an explanatory
        ``failure_reason`` and the caller decides whether to re-dispatch
        through :meth:`repair_multi_async`.
        (DESIGN.md, "Repair entry points", tabulates all five calls.)

        Returns the repair id (unique per call, so concurrent repairs of
        the same chunk — e.g. a degraded read racing the orchestrator —
        never collide).  As with :meth:`repair`, a live ``failed_node``
        whose chunk is quarantined dispatches a scrub-repair.
        """
        asm = self._open_repair(
            stripe_id, failed_node, requester,
            on_done=lambda asm, cb=on_done: cb(self._settle_outcome(asm)),
            store=store,
            max_attempts=max_attempts,
            bandwidth_scale=bandwidth_scale,
        )
        return asm.repair_id

    def _open_repair(
        self,
        stripe_id: str,
        failed_node: int,
        requester: int,
        *,
        store: bool,
        max_attempts: int,
        injector=None,
        on_done=None,
        **budget,
    ) -> _Assembly:
        """Open a watchdog repair: validate, arm faults, start attempt 1.

        The one set-up behind :meth:`repair` and :meth:`repair_async`.
        ``budget`` is empty or ``bandwidth_scale=...``; it reaches both
        the assembly and the repair span's attributes.
        """
        lost_chunk = self.master.stripe(stripe_id).chunk_on(failed_node)
        if self.can_serve(stripe_id, lost_chunk, failed_node):
            raise ValueError(f"node {failed_node} has not failed")
        if self.down >> requester & 1:
            raise ValueError("requester node is down")
        repair_id = f"{stripe_id}/n{failed_node}"
        if on_done is not None:
            # non-blocking: unique per call, so concurrent repairs of one
            # chunk (a degraded read racing the orchestrator) never collide
            self._async_seq += 1
            repair_id += f"@a{self._async_seq}"
        if injector is not None:
            injector.arm(self)
        asm = self._open_assembly(
            stripe_id, failed_node, requester, repair_id, budget,
            max_attempts=max_attempts,
            watchdog=True,
            store=store,
            busy_before=(
                [(n.uplink_busy_s, n.downlink_busy_s) for n in self.nodes]
                if self.metrics.enabled
                else None
            ),
            on_done=on_done,
            **budget,
        )
        self._start_attempt(asm)
        return asm

    def _open_assembly(
        self, stripe_id: str, failed_node: int, requester: int,
        repair_id: str, span_attrs: dict, **fields,
    ) -> _Assembly:
        """Register a fresh assembly of the chunk ``failed_node`` lost and
        open its repair span: the set-up both repair families share."""
        chunk_bytes = self._stripe_sizes[stripe_id]
        asm = _Assembly(
            stripe_id=stripe_id,
            repair_id=repair_id,
            requester=requester,
            chunk_bytes=chunk_bytes,
            failed_node=failed_node,
            lost_chunk=self.master.stripe(stripe_id).chunk_on(failed_node),
            buffer=np.zeros(chunk_bytes, dtype=np.uint8),
            start_time=self.events.now,
            **fields,
        )
        if self.tracer.enabled:
            asm.span = self.tracer.start_span(
                f"repair {repair_id}",
                kind="repair",
                stripe=stripe_id,
                failed_node=failed_node,
                requester=requester,
                chunk_bytes=chunk_bytes,
                algorithm=self.master.algorithm.name,
                **span_attrs,
            )
        self._assemblies[repair_id] = asm
        return asm

    def _settle_outcome(
        self, asm: _Assembly, *, drained: bool = False
    ) -> RepairOutcome:
        """Close a terminal watchdog repair and settle it: the tail of
        :meth:`repair` (``drained``) and of :meth:`repair_async`.

        An escalated repair restarts through :meth:`repair_multi` once
        the queue has drained; inside a run, which cannot nest, it is
        bounced back ``failed`` with :data:`ESCALATION_MARK`.
        """
        self._close_assembly(asm, drained=drained)
        if asm.escalate and drained:
            outcome = self._finish_escalated(asm)
        elif asm.escalate:
            outcome = self._failed_outcome(
                asm, f"second chunk lost mid-repair; {ESCALATION_MARK}"
            )
        elif not asm.complete or asm.failed:
            outcome = self._failed_outcome(
                asm, asm.failure_reason or "repair did not complete"
            )
        else:
            outcome = self._persist_outcome(asm)
            if not outcome.verified and asm.integrity_ok is True:
                # the "original" on the failed/quarantined node was itself
                # rotten (or gone): parity verification over the clean
                # stored chunks proved the rebuilt value correct
                outcome.verified = True
        self._finalize_repair_obs(asm, outcome)
        return outcome

    def _persist_outcome(self, asm: _Assembly) -> RepairOutcome:
        """The settle tail both repair families share: persist the rebuilt
        chunk at the requester (``asm.store`` only) with a torn-write
        readback, relocate it there, and set ``verified`` to its equality
        with the oracle copy on the failed node (each family overrides
        that by its own rule when the oracle cannot be trusted)."""
        sid, lost, rebuilt = asm.stripe_id, asm.lost_chunk, asm.buffer
        if asm.store:
            store = self.nodes[asm.requester].store
            store.put(sid, lost, rebuilt)
            if not store.verify(sid, lost):
                # a torn write garbled the persisted copy; the digest
                # caught it on readback — rewrite from the in-memory
                # buffer (the tear is one-shot)
                asm.corruption_detected = True
                log.debug(
                    "%s: torn write caught on readback at node %d",
                    asm.repair_id, asm.requester,
                )
                self._count_detection("torn-write")
                if self.tracer.enabled:
                    self.tracer.event(
                        asm.span, "integrity.torn_write", node=asm.requester
                    )
                store.put(sid, lost, rebuilt)
            self.master.relocate_chunk(sid, lost, asm.requester)
        oracle = self.nodes[asm.failed_node].store
        return self._outcome(
            asm,
            asm.last_arrival,
            rebuilt=rebuilt,
            verified=oracle.has(sid, lost)
            and bool(np.array_equal(rebuilt, oracle.view(sid, lost))),
            status=DEGRADED if asm.degraded else COMPLETED,
        )

    def repair_multi_async(
        self,
        stripe_id: str,
        failed_nodes: tuple[int, ...],
        requester_for: dict[int, int],
        *,
        on_done,
        bandwidth_scale: float = 1.0,
        deadline_s: float | None = None,
    ) -> str:
        """Rebuild several lost chunks of one stripe without blocking.

        The non-blocking sibling of :meth:`repair_multi`: each lost
        chunk's plan is carved out of ``bandwidth_scale`` (the 1/m split
        happens *inside* the share) and dispatched onto the running event
        queue.  When every chunk assembles — or ``deadline_s`` elapses
        first — ``on_done(outcomes)`` fires with a per-failed-node
        :class:`RepairOutcome` dict; chunks that missed the deadline come
        back ``failed`` with a ``failure_reason`` instead of raising, so
        an orchestrator can re-queue them.
        (DESIGN.md, "Repair entry points", tabulates all five calls.)
        """
        plans = self._plan_multi(
            stripe_id, failed_nodes, requester_for,
            bandwidth_scale=bandwidth_scale,
        )
        return self._run_chunk_group(
            [(f, plan, stripe_id, f, requester_for[f]) for f, plan in plans.items()],
            on_done,
            deadline_s,
        )[0]

    def _run_chunk_group(self, jobs: list, on_done, deadline_s=None):
        """The one executor behind :meth:`repair_multi`,
        :meth:`repair_node` and :meth:`repair_multi_async`.

        Opens an unwatched repair per ``(key, plan, stripe_id,
        failed_node, requester)`` job and settles each chunk through
        :meth:`_settle_planned` as it assembles; ``on_done(outcomes)``
        fires once, keyed in job order, after the last.  Returns the
        group's repair-id suffix and ``close(reason)``, which fails every
        chunk still open with ``reason(assembly)`` and reports; the
        ``deadline_s`` timer calls it too.
        """
        self._async_seq += 1
        group = f"@m{self._async_seq}"
        outcomes = dict.fromkeys(job[0] for job in jobs)
        pending: dict = {}
        timer = None

        def report() -> None:
            if timer is not None:
                self.events.cancel(timer)
            on_done(outcomes)

        def settle(key, asm: _Assembly) -> None:
            outcomes[key] = self._settle_planned(asm)
            self._close_assembly(asm)
            del pending[key]
            if not pending:
                report()

        def close(reason) -> None:
            if not pending:
                return
            for key, asm in pending.items():
                self._retire_attempt(asm)
                self._close_assembly(asm)
                outcomes[key] = self._failed_outcome(asm, reason(asm))
            pending.clear()
            report()

        for key, plan, stripe_id, failed_node, requester in jobs:
            pending[key] = self._open_planned_repair(
                plan, stripe_id, failed_node, requester,
                f"{stripe_id}/n{failed_node}{group}",
                lambda asm, k=key: settle(k, asm),
            )
        if deadline_s is not None:
            missed = f"multi-chunk repair missed its {deadline_s:g}s deadline"
            timer = self.events.schedule(
                deadline_s, lambda: close(lambda asm: missed)
            )
        return group, close

    def _run_group(self, jobs: list) -> dict:
        """Run one chunk group on a queue this call owns, to the end.

        Once the queue has drained, a chunk still open can never
        complete (a helper crashed mid-transfer): it comes back
        ``failed`` and the outcomes of its siblings stand.
        """
        outcomes: dict = {}
        _, close = self._run_chunk_group(jobs, outcomes.update)
        self.events.run()
        close(
            lambda asm: f"batched repair incomplete: {asm.received} of "
            f"{asm.chunk_bytes} bytes arrived"
        )
        return outcomes

    def _open_planned_repair(
        self,
        plan: RepairPlan,
        stripe_id: str,
        failed_node: int,
        requester: int,
        repair_id: str,
        on_done,
    ) -> _Assembly:
        """Open an unwatched repair of one chunk along a ready-made plan.

        The one dispatch behind :meth:`_run_chunk_group`: a single
        attempt, no watchdog, no re-plan.  ``on_done(assembly)`` fires
        when the chunk assembles, or fails on a rotten helper chunk.
        """
        asm = self._open_assembly(
            stripe_id, failed_node, requester, repair_id,
            {"t_max_mbps": float(plan.total_rate)},
            plan=plan, attempt=1, on_done=on_done,
        )
        self._dispatch_tasks(asm, repair_id)
        return asm

    def _settle_planned(self, asm: _Assembly) -> RepairOutcome:
        """Settle a completed unwatched chunk: audit, then the shared
        persist tail.  Detect-only: a failed audit that cannot vouch for
        the rebuilt bytes is an explicit failed verdict — the caller
        re-dispatches; nothing is healed or re-repaired here.  A chunk
        that failed before assembling (a rotten helper chunk) comes back
        ``failed`` unaudited."""
        if asm.failed:
            return self._failed_outcome(asm, asm.failure_reason)
        report = self._audit(asm)
        if report.ok is False:
            if self.metrics.enabled:
                self.metrics.counter(
                    "repro_integrity_verifications_total",
                    "Post-repair stripe verifications by result.",
                    result="ok" if report.rebuilt_ok else "failed",
                ).inc()
            if not report.rebuilt_ok:
                return self._failed_outcome(
                    asm,
                    "rebuilt chunk failed integrity verification",
                    end=asm.last_arrival,
                )
        outcome = self._persist_outcome(asm)
        oracle = self.nodes[asm.failed_node].store
        sid, lost = asm.stripe_id, asm.lost_chunk
        if not outcome.verified and not (
            oracle.has(sid, lost) and oracle.verify(sid, lost)
        ):
            # the oracle copy is itself rotten (scrub-repair, or rot then
            # crash) or gone; the parity audit is the only ground truth left
            outcome.verified = True
        return outcome

    def _failed_outcome(
        self, asm: _Assembly, reason: str, *, end: float | None = None
    ) -> RepairOutcome:
        """The one explicit ``failed`` verdict, read off the assembly.

        The repair ran from ``asm.start_time`` to ``end`` (now, when
        unset).
        """
        return self._outcome(
            asm,
            self.events.now if end is None else end,
            status=FAILED,
            failure_reason=reason,
        )

    def _outcome(self, asm: _Assembly, end: float, **verdict) -> RepairOutcome:
        """The one :class:`RepairOutcome` builder: every field read off
        the assembly of a repair that ran from ``asm.start_time`` to
        ``end``, then overridden by ``verdict``."""
        fields = dict(
            plan=asm.plan,
            rebuilt=None,
            elapsed_seconds=end - asm.start_time,
            bytes_received=asm.received,
            verified=False,
            attempts=max(asm.attempt, 1),
            retries=asm.retries,
            replans=asm.replans,
            bytes_retransferred=asm.bytes_retransferred,
            corruption_detected=asm.corruption_detected,
            quarantined_chunks=tuple(sorted(asm.quarantined)),
        )
        fields.update(verdict)
        return RepairOutcome(**fields)

    # ---- self-healing attempt state machine --------------------------- #

    def _start_attempt(self, asm: _Assembly) -> None:
        """Plan and dispatch one attempt over the unfinished remainder."""
        if not asm.running:
            return
        # dispatch-time liveness probe: the master checks the placement
        # (and the requester) before planning, so crashed nodes are
        # declared dead without waiting for a lease to expire
        unseen = self.down & ~self.master.dead
        for n in (*self.master.stripe(asm.stripe_id).placement, asm.requester):
            if unseen >> n & 1:
                self.master.mark_node_dead(n)
        participants = asm.plan_participants()
        if any(
            n != asm.failed_node and n not in participants
            for n in self.crashed(asm.stripe_id)
        ):
            # a chunk the current plan was not even using is gone too —
            # single-chunk recovery cannot restore the stripe; escalate
            self._escalate(asm, reason="uninvolved chunk lost before attempt")
            return
        live = self.live_mask
        newly_dead = tuple(n for n in participants if not live >> n & 1)
        asm.attempt += 1
        if asm.attempt > 1:
            asm.replans += 1
        tracer = self.tracer
        if tracer.enabled:
            asm.attempt_span = tracer.start_span(
                f"attempt {asm.attempt}",
                kind="attempt",
                parent=asm.span,
                n=asm.attempt,
                repair_id=asm.repair_id,
            )
            if asm.attempt > 1:
                tracer.event(
                    asm.attempt_span,
                    "replan",
                    attempt=asm.attempt,
                    newly_dead=list(newly_dead),
                )
        log.debug(
            "%s: attempt %d (newly dead: %s)",
            asm.repair_id, asm.attempt, list(newly_dead),
        )
        try:
            plan = self.master.schedule_repair(
                asm.stripe_id,
                asm.failed_node,
                asm.requester,
                prev_plan=asm.plan,
                newly_dead=newly_dead,
                bandwidth_scale=asm.bandwidth_scale,
            )
        except (ValueError, RuntimeError) as exc:
            asm.failure_reason = f"planning failed: {exc}"
            log.debug("%s: planning failed: %s", asm.repair_id, exc)
            if tracer.enabled:
                tracer.event(asm.attempt_span, "planning.failed", error=str(exc))
            self._finish_assembly(asm, retire=True)
            return
        asm.plan = plan
        if "recovery" in plan.meta:
            asm.degraded = True  # a ladder rung (promotion / star) was used
        wire = (
            asm.repair_id
            if asm.attempt == 1
            else f"{asm.repair_id}#a{asm.attempt}"
        )
        remaining = self._dispatch_tasks(asm, wire)
        if tracer.enabled:
            tracer.set_attrs(
                asm.attempt_span,
                wire=wire,
                remaining_bytes=remaining,
                pipelines=len(asm.outstanding),
                rung=plan.meta.get("recovery", "none"),
                t_max_mbps=float(plan.total_rate),
            )
        self._arm_timer(asm)
        self._arm_detector(asm)
        self._ensure_heartbeat()

    def _arm_timer(self, asm: _Assembly) -> None:
        """(Re)arm the progress watchdog for the current attempt."""
        if asm.timer is not None:
            self.events.cancel(asm.timer)
        # 4x the expected remaining transfer time at plan rate, doubled
        # after every aborted attempt
        remaining = max(asm.chunk_bytes - asm.done_bytes, 1)
        rate = max(asm.plan.total_rate, 1.0)
        timeout = max(0.05, 4.0 * units.transfer_seconds(remaining, rate))
        timeout *= 2**asm.retries
        asm.armed_timeout = timeout
        asm.timer_mark = asm.received
        asm.timer = self.events.schedule(
            timeout, lambda a=asm: self._on_timeout(a)
        )

    #: throughput samples taken per armed watchdog window — the sampler
    #: must out-resolve the timeout for early detection to mean anything
    DETECT_TICKS_PER_TIMEOUT = 16

    def _arm_detector(self, asm: _Assembly) -> None:
        """Start the divergence sampler for the current attempt.

        Every tick scores the realised throughput of the attempt's wire
        epoch (bytes folded since the last tick, over the plan's
        ``t_max``) with the monitor's ``repair.throughput_ratio``
        detector, and feeds each participant's uplink busy fraction to
        ``node.busy_fraction``.  A throughput alarm aborts the attempt
        immediately — the blunt timeout stays armed as the fallback for
        faults the detector cannot see (e.g. a crash during warmup).
        """
        if self.divergence is None or not asm.watchdog:
            return
        if asm.detect_timer is not None:
            self.events.cancel(asm.detect_timer)
        asm.detect_period_s = asm.armed_timeout / self.DETECT_TICKS_PER_TIMEOUT
        asm.detect_mark = asm.received
        asm.detect_mark_t = self.events.now
        if asm.plan is not None:
            asm.detect_busy = {
                n: self.nodes[n].uplink_busy_s
                for n in asm.plan_participants()
            }
        self._schedule_detect(asm, asm.wire_id)

    def _schedule_detect(self, asm: _Assembly, wire: str) -> None:
        asm.detect_timer = self.events.schedule(
            asm.detect_period_s, lambda a=asm, w=wire: self._detect_tick(a, w)
        )

    def _disarm_detector(self, asm: _Assembly) -> None:
        if asm.detect_timer is not None:
            self.events.cancel(asm.detect_timer)
            asm.detect_timer = None
        if self.divergence is not None and asm.wire_id:
            # drop the per-wire detector so a recycled epoch re-learns
            self.divergence.discard("repair.throughput_ratio", asm.wire_id)

    def _detect_tick(self, asm: _Assembly, wire: str) -> None:
        asm.detect_timer = None
        if not asm.running:
            return
        monitor = self.divergence
        if monitor is None:
            return
        if wire != asm.wire_id or wire in self._retired:
            # the timeout fallback (or a re-plan) already retired this
            # attempt epoch: the detector declines rather than double-
            # aborting, and says so in the trace (satellite: the chaos
            # sweeps stay fully explanatory)
            monitor.suppressed(
                "repair.throughput_ratio",
                "timeout fallback owns attempt epoch",
                key=wire,
                attempt=asm.attempt,
            )
            monitor.discard("repair.throughput_ratio", wire)
            return
        now = self.events.now
        dt = now - asm.detect_mark_t
        if dt <= 0:
            self._schedule_detect(asm, wire)
            return
        plan_rate = float(asm.plan.total_rate) if asm.plan is not None else 0.0
        realised = units.bytes_per_s_to_mbps((asm.received - asm.detect_mark) / dt)
        ratio = realised / plan_rate if plan_rate > 0 else 0.0
        for node, before in asm.detect_busy.items():
            busy = self.nodes[node].uplink_busy_s
            monitor.feed(
                "node.busy_fraction",
                now,
                min(1.0, max(0.0, (busy - before) / dt)),
                key=str(node),
            )
            asm.detect_busy[node] = busy
        asm.detect_mark = asm.received
        asm.detect_mark_t = now
        alarm = monitor.feed("repair.throughput_ratio", now, ratio, key=wire)
        if alarm is None:
            self._schedule_detect(asm, wire)
            return
        # divergence confirmed while the timeout is still ticking: abort
        # the attempt now instead of burning the rest of the window
        if asm.timer is not None:
            self.events.cancel(asm.timer)
            asm.timer = None
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_detect_early_aborts_total",
                "Attempts aborted by the divergence detector ahead of "
                "the watchdog timeout.",
            ).inc()
        if self.tracer.enabled:
            self.tracer.event(
                asm.attempt_span or asm.span,
                "detect.abort",
                attempt=asm.attempt,
                ratio=ratio,
                detector=alarm.detector,
                stat=alarm.stat,
                timeout_s=asm.armed_timeout,
            )
        log.debug(
            "%s: divergence detector fired on attempt %d "
            "(ratio %.3g, stat %.3g)",
            asm.repair_id, asm.attempt, ratio, alarm.stat,
        )
        self._abort_attempt(
            asm,
            f"throughput diverged from plan (ratio {ratio:.3g}, "
            f"attempt {asm.attempt})",
        )

    def _on_timeout(self, asm: _Assembly) -> None:
        asm.timer = None
        if not asm.running:
            return
        if asm.received > asm.timer_mark:
            self._arm_timer(asm)  # progress since the last check: keep watching
            return
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_watchdog_fires_total",
                "Stalled attempts aborted by the progress watchdog.",
            ).inc()
        if self.tracer.enabled:
            self.tracer.event(
                asm.attempt_span or asm.span,
                "watchdog.fire",
                attempt=asm.attempt,
                timeout_s=asm.armed_timeout,
                received=asm.received,
            )
        log.debug(
            "%s: watchdog fired on attempt %d (timeout %.4gs)",
            asm.repair_id, asm.attempt, asm.armed_timeout,
        )
        self._abort_attempt(
            asm,
            f"no progress within {asm.armed_timeout:.4g}s "
            f"(attempt {asm.attempt})",
        )

    #: re-dispatch after abort ``a`` waits ``BACKOFF_BASE_S * 2**(a-1)``
    BACKOFF_BASE_S = 0.02

    def _abort_attempt(self, asm: _Assembly, reason: str) -> None:
        """Tear down the current attempt (stalled, diverged, or proven
        poisoned) and schedule the next one after the backoff."""
        asm.retries += 1
        self._disarm_detector(asm)
        self._retire_attempt(asm)
        if self.tracer.enabled and asm.attempt_span:
            self.tracer.event(asm.attempt_span, "attempt.abort", reason=reason)
        self._end_attempt_span(asm, aborted=True)
        log.debug("%s: attempt %d aborted: %s", asm.repair_id, asm.attempt, reason)
        # scrub slices that only partially arrived — their XOR state is
        # useless without the missing contributions, and a stale late
        # slice must never fold into the next attempt's bytes
        for pid, ranges in asm.slice_arrivals.items():
            want = asm.expected.get(pid, 0)
            for (lo, hi), got in ranges.items():
                if got and got != want:
                    asm.bytes_retransferred += (hi - lo) * got.bit_count()
                    asm.buffer[lo:hi] = 0
        asm.expected = {}
        asm.outstanding = {}
        asm.slice_arrivals = {}
        if asm.attempt >= asm.max_attempts:
            asm.failure_reason = f"{reason}; {asm.attempt} attempts exhausted"
            self._finish_assembly(asm, retire=False)
            return
        delay = self.BACKOFF_BASE_S * (2 ** (asm.attempt - 1))
        self.events.schedule(delay, lambda a=asm: self._start_attempt(a))

    def _retire_attempt(self, asm: _Assembly) -> None:
        """Retire the attempt's wire id: nodes stop sending, in-flight
        slices of the old epoch are dropped on delivery."""
        if not asm.wire_id:
            return
        self._retired.add(asm.wire_id)
        self._wire_assembly.pop(asm.wire_id, None)
        for node in self.nodes:
            node.cancel_repair(asm.wire_id)
        self._close_pipeline_spans(asm.wire_id, aborted=True)

    def _end_attempt_span(self, asm: _Assembly, **attrs) -> None:
        if asm.attempt_span:
            self.tracer.end_span(asm.attempt_span, **attrs)
        asm.attempt_span = None

    def _close_pipeline_spans(self, wire_id: str, **attrs) -> None:
        """End any still-open pipeline spans belonging to a wire epoch."""
        if not self._pipeline_spans:
            return
        for key in [k for k in self._pipeline_spans if k[0] == wire_id]:
            self.tracer.end_span(self._pipeline_spans.pop(key), **attrs)

    def _finish_assembly(self, asm: _Assembly, *, retire: bool) -> None:
        """Terminal bookkeeping: stop the watchdog (and maybe the wire)."""
        if asm.complete:
            # every slice of the wire landed: its senders' buffers are dead
            # before the audit runs (a failed audit re-plans on a new wire)
            for node in self.nodes:
                node.release_repair(asm.wire_id)
        if (
            asm.watchdog
            and asm.complete
            and not asm.failed
            and not asm.escalate
            and asm.integrity_attempt != asm.attempt
        ):
            # verify the rebuilt bytes before declaring success; a
            # poisoned buffer quarantines its culprit and re-repairs
            asm.integrity_attempt = asm.attempt
            if not self._verify_completed(asm):
                return  # a fresh attempt is scheduled; not terminal yet
        if asm.timer is not None:
            self.events.cancel(asm.timer)
            asm.timer = None
        self._disarm_detector(asm)
        if retire:
            self._retire_attempt(asm)
        self._end_attempt_span(asm)
        if asm.on_done is not None:
            # non-blocking dispatch: the terminal callback fires exactly
            # once, from inside the event-queue run that finished us
            callback, asm.on_done = asm.on_done, None
            callback(asm)

    def _close_assembly(self, asm: _Assembly, *, drained: bool = False) -> None:
        """The one exit of an assembly from the routing tables, ending its
        open pipeline spans and an unwatched chunk's repair span (a
        watchdog repair's ends in :meth:`_finalize_repair_obs`).

        Inside a run the finished wire joins the retired set, so a
        straggling slice of it is dropped silently; once the queue has
        ``drained`` nothing of the repair can arrive any more, and its
        retired epochs are forgotten instead."""
        self._assemblies.pop(asm.repair_id, None)
        self._wire_assembly.pop(asm.wire_id, None)
        # earlier epochs closed their spans when they were retired
        self._close_pipeline_spans(asm.wire_id)
        if drained:
            prefix = asm.repair_id + "#"
            self._retired = {
                r for r in self._retired
                if r != asm.repair_id and not r.startswith(prefix)
            }
        else:
            self._retired.add(asm.wire_id or asm.repair_id)
        if not asm.watchdog and asm.span:
            self.tracer.end_span(
                asm.span,
                status=COMPLETED if asm.complete else FAILED,
                bytes_received=asm.received,
            )
            asm.span = None

    def _finish_escalated(self, asm: _Assembly) -> RepairOutcome:
        """Second chunk lost mid-repair: restart through repair_multi."""
        lost = self.crashed(asm.stripe_id)
        others = [f for f in lost if f != asm.failed_node]
        spares = [r for r in self.spares(asm.stripe_id) if r != asm.requester]
        requester_for = {asm.failed_node: asm.requester, **dict(zip(others, spares))}
        fail_reason = None
        if len(spares) < len(others):
            fail_reason = f"no spare requester for chunk on node {others[len(spares)]}"
        else:
            try:
                ours = self.repair_multi(asm.stripe_id, lost, requester_for)[
                    asm.failed_node
                ]
            except ValueError as exc:  # the multi-chunk planner refused
                fail_reason = str(exc)
            else:
                # the aborted attempt's verdict carries over, merged with
                # what the multi-chunk settle found
                asm.corruption_detected |= ours.corruption_detected
                asm.quarantined.extend(
                    ci for ci in ours.quarantined_chunks
                    if ci not in asm.quarantined
                )
                if ours.status == FAILED:
                    fail_reason = ours.failure_reason
        if fail_reason is not None:
            return self._failed_outcome(
                asm, f"second chunk lost mid-repair; {fail_reason}"
            )
        return self._outcome(
            asm,
            self.events.now,
            plan=ours.plan,
            rebuilt=ours.rebuilt,
            bytes_received=asm.received + ours.bytes_received,
            verified=ours.verified,
            attempts=max(asm.attempt, 1) + 1,
            status=ESCALATED,
            replans=asm.replans + len(lost),
            bytes_retransferred=asm.bytes_retransferred + asm.received,
        )

    # ---- heartbeats ---------------------------------------------------- #

    def _active_watchdogs(self) -> bool:
        return any(a.running for a in self._assemblies.values())

    def _ensure_heartbeat(self) -> None:
        if not self._heartbeat_on or self._heartbeat_pending:
            return
        self._heartbeat_pending = True
        self.events.schedule(self._heartbeat_period_s, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        self._heartbeat_pending = False
        now = self.events.now
        snap = self.master.snapshot()
        for i in range(self.num_nodes):
            if self.down >> i & 1:
                continue  # crashed nodes stop reporting; leases expire
            node = self.nodes[i]
            if node.reports_suppressed_until > now:
                continue
            up = float(snap.uplink[i])
            if node.rate_cap_mbps is not None:
                up = min(up, node.rate_cap_mbps)
            report = BandwidthReport(
                node=i, uplink_mbps=up, downlink_mbps=float(snap.downlink[i])
            )
            if node.report_delay_s > 0:
                self.events.schedule(
                    node.report_delay_s,
                    lambda r=report: self._submit_report(r),
                )
            else:
                self._submit_report(report)
        self.master.check_leases(now)
        if self._active_watchdogs():
            self._ensure_heartbeat()

    def _submit_report(self, report: BandwidthReport) -> None:
        try:
            self.master.on_bandwidth_report(report, now=self.events.now)
        except DeadNodeError:
            if self.is_alive(report.node):
                # lease false positive: the node is alive and reporting —
                # rejoin it (the master's dead mask is a belief, not truth)
                self.master.mark_node_live(report.node)
                self.master.on_bandwidth_report(report, now=self.events.now)

    # ---- observability -------------------------------------------------- #

    def _transfer_hook(self):
        """The DataNode send hook; ``None`` unless a sink is live.

        It runs once per slice, so everything that does not depend on
        the slice is resolved here: which sinks are enabled, the bound
        methods it calls, and (on a node's first send) that node's byte
        counter.
        """
        tracer = self.tracer if self.tracer.enabled else None
        metrics = self.metrics if self.metrics.enabled else None
        if tracer is None and metrics is None:
            return None
        nodes = self.nodes
        span_of = self._pipeline_spans.get
        record = None if tracer is None else tracer.record_transfer
        sent_bytes: list = [None] * len(nodes)

        def note_transfer(
            src: int,
            dest: int,
            lo: int,
            hi: int,
            start_s: float,
            end_s: float,
            wire_id: str,
            pipeline_id: int,
        ) -> None:
            """Credit the sender's byte counter, charge the receiver's
            downlink occupancy, and record the slice as one transfer row
            (read back as an uplink + a downlink ``transfer`` span, which
            the Chrome exporter lays out on per-node lanes)."""
            if metrics is not None:
                counter = sent_bytes[src]
                if counter is None:
                    counter = sent_bytes[src] = metrics.counter(
                        "repro_node_bytes_sent_total",
                        "Payload bytes each node has put on the wire.",
                        node=str(src),
                    )
                counter.inc(hi - lo)
            if 0 <= dest < len(nodes):
                nodes[dest].downlink_busy_s += end_s - start_s
            if record is not None:
                record(
                    span_of((wire_id, pipeline_id)), src, dest,
                    lo, hi, start_s, end_s, wire_id, pipeline_id,
                )

        return note_transfer

    def trace_fault(self, fault) -> None:
        """Observability hook called by :class:`~repro.faults.FaultInjector`
        as each fault is applied."""
        kind = type(fault).__name__
        log.debug("fault injected: %r", fault)
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_faults_injected_total",
                "Faults applied by the injector, by kind.",
                kind=kind,
            ).inc()
        if self.tracer.enabled:
            attrs = {"kind": kind}
            node = getattr(fault, "node", None)
            if node is not None:
                attrs["node"] = node
            self.tracer.event(self._live_span(), "fault.injected", **attrs)

    def _live_span(self):
        """Some open repair's span, to hang a cluster-wide event on."""
        return next((a.span for a in self._assemblies.values() if a.span), None)

    def _finalize_repair_obs(self, asm: _Assembly, outcome: RepairOutcome) -> None:
        """Close the repair span and publish end-of-repair metrics."""
        elapsed = max(outcome.elapsed_seconds, 0.0)
        t_max = float(outcome.plan.total_rate) if outcome.plan is not None else 0.0
        achieved = (
            asm.done_bytes / units.mbps_to_bytes_per_s(1.0) / elapsed
            if elapsed > 0
            else 0.0
        )
        if self.tracer.enabled and asm.span:
            self.tracer.set_attrs(
                asm.span,
                status=outcome.status,
                attempts=outcome.attempts,
                retries=outcome.retries,
                replans=outcome.replans,
                bytes_received=outcome.bytes_received,
                bytes_retransferred=outcome.bytes_retransferred,
                verified=outcome.verified,
            )
            if outcome.failure_reason:
                self.tracer.set_attrs(
                    asm.span, failure_reason=outcome.failure_reason
                )
            self.tracer.end_span(asm.span, t=asm.start_time + elapsed)
        if self.fleet.enabled:
            now = self.events.now
            algo = self.master.algorithm.name
            f = self.fleet
            f.observe("repro_repair_seconds", elapsed, t=now, algorithm=algo)
            f.observe(
                "repro_repair_failed",
                1.0 if outcome.status == FAILED else 0.0,
                t=now,
                algorithm=algo,
            )
            if outcome.plan is not None and elapsed > 0:
                f.observe("repro_achieved_mbps", achieved, t=now, algorithm=algo)
                if t_max > 0:
                    f.observe(
                        "repro_throughput_ratio",
                        achieved / t_max,
                        t=now,
                        algorithm=algo,
                    )
        if self.slo is not None:
            self.slo.evaluate(self.events.now)
        m = self.metrics
        if not m.enabled:
            return
        m.counter(
            "repro_repairs_total", "Repairs by terminal status.",
            status=outcome.status,
        ).inc()
        m.histogram(
            "repro_repair_seconds",
            "End-to-end repair time (simulated seconds).",
        ).observe(elapsed)
        m.counter(
            "repro_retries_total",
            "Attempts aborted by the progress watchdog.",
        ).inc(outcome.retries)
        m.counter(
            "repro_replans_total", "Plans computed after the first.",
        ).inc(outcome.replans)
        m.counter(
            "repro_bytes_retransferred_total",
            "Requester bytes scrubbed and repaired again after aborts.",
        ).inc(outcome.bytes_retransferred)
        m.counter(
            "repro_bytes_received_total",
            "Payload bytes folded into requester assembly buffers.",
        ).inc(outcome.bytes_received)
        if outcome.plan is not None:
            m.gauge(
                "repro_t_max_mbps",
                "Planned repair throughput t_max of the last plan (Mbps).",
            ).set(t_max)
            if elapsed > 0:
                m.gauge(
                    "repro_achieved_mbps",
                    "Decoded-chunk throughput actually achieved (Mbps).",
                ).set(achieved)
                if t_max > 0:
                    m.gauge(
                        "repro_throughput_ratio",
                        "Achieved throughput over the planner's t_max "
                        "(1.0 = optimal, lower = overheads/faults).",
                    ).set(achieved / t_max)
        m.gauge(
            "repro_event_queue_executed",
            "Simulation events executed so far.",
        ).set(self.events.executed)
        m.gauge(
            "repro_event_queue_peak_depth",
            "High-water mark of the pending-event queue.",
        ).set(self.events.peak_pending)
        window = self.events.now - asm.start_time
        if asm.busy_before is not None and window > 0:
            for i, node in enumerate(self.nodes):
                up0, down0 = asm.busy_before[i]
                m.gauge(
                    "repro_node_uplink_busy_fraction",
                    "Fraction of the repair window each uplink was busy.",
                    node=str(i),
                ).set(min(1.0, (node.uplink_busy_s - up0) / window))
                m.gauge(
                    "repro_node_downlink_busy_fraction",
                    "Fraction of the repair window each downlink was busy.",
                    node=str(i),
                ).set(min(1.0, (node.downlink_busy_s - down0) / window))

    # ---- internals ---------------------------------------------------- #

    def _dispatch_tasks(self, asm: _Assembly, wire: str) -> int:
        """Compile ``asm.plan`` over the chunk's unfinished remainder on
        the wire epoch ``wire``, expect the requester-bound ranges of its
        tasks, open its pipeline spans, and hand every task to the node
        holding its chunk after the dispatch latency.  Returns the
        remainder's size in bytes."""
        remainder = uncovered_intervals(asm.chunk_bytes, asm.completed)
        remaining = sum(b - a for a, b in remainder)
        asm.wire_id = wire
        self._wire_assembly[wire] = asm
        tasks = self.master.compile_tasks(
            asm.plan, asm.stripe_id, asm.lost_chunk,
            chunk_bytes=asm.chunk_bytes,
            num_slices=max(1, -(-remaining // self.slice_bytes)),
            repair_id=wire, intervals=remainder,
        )
        loc = self.master.stripe(asm.stripe_id)
        asm.expected = {}
        asm.outstanding = {}
        asm.slice_arrivals = {}
        for task in tasks:
            if task.destination == asm.requester:
                src = loc.node_of(task.chunk_index)
                pid = task.pipeline_id
                asm.expected[pid] = asm.expected.get(pid, 0) | 1 << src
                asm.outstanding[pid] = task.stop - task.start
        if self.tracer.enabled:
            rate_by_pid = _pipeline_rates(tasks)
            for pid, nbytes in asm.outstanding.items():
                self._pipeline_spans[(asm.wire_id, pid)] = self.tracer.start_span(
                    f"pipeline {pid}",
                    kind="pipeline",
                    parent=asm.attempt_span or asm.span,
                    pipeline=pid,
                    bytes=nbytes,
                    wire=asm.wire_id,
                    rate_mbps=rate_by_pid.get(pid, 0.0),
                )
        for task in tasks:
            owner = loc.node_of(task.chunk_index)
            self.events.schedule(
                DISPATCH_LATENCY_S,
                lambda t=task, o=owner: self._assign_if_alive(o, t),
            )
        return remaining

    def _assign_if_alive(self, node: int, task: TransferTask) -> None:
        # a same-batch assign may race an abort (e.g. a bad-chunk
        # quarantine at assign time): never execute tasks of a retired wire
        if not self.down >> node & 1 and (task.repair_id or task.stripe_id) not in self._retired:
            self.nodes[node].assign(task)

    def _deliver(self, destination: int, data: SliceData) -> None:
        """Route a slice either to a data node or into requester assembly."""
        if (self.down >> data.source | self.down >> destination) & 1:
            return  # packets from/to dead nodes vanish
        node = self.nodes[destination]
        # stalled_until is 0.0 until a stall is injected: no clock read
        if node.stalled_until and node.stalled_until > self.events.now:
            # receiver frozen: the delivery lands when the stall elapses
            self.events.schedule_at(
                node.stalled_until,
                lambda d=destination, m=data: self._deliver(d, m),
            )
            return
        rid = data.repair_id or data.stripe_id
        state = node.tasks.get(rid, {}).get(data.pipeline_id)
        if state is not None:
            node.receive(data, state)
            return
        asm = self._wire_assembly.get(rid)
        if asm is None or asm.requester != destination:
            if asm is None and rid in self._retired:
                return  # stale slice from an aborted attempt's epoch
            raise RuntimeError(
                f"slice for {data.stripe_id} delivered to unexpected node "
                f"{destination}"
            )
        sources = asm.expected.get(data.pipeline_id)
        bit = 1 << data.source
        if sources is None or not sources & bit:
            raise RuntimeError(
                f"unexpected slice from {data.source} for pipeline "
                f"{data.pipeline_id}"
            )
        if (
            data.checksum is not None
            and slice_checksum(data.payload) != data.checksum
        ):
            # last-hop corruption caught at the requester: request a
            # retransmit instead of folding a poisoned slice
            self._on_bad_slice(destination, data)
            return
        arrivals = asm.slice_arrivals.setdefault(data.pipeline_id, {})
        key = (data.start, data.stop)
        got = arrivals.get(key, 0)
        if got & bit:
            raise RuntimeError(
                f"duplicate slice [{data.start}, {data.stop}) from "
                f"{data.source} for pipeline {data.pipeline_id}"
            )
        got = arrivals[key] = got | bit
        span = asm.buffer[data.start : data.stop]
        np.bitwise_xor(span, data.payload, out=span)
        asm.received += len(data.payload)
        # the requester pays the final combine cost for this slice
        asm.last_arrival = max(
            asm.last_arrival,
            self.events.now + COMPUTE_S_PER_BYTE * len(data.payload),
        )
        if got == sources:
            # every contribution folded in: this byte range is decoded
            asm.completed.append((data.start, data.stop))
            asm.done_bytes += data.stop - data.start
            asm.outstanding[data.pipeline_id] -= data.stop - data.start
            if (
                self.tracer.enabled
                and asm.outstanding[data.pipeline_id] <= 0
            ):
                span = self._pipeline_spans.pop((rid, data.pipeline_id), None)
                if span:
                    self.tracer.end_span(span)
            if asm.complete:  # only a decoded range can complete the chunk
                self._finish_assembly(asm, retire=False)
