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
from itertools import count

import numpy as np

from ..core.fullnode import StripeRepairSpec, plan_full_node_repair
from ..ec.rs import RSCode
from ..faults import COMPLETED, DEGRADED, FAILED
from ..integrity.digest import slice_checksum
from ..integrity.verify import audit_stripe
from ..net import units
from ..net.bandwidth import BandwidthSnapshot, RepairContext
from ..obs import build_observer
from ..repair.base import RepairAlgorithm, get_algorithm
from ..repair.recovery import uncovered_intervals
from ..sim.events import EventQueue
from ..sim.transfer import COMPUTE_S_PER_BYTE, DISPATCH_LATENCY_S
from .datanode import DataNode
from .attempt import ESCALATION_MARK, Assembly, ChunkGroup, Heartbeats, RepairOutcome
from .master import Master, StripeLocation, bits
from .messages import BandwidthReport, SliceData, TransferTask

log = logging.getLogger("repro.cluster.system")


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
        #: online divergence detection (``repro.obs.detect``): assign a
        #: DivergenceMonitor (and set its ``clock``) and watchdog repairs
        #: sample realised throughput against the plan's t_max and abort
        #: diverged attempts *before* the timeout fallback fires
        self.divergence = None
        if isinstance(algorithm, str):
            algorithm = get_algorithm(algorithm)
        self.master = Master(code, algorithm, num_nodes)
        self.slice_bytes = slice_bytes
        self.nodes = [
            DataNode(i, self.events, deliver=self._deliver,
                     on_bad_slice=self._on_bad_slice,
                     on_bad_chunk=self._on_bad_chunk)
            for i in range(num_nodes)
        ]
        #: every fixed point of the repair path reports here
        #: (:mod:`repro.obs.observer`); the sinks are read back through
        #: :attr:`tracer`, :attr:`metrics`, :attr:`fleet` and :attr:`slo`
        self.obs = self.master.obs = build_observer(
            tracer=tracer, metrics=metrics, fleet=fleet, slo=slo,
            events=self.events, nodes=self.nodes,
        )
        on_transfer = self.obs.transfer_hook()
        for node in self.nodes:
            node.on_transfer = on_transfer
        #: node mask of the crashed nodes (the truth; ``master.dead`` is
        #: the master's belief); only :meth:`fail_node` writes it
        self.down = 0
        self._assemblies: dict[str, Assembly] = {}
        #: wire id (repair id or per-attempt epoch) -> live assembly
        self._wire_assembly: dict[str, Assembly] = {}
        #: wire ids of aborted attempts; their in-flight slices are
        #: silently dropped instead of corrupting the new attempt's state
        self._retired: set[str] = set()
        self._stripe_sizes: dict[str, int] = {}
        #: stripe -> {chunk index: (node, store generation)} of the stored
        #: chunks last proven on the stripe's codeword (by ``write_stripe``
        #: or an audit); a mutated or moved chunk no longer matches its key
        self._proofs: dict[str, dict[int, tuple[int, int]]] = {}
        self.heartbeats = Heartbeats(self)
        #: callbacks fired (with the node id) whenever a node crashes —
        #: how the recovery orchestrator learns of new failures
        self._failure_listeners: list = []
        #: monotone suffix source keeping async repair ids collision-free
        self._repair_seq = count(1)

    tracer = property(lambda self: self.obs.tracer)
    metrics = property(lambda self: self.obs.metrics)
    fleet = property(lambda self: self.obs.fleet)
    slo = property(lambda self: self.obs.slo)

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
        Rewriting a stripe id drops every stored copy of its old
        generation that the new placement does not overwrite.
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
        if stripe_id in self._stripe_sizes:
            for node in self.nodes:
                for ci in node.store.stripe_chunks(stripe_id):
                    if placement[ci] != node.node_id:
                        node.store.delete(stripe_id, ci)
        # the rows are one codeword by construction: every intact put of
        # them is proven, and a torn one is left for the next audit
        proof = self._proofs[stripe_id] = {}
        for idx, node in enumerate(placement):
            store = self.nodes[node].store
            if store.put(stripe_id, idx, rows[idx]):
                proof[idx] = (node, store.generation(stripe_id, idx))
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
        the repair to the multi-chunk path immediately.  A chunk of a
        ``repair_multi_async`` call without a deadline fails at once
        when its requester or a helper of its plan crashes.
        """
        self.down |= 1 << node
        log.debug("node %d crashed at t=%.6f", node, self.events.now)
        self.obs.node_crash(node)
        for asm in list(self._assemblies.values()):
            if asm.fail_on_crash and not asm.failed and (
                node == asm.requester or node in asm.plan_participants()
            ):
                # an unwatched chunk with no deadline: nothing else would
                # ever settle it, so it fails now and its wire retires
                asm.failure_reason = f"node {node} of its plan crashed mid-transfer"
                asm.finish(retire=True)
                continue
            if not asm.running:
                continue
            loc = self.master.stripe(asm.stripe_id)
            if (
                node in loc.placement
                and node != asm.failed_node
                and node not in asm.plan_participants()
            ):
                asm.escalate(node=node, reason="second chunk lost mid-repair")
        listeners = list(self._failure_listeners)
        profiler = self.events.profiler
        if profiler is not None:
            profiler.record_fanout("failure_listeners", len(listeners))
        for listener in listeners:
            listener(node)

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
        self.heartbeats.period_s = period_s

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
        self.obs.quarantine(stripe_id, chunk_index, node, kind)
        return True

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
        rid = task.repair_id
        asm = self._wire_assembly.get(rid)
        if asm is None or asm.watchdog and not asm.running:
            return
        asm.corruption_detected = True
        if task.chunk_index not in asm.quarantined:
            asm.quarantined.append(task.chunk_index)
        self.obs.bad_chunk(asm, node, task.chunk_index)
        reason = (
            f"helper chunk {task.chunk_index} failed digest verification "
            f"on node {node}"
        )
        if asm.watchdog:
            asm.abort(reason)
            return
        # an unwatched chunk has no next attempt: the helper's pipelines
        # can never finish, so the chunk fails now and its wire retires
        asm.failure_reason = reason
        asm.finish(retire=True)

    def _on_bad_slice(self, dest: int, data: SliceData) -> None:
        """An in-flight slice failed its checksum at the receiving hop."""
        rid = data.repair_id
        self.obs.wire_corruption(rid, dest, data)
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
            self.obs.retransmit(rid, data)
        # a refused retransmit leaves the range incomplete; the progress
        # watchdog aborts and re-plans the remainder

    def _audit(self, asm: Assembly):
        """The audit-and-quarantine loop of both repair families (each
        judges the returned ``AuditReport`` by its own rule): digest-scan
        the stored chunks, parity-audit the rebuilt buffer, quarantine
        and record every culprit, and mark the assembly
        ``corruption_detected`` when the audit fails.

        Only live, non-quarantined holders participate; the leave-one-out
        localization therefore runs within *stored* chunks only — with a
        rotten helper both the helper and the rebuilt value are
        off-codeword, so mixing the rebuilt chunk into the candidate set
        could never localize.  The stripe's proof names the stored
        chunks the audit may take as proven; the audit's ``proven``
        replaces it.
        """
        sid = asm.stripe_id
        placement = self.master.stripe(sid).placement
        stored: dict[int, np.ndarray] = {}
        held: dict[int, tuple[int, int]] = {}
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
                held[ci] = (node, store.generation(sid, ci))
            else:
                digest_bad.append(ci)
        proof = self._proofs.get(sid, {})
        report = audit_stripe(
            self.code, asm.lost_chunk, asm.buffer, stored,
            digest_bad=tuple(digest_bad),
            proven=[ci for ci, key in held.items() if proof.get(ci) == key],
        )
        self._proofs[sid] = {ci: held[ci] for ci in report.proven}
        if report.ok is False:
            for ci in report.culprits:
                self.quarantine_chunk(sid, ci, kind="verify")
                if ci not in asm.quarantined:
                    asm.quarantined.append(ci)
            asm.corruption_detected = True
        return report

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
        outcome = asm.settle(drained=True)
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
        return ChunkGroup.run(
            self, self._plan_multi(stripe_id, failed_nodes, requester_for)
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
        Every requester must be one of :meth:`spares` and pass the
        storing repair's requester check, else ``ValueError`` naming the
        stripe before anything is planned.
        """
        if self.is_alive(failed_node):
            raise ValueError(f"node {failed_node} has not failed")
        stripe_ids = self.stripes_on(failed_node)
        if not stripe_ids:
            return {}
        requester_for = dict(requester_for or {})
        specs = []
        for i, sid in enumerate(stripe_ids):
            candidates = self.spares(sid)
            if sid not in requester_for:
                if not candidates:
                    raise RuntimeError(f"no replacement node available for {sid}")
                requester_for[sid] = candidates[i % len(candidates)]
            elif requester_for[sid] not in candidates:
                raise ValueError(
                    f"invalid requester {requester_for[sid]} for {sid} on "
                    f"failed node {failed_node}"
                )
            self._check_requester(sid, failed_node, requester_for[sid])
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
            outcomes.update(ChunkGroup.run(self, [
                (sid, node_plan.plans[sid], sid, failed_node, requester_for[sid])
                for sid in batch
            ]))
        return outcomes

    def _check_lost(self, stripe_id: str, node: int) -> None:
        """Every repair entry point's check of a failed node: ``ValueError``
        unless it holds a chunk of the stripe that cannot serve."""
        loc = self.master.stripe(stripe_id)
        if node not in loc.placement:
            raise ValueError(f"node {node} holds no chunk of {stripe_id}")
        if self.can_serve(stripe_id, loc.chunk_on(node), node):
            raise ValueError(f"node {node} must have failed to be repaired")

    def _check_requester(self, stripe_id: str, node: int, requester: int) -> None:
        """A storing repair's check of its requester: ``ValueError`` when
        an open storing repair rebuilds another chunk of the stripe there
        (a node holds one chunk of a stripe, so the later of the two
        could not relocate its chunk)."""
        chunk = self.master.stripe(stripe_id).chunk_on(node)
        for asm in self._assemblies.values():
            if (
                asm.store
                and asm.requester == requester
                and asm.stripe_id == stripe_id
                and asm.lost_chunk != chunk
            ):
                raise ValueError(
                    f"node {requester} already rebuilds chunk {asm.lost_chunk} "
                    f"of {stripe_id} for open repair {asm.repair_id}"
                )

    # ---- non-blocking dispatch (recovery-orchestrator substrate) ------ #

    def _plan_multi(
        self,
        stripe_id: str,
        failed_nodes: tuple[int, ...],
        requester_for: dict[int, int],
        *,
        bandwidth_scale: float = 1.0,
    ) -> list[tuple]:
        """Validate a multi-chunk repair and plan each lost chunk: one
        :class:`ChunkGroup` job per chunk, in listed order.

        Fair split: every concurrent repair plans inside a 1/m share of
        each node's bandwidth (an algorithm like FullRepair consumes
        everything it is offered, so residual carving would starve the
        later repairs); the shares are simultaneously feasible.  The
        split is carved out of ``bandwidth_scale`` — the budget share an
        orchestrator grants the whole stripe.
        """
        loc = self.master.stripe(stripe_id)
        failed_nodes = tuple(failed_nodes)
        for f in failed_nodes:
            self._check_lost(stripe_id, f)
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
            self._check_requester(stripe_id, f, r)
        if len(set(requester_for[f] for f in failed_nodes)) != len(failed_nodes):
            raise ValueError("each lost chunk needs a distinct requester")
        snapshot = self.master.snapshot()
        factor = bandwidth_scale / len(failed_nodes)
        share = BandwidthSnapshot(
            uplink=snapshot.uplink * factor,
            downlink=snapshot.downlink * factor,
        )
        jobs = []
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
            jobs.append((f, plan, stripe_id, f, requester_for[f]))
        return jobs

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
            on_done=lambda asm: on_done(asm.settle()),
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
    ) -> Assembly:
        """Open a watchdog repair: validate, arm faults, start attempt 1.

        The one set-up behind :meth:`repair` and :meth:`repair_async`.
        ``budget`` is empty or ``bandwidth_scale=...``; it reaches both
        the assembly and the repair span's attributes.
        """
        self._check_lost(stripe_id, failed_node)
        if self.down >> requester & 1:
            raise ValueError("requester node is down")
        if store:
            self._check_requester(stripe_id, failed_node, requester)
        repair_id = f"{stripe_id}/n{failed_node}"
        if on_done is not None:
            # non-blocking: unique per call, so concurrent repairs of one
            # chunk (a degraded read racing the orchestrator) never collide
            repair_id += f"@a{next(self._repair_seq)}"
        if injector is not None:
            injector.arm(self)
        asm = self._open_assembly(
            stripe_id, failed_node, requester, repair_id, budget,
            max_attempts=max_attempts,
            watchdog=True,
            store=store,
            on_done=on_done,
        )
        asm.start()
        return asm

    def _open_assembly(
        self, stripe_id: str, failed_node: int, requester: int,
        repair_id: str, attrs: dict, **fields,
    ) -> Assembly:
        """Register a fresh assembly of the chunk ``failed_node`` lost and
        open its repair span with ``attrs`` (a ``bandwidth_scale`` among
        them is the budget): the set-up both repair families share."""
        chunk_bytes = self._stripe_sizes[stripe_id]
        asm = Assembly(
            system=self,
            stripe_id=stripe_id,
            repair_id=repair_id,
            requester=requester,
            chunk_bytes=chunk_bytes,
            failed_node=failed_node,
            lost_chunk=self.master.stripe(stripe_id).chunk_on(failed_node),
            buffer=np.zeros(chunk_bytes, dtype=np.uint8),
            start_time=self.events.now,
            bandwidth_scale=attrs.get("bandwidth_scale", 1.0),
            **fields,
        )
        self._assemblies[repair_id] = asm
        self.obs.repair_open(asm, self.master.algorithm.name, attrs)
        return asm

    def _persist_outcome(self, asm: Assembly) -> RepairOutcome:
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
                self.obs.torn_write(asm)
                store.put(sid, lost, rebuilt)
            self.master.relocate_chunk(sid, lost, asm.requester)
        oracle = self.nodes[asm.failed_node].store
        return asm.outcome(
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
        an orchestrator can re-queue them.  Without a deadline, a chunk
        fails as soon as its requester or a helper of its plan crashes.
        (DESIGN.md, "Repair entry points", tabulates all five calls.)
        """
        jobs = self._plan_multi(
            stripe_id, failed_nodes, requester_for,
            bandwidth_scale=bandwidth_scale,
        )
        return ChunkGroup(self, jobs, on_done, deadline_s).suffix

    # ---- routing: wire epochs --------------------------------------- #

    def _retire_wire(self, wire: str) -> None:
        """Retire an attempt's wire id, if it has one: nodes stop sending,
        in-flight slices of the old epoch are dropped on delivery."""
        if not wire:
            return
        self._retired.add(wire)
        self._wire_assembly.pop(wire, None)
        for node in self.nodes:
            node.cancel_repair(wire)
        self.obs.wire_closed(wire, aborted=True)

    def _close_assembly(self, asm: Assembly, *, drained: bool = False) -> None:
        """The one exit of an assembly from the routing tables (and from
        the observer's open repairs).

        Inside a run the finished wire joins the retired set, so a
        straggling slice of it is dropped silently; once the queue has
        ``drained`` nothing of the repair can arrive any more, and its
        retired epochs are forgotten instead."""
        self._assemblies.pop(asm.repair_id, None)
        self._wire_assembly.pop(asm.wire_id, None)
        self.obs.repair_close(asm)
        if drained:
            prefix = asm.repair_id + "#"
            self._retired = {
                r for r in self._retired
                if r != asm.repair_id and not r.startswith(prefix)
            }
        else:
            self._retired.add(asm.wire_id or asm.repair_id)

    # ---- internals ---------------------------------------------------- #

    def _dispatch_tasks(self, asm: Assembly, wire: str) -> None:
        """Compile ``asm.plan`` over the chunk's unfinished remainder on
        the wire epoch ``wire``, expect the requester-bound ranges of its
        tasks, tell the observer the epoch's pipelines are open, and hand
        every task to the node holding its chunk after the dispatch
        latency."""
        remainder = uncovered_intervals(asm.chunk_bytes, asm.completed)
        remaining = sum(b - a for a, b in remainder)
        asm.wire_id = wire
        self._wire_assembly[wire] = asm
        tasks = self.master.compile_tasks(
            asm.plan, asm.stripe_id, asm.lost_chunk,
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
        self.obs.pipelines_open(asm, tasks, remaining)
        for task in tasks:
            owner = loc.node_of(task.chunk_index)
            self.events.schedule(
                DISPATCH_LATENCY_S,
                lambda t=task, o=owner: self._assign_if_alive(o, t),
            )

    def _assign_if_alive(self, node: int, task: TransferTask) -> None:
        # a same-batch assign may race an abort (e.g. a bad-chunk
        # quarantine at assign time): never execute tasks of a retired wire
        if not self.down >> node & 1 and task.repair_id not in self._retired:
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
        rid = data.repair_id
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
        if slice_checksum(data.payload) != data.checksum:
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
            if asm.outstanding[data.pipeline_id] <= 0:
                self.obs.pipeline_end(rid, data.pipeline_id)
            if asm.complete:  # only a decoded range can complete the chunk
                asm.finish(retire=False)
