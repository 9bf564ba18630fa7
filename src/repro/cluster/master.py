"""Master node: bandwidth registry, plan computation, task dispatch.

Mirrors the paper's master/slave architecture (§V-A): the master tracks
every node's available bandwidth (from
:class:`~repro.cluster.messages.BandwidthReport`), and on a repair request
builds the :class:`~repro.net.bandwidth.RepairContext`, runs the
configured repair algorithm, derives per-node
:class:`~repro.cluster.messages.TransferTask` assignments (with the RS
repair coefficients for each pipeline's helper set), and dispatches them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..ec.rs import RSCode
from ..net.bandwidth import BandwidthSnapshot, RepairContext
from ..obs import NULL_OBSERVER
from ..repair.base import RepairAlgorithm
from ..repair.plan import Pipeline, RepairPlan
from ..repair.recovery import substitute_nodes
from .messages import BandwidthReport, TransferTask
from ..core.plancache import PlanCache

log = logging.getLogger("repro.cluster.master")


class UnknownNodeError(ValueError):
    """A report or request referenced a node id the master never registered."""


class DeadNodeError(ValueError):
    """A report or request referenced a node the master has declared dead."""


class RepairImpossibleError(RuntimeError):
    """No correct repair exists (e.g. fewer than k live helpers remain)."""


@dataclass(frozen=True)
class StripeLocation:
    """Where a stripe's chunks live: ``placement[i]`` = node of chunk i."""

    stripe_id: str
    placement: tuple[int, ...]

    def node_of(self, chunk_index: int) -> int:
        return self.placement[chunk_index]

    def chunk_on(self, node: int) -> int:
        try:
            return self.placement.index(node)
        except ValueError:
            raise KeyError(f"node {node} holds no chunk of {self.stripe_id}") from None


def bits(mask: int) -> list[int]:
    """The set bits of a node or chunk mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


#: Consecutive missed report intervals after which a lease expires.
LEASE_MISSED_REPORTS = 3


class Master:
    """Cluster metadata + repair scheduling brain."""

    #: the observer of planning (:mod:`repro.obs.observer`); the owning
    #: system swaps in its own (the class-level no-op keeps standalone
    #: masters zero-cost)
    obs = NULL_OBSERVER

    def __init__(
        self,
        code: RSCode,
        algorithm: RepairAlgorithm,
        num_nodes: int,
    ) -> None:
        self.code = code
        self.algorithm = algorithm
        self.num_nodes = num_nodes
        #: assign a :class:`~repro.core.plancache.PlanCache` to memoise plans
        self.plan_cache: PlanCache | None = None
        #: heartbeat leases are off until :meth:`configure_lease`
        self.lease_seconds: float | None = None
        self._uplink = np.zeros(num_nodes)
        self._downlink = np.zeros(num_nodes)
        self._stripes: dict[str, StripeLocation] = {}
        #: node -> stripe ids with a chunk on it, maintained on
        #: register/relocate so failure handling never scans every stripe
        self._node_stripes: dict[int, set[str]] = {}
        #: node mask of the nodes this master believes dead; written only
        #: by :meth:`mark_node_dead` and :meth:`mark_node_live`
        self.dead = 0
        #: node -> simulation time of its last bandwidth report (lease basis)
        self._last_report: dict[int, float] = {}
        #: stripe id -> chunk mask of the chunks proven corrupt, excluded
        #: from planning until a repair relocates (rewrites) them; written
        #: only by :meth:`quarantine_chunk` and :meth:`relocate_chunk`
        self.corrupt: dict[str, int] = {}

    # ---- node liveness / leases --------------------------------------- #

    def _check_node_id(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise UnknownNodeError(
                f"node {node} is not registered with this master "
                f"(cluster has nodes 0..{self.num_nodes - 1})"
            )

    def mark_node_dead(self, node: int) -> None:
        """Declare a node dead: exclude it from planning, purge its plans."""
        self._check_node_id(node)
        self.dead |= 1 << node
        self._last_report.pop(node, None)
        if self.plan_cache is not None:
            self.plan_cache.invalidate_node(node)

    def mark_node_live(self, node: int) -> None:
        """Re-admit a node (it rejoined and reported)."""
        self._check_node_id(node)
        self.dead &= ~(1 << node)

    def is_node_dead(self, node: int) -> bool:
        return bool(self.dead >> node & 1)

    def dead_nodes(self) -> tuple[int, ...]:
        return tuple(bits(self.dead))

    def configure_lease(self, lease_seconds: float) -> None:
        """Enable heartbeat leases: a node missing
        :data:`LEASE_MISSED_REPORTS` consecutive report intervals of
        ``lease_seconds`` is declared dead."""
        if lease_seconds <= 0:
            raise ValueError("lease needs a positive period")
        self.lease_seconds = lease_seconds

    def check_leases(self, now: float) -> list[int]:
        """Expire leases at time ``now``; returns the newly dead nodes.

        Only nodes that have reported at least once are leased — a node
        that never reported cannot be distinguished from one that was
        never deployed.
        """
        if self.lease_seconds is None:
            return []
        deadline = self.lease_seconds * LEASE_MISSED_REPORTS
        expired = [
            n
            for n, last in self._last_report.items()
            if not self.dead >> n & 1 and now - last > deadline
        ]
        for n in sorted(expired):
            self.mark_node_dead(n)
        return sorted(expired)

    # ---- metadata ----------------------------------------------------- #

    def register_stripe(self, location: StripeLocation) -> None:
        if len(location.placement) != self.code.n:
            raise ValueError(
                f"stripe needs {self.code.n} placements, got {len(location.placement)}"
            )
        if len(set(location.placement)) != self.code.n:
            raise ValueError("stripe chunks must land on distinct nodes")
        prev = self._stripes.get(location.stripe_id)
        if prev is not None:
            # a rewrite: the old generation's placement and quarantine
            # marks say nothing about the new chunks
            for node in prev.placement:
                self._node_stripes.get(node, set()).discard(location.stripe_id)
            self.corrupt.pop(location.stripe_id, None)
        self._stripes[location.stripe_id] = location
        for node in location.placement:
            self._node_stripes.setdefault(node, set()).add(location.stripe_id)

    def stripe(self, stripe_id: str) -> StripeLocation:
        return self._stripes[stripe_id]

    def stripe_ids(self) -> list[str]:
        """All registered stripe ids, sorted."""
        return sorted(self._stripes)

    def stripes_with_node(self, node: int) -> list[str]:
        """Stripes that placed a chunk on ``node``.

        Served from the node->stripes index (O(stripes on the node), not
        a scan of the whole namespace): the recovery orchestrator calls
        this on every failure event.
        """
        return sorted(self._node_stripes.get(node, ()))

    def relocate_chunk(self, stripe_id: str, chunk_index: int, new_node: int) -> None:
        """Record that a chunk now lives on ``new_node`` (post-repair).

        The new node must not already hold another chunk of the stripe.
        """
        loc = self.stripe(stripe_id)
        if new_node in loc.placement and loc.placement[chunk_index] != new_node:
            raise ValueError(
                f"node {new_node} already holds a chunk of {stripe_id}"
            )
        placement = list(loc.placement)
        old_node = placement[chunk_index]
        placement[chunk_index] = new_node
        self._stripes[stripe_id] = StripeLocation(
            stripe_id=stripe_id, placement=tuple(placement)
        )
        if old_node != new_node:
            self._node_stripes.get(old_node, set()).discard(stripe_id)
            self._node_stripes.setdefault(new_node, set()).add(stripe_id)
        # a relocated chunk was just rewritten from verified data
        word = self.corrupt.pop(stripe_id, 0) & ~(1 << chunk_index)
        if word:
            self.corrupt[stripe_id] = word

    # ---- quarantine (integrity) ---------------------------------------- #

    def quarantine_chunk(self, stripe_id: str, chunk_index: int) -> None:
        """Mark a chunk corrupt: no plan may use it until it is rebuilt.

        The stored payload is *not* deleted — quarantine is a metadata
        verdict, and concurrent repairs already streaming the chunk are
        aborted/re-planned by the system, not surprised by a vanishing
        buffer.  :meth:`relocate_chunk` (the repair writing a fresh copy)
        clears the mark.
        """
        loc = self.stripe(stripe_id)
        if not 0 <= chunk_index < len(loc.placement):
            raise ValueError(f"{stripe_id} has no chunk {chunk_index}")
        self.corrupt[stripe_id] = self.corrupt.get(stripe_id, 0) | 1 << chunk_index

    def is_quarantined(self, stripe_id: str, chunk_index: int) -> bool:
        return bool(self.corrupt.get(stripe_id, 0) >> chunk_index & 1)

    def quarantined_chunks(self, stripe_id: str) -> tuple[int, ...]:
        """Quarantined chunk indices of one stripe, sorted."""
        return tuple(bits(self.corrupt.get(stripe_id, 0)))

    def on_bandwidth_report(
        self, report: BandwidthReport, now: float | None = None
    ) -> None:
        """Fold a node's report into the bandwidth picture.

        Reports for unregistered node ids raise :class:`UnknownNodeError`
        and reports from nodes already declared dead raise
        :class:`DeadNodeError` — a dead node's report must go through
        :meth:`mark_node_live` (rejoin) first, never silently mutate the
        snapshot a plan may be computed from.  ``now`` (simulation time)
        renews the node's heartbeat lease when leases are configured.
        """
        self._check_node_id(report.node)
        if self.dead >> report.node & 1:
            raise DeadNodeError(
                f"rejecting bandwidth report from dead node {report.node}; "
                "mark_node_live() it first if it rejoined"
            )
        self._uplink[report.node] = report.uplink_mbps
        self._downlink[report.node] = report.downlink_mbps
        if now is not None:
            self._last_report[report.node] = now
        if self.plan_cache is not None:
            self.plan_cache.observe_report(
                report.node, report.uplink_mbps, report.downlink_mbps
            )

    def snapshot(self) -> BandwidthSnapshot:
        return BandwidthSnapshot(
            uplink=self._uplink.copy(), downlink=self._downlink.copy()
        )

    # ---- repair scheduling -------------------------------------------- #

    def build_context(
        self,
        stripe_id: str,
        failed_node: int,
        requester: int,
        *,
        bandwidth_scale: float = 1.0,
    ) -> RepairContext:
        """Repair context for a stripe/failure pair from current bandwidth.

        Helpers exclude the failed node and what the master believes
        unusable: nodes declared dead (:attr:`dead`; a crash reaches it
        only by detection) and quarantined chunks (:attr:`corrupt`).  Raises
        :class:`RepairImpossibleError` when fewer than k helpers survive
        — the caller's only correct moves are the multi-chunk path or an
        explicit failure verdict.

        ``bandwidth_scale`` plans the repair inside a *fraction* of every
        node's available bandwidth — the recovery orchestrator's budget
        share (see :mod:`repro.recovery`); algorithms like FullRepair
        consume everything they are offered, so scaling the snapshot is
        how admission control bounds a repair's footprint.
        """
        loc = self.stripe(stripe_id)
        if failed_node not in loc.placement:
            raise ValueError(f"node {failed_node} holds no chunk of {stripe_id}")
        if requester in loc.placement:
            raise ValueError("requester must not already hold a stripe chunk")
        dead = self.dead
        if dead >> requester & 1:
            raise DeadNodeError(f"requester {requester} is dead")
        corrupt = self.corrupt.get(stripe_id, 0)
        chunk_index = {
            n: ci
            for ci, n in enumerate(loc.placement)
            if n != failed_node and not (dead >> n & 1 or corrupt >> ci & 1)
        }
        helpers = tuple(chunk_index)
        if len(helpers) < self.code.k:
            raise RepairImpossibleError(
                f"{stripe_id}: only {len(helpers)} live helpers remain, "
                f"need k={self.code.k}"
            )
        if not 0.0 < bandwidth_scale <= 1.0:
            raise ValueError(
                f"bandwidth_scale must be in (0, 1], got {bandwidth_scale}"
            )
        snapshot = self.snapshot()
        if bandwidth_scale != 1.0:
            snapshot = BandwidthSnapshot(
                uplink=snapshot.uplink * bandwidth_scale,
                downlink=snapshot.downlink * bandwidth_scale,
            )
        return RepairContext(
            snapshot=snapshot,
            requester=requester,
            helpers=helpers,
            k=self.code.k,
            chunk_index=chunk_index,
        )

    def plan_for_context(self, context: RepairContext) -> RepairPlan:
        """One validated plan via the configured algorithm (cache-aware)."""
        if self.plan_cache is not None:
            plan = self.plan_cache.get_or_compute(self.algorithm, context)
            result = plan.meta.get("plan_cache", "miss")
            self.obs.plan_cache(result, self.algorithm.name, context.requester)
            return plan
        plan = self.algorithm.plan(context)
        plan.validate()
        return plan

    def plan_with_fallback(
        self,
        context: RepairContext,
        *,
        prev_plan: RepairPlan | None = None,
        newly_dead: tuple[int, ...] = (),
    ) -> RepairPlan:
        """Plan down the degradation ladder; never returns an invalid plan.

        1. **Promotion** — when re-planning because helpers died, first
           try splicing spare helpers into the previous plan's trees
           (:func:`~repro.repair.recovery.substitute_nodes`): zero
           scheduling cost and the surviving transfers keep their rates.
        2. **Re-plan** — run the configured algorithm on the current
           snapshot and surviving helpers.
        3. **Star fallback** — if the algorithm cannot produce a feasible
           plan (degenerate bandwidth, helper set at exactly k, ...),
           degrade to conventional star repair, which only needs k
           helpers with positive uplink.

        Raises :class:`RepairImpossibleError` when every rung fails.
        ``plan.meta["recovery"]`` records which rung produced the plan.
        """
        if prev_plan is not None and newly_dead:
            promoted = substitute_nodes(prev_plan, newly_dead, context)
            if promoted is not None:
                self._note_ladder("promotion", context)
                return promoted
        try:
            return self.plan_for_context(context)
        except (ValueError, RuntimeError):
            pass
        from ..repair.conventional import ConventionalRepair

        if self.algorithm.name != "conventional":
            try:
                star = ConventionalRepair().plan(context)
                star.validate()
                star.meta["recovery"] = "star-fallback"
                self._note_ladder("star-fallback", context)
                return star
            except (ValueError, RuntimeError):
                pass
        raise RepairImpossibleError(
            f"no feasible plan for requester {context.requester} with "
            f"helpers {context.helpers}"
        )

    def _note_ladder(self, rung: str, context: RepairContext) -> None:
        """Record a degradation-ladder rung being taken."""
        log.debug("degradation ladder: %s (requester %d)", rung, context.requester)
        self.obs.ladder(rung, context.requester, len(context.helpers))

    def schedule_repair(
        self,
        stripe_id: str,
        failed_node: int,
        requester: int,
        *,
        prev_plan: RepairPlan | None = None,
        newly_dead: tuple[int, ...] = (),
        bandwidth_scale: float = 1.0,
    ) -> RepairPlan:
        """Compute and validate the repair plan for a failure.

        With a :class:`~repro.core.plancache.PlanCache` configured,
        repeated failures with the same geometry and near-identical
        bandwidth reuse the cached (already validated) plan.  On a
        re-plan after a mid-repair helper loss, pass the previous plan
        and the newly dead nodes to enable the promotion fast path and
        the star fallback (the degradation ladder of
        :meth:`plan_with_fallback`).  ``bandwidth_scale`` plans inside a
        fraction of every node's bandwidth (budgeted admission; see
        :meth:`build_context`).
        """
        context = self.build_context(
            stripe_id, failed_node, requester, bandwidth_scale=bandwidth_scale
        )
        plan = self.plan_with_fallback(
            context, prev_plan=prev_plan, newly_dead=newly_dead
        )
        self.obs.plan_scheduled(plan, self.algorithm.name)
        return plan

    def compile_tasks(
        self,
        plan: RepairPlan,
        stripe_id: str,
        lost_chunk: int,
        *,
        num_slices: int,
        repair_id: str,
        intervals: list[tuple[int, int]],
    ) -> list[TransferTask]:
        """Turn plan pipelines into concrete per-node transfer tasks.

        ``intervals`` (half-open byte ranges, disjoint and ascending) are
        the *unfinished remainder* of the chunk, ``[(0, chunk_bytes)]``
        for a fresh repair: the plan's normalised ``[0, 1)`` space is
        laid over the concatenation of the intervals, so each pipeline
        repairs its proportional share of what is actually left.  A
        pipeline whose share straddles an interval boundary is emitted
        as several task groups with distinct pipeline ids (the transfer
        tree and rates are identical; only byte ranges differ).
        ``num_slices`` is the repair-wide pipelining window count shared
        by every task and ``repair_id`` the wire epoch they belong to
        (see :class:`~repro.cluster.messages.TransferTask`).
        """
        spans = [(int(a), int(b)) for a, b in intervals if b > a]
        total = sum(b - a for a, b in spans)
        if total <= 0:
            return []
        loc = self.stripe(stripe_id)
        context = plan.context
        # shared boundary map: identical floats -> identical byte cuts
        # (offsets into the concatenated remainder space)
        boundaries: dict[float, int] = {}
        for p in plan.pipelines:
            for pos in (p.segment.start, p.segment.stop):
                boundaries.setdefault(pos, int(round(pos * total)))
        tasks: list[TransferTask] = []
        for p in plan.pipelines:
            lo = boundaries[p.segment.start]
            hi = boundaries[p.segment.stop]
            if hi <= lo:
                continue
            participants = p.participants
            helper_chunks = tuple(
                context.chunk_index.get(u, loc.chunk_on(u)) for u in participants
            )
            eq = self.code.repair_equation(lost_chunk, helper_chunks)
            coeff_of = {
                u: eq.coeffs[helper_chunks.index(context.chunk_index.get(u, loc.chunk_on(u)))]
                for u in participants
            }
            for piece, (start, stop) in enumerate(
                _map_concat_range(lo, hi, spans)
            ):
                pipeline_id = (_pipeline_key(p) << 12) | piece
                for node in participants:
                    children = tuple(sorted(p.children_of(node)))
                    parent = p.parent_of(node)
                    rate = next(e.rate for e in p.edges if e.child == node)
                    tasks.append(
                        TransferTask(
                            stripe_id=stripe_id,
                            pipeline_id=pipeline_id,
                            chunk_index=context.chunk_index.get(node, loc.chunk_on(node)),
                            coeff=coeff_of[node],
                            start=start,
                            stop=stop,
                            destination=parent,
                            rate_mbps=rate,
                            wait_for=children,
                            num_slices=num_slices,
                            repair_id=repair_id,
                        )
                    )
        self.obs.tasks_compiled(stripe_id, repair_id, len(tasks), total)
        return tasks


def _map_concat_range(
    lo: int, hi: int, spans: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Map ``[lo, hi)`` in concatenated-interval space to actual byte ranges.

    ``spans`` are the disjoint ascending byte intervals whose
    concatenation defines the space; the result is at most
    ``len(spans)`` pieces, ascending and disjoint.  A repair never
    produces more than 4096 pieces per pipeline (the pipeline-id
    encoding's budget) — remainder intervals are bounded by the previous
    plan's pipeline count.
    """
    pieces: list[tuple[int, int]] = []
    offset = 0
    for a, b in spans:
        length = b - a
        cut_lo = max(lo, offset)
        cut_hi = min(hi, offset + length)
        if cut_hi > cut_lo:
            pieces.append((a + cut_lo - offset, a + cut_hi - offset))
        offset += length
        if offset >= hi:
            break
    if len(pieces) > 4096:
        raise ValueError("remainder too fragmented for pipeline-id encoding")
    return pieces


def _pipeline_key(pipeline: Pipeline) -> int:
    """A stable integer id unique per elementary pipeline.

    Combines the task id with the segment start quantised to 2^-40 chunk
    fractions — elementary pipelines of the same task have distinct
    starts.
    """
    return (pipeline.task_id << 44) | int(pipeline.segment.start * (1 << 40))
