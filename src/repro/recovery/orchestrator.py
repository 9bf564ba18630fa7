"""Background recovery orchestrator: the repair control plane.

FullRepair answers *how fast one repair can go*; this module answers
the production question layered on top — *which* stripe to repair next,
*how much* of the cluster a repair may consume while users are being
served, and *how to adapt* when foreground latency suffers.  Following
the MLF line of work (Zhou et al., arXiv:2011.01410), recovery is a
long-lived scheduling loop, not a one-shot call:

- a durability-ordered :class:`~repro.recovery.queue.RepairQueue`
  (fewest surviving chunks first, tie-broken by age), re-sorted when
  new failures land mid-recovery;
- admission control — at most ``max_concurrent`` in-flight repairs,
  each planned inside a *budget share* of every node's bandwidth.
  Shares are carved from the free budget at admission time and
  reclaimed when a repair finishes, so later admissions re-plan into
  the freed bandwidth instead of inheriting a static 1/m split;
- an adaptive throttle coupled to the SLO engine: any breached rule
  (typically on foreground latency) multiplicatively shrinks the
  effective budget down to a floor; recovery restores it;
- rebuild targets drawn round-robin from the system's ``live`` nodes
  outside the stripe, at most ``max_per_domain`` chunks per failure
  domain when a :class:`~repro.net.topology.DomainTree` is given.

The orchestrator lives *inside* the event queue: it owns no thread and
blocks nothing.  Construct it, :meth:`~RecoveryOrchestrator.start` it,
and run the system's event queue — the control loop ticks, admits,
and drains until both queue and in-flight set are empty.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from ..cluster.system import ESCALATION_MARK
from ..faults import FAILED
from .queue import RepairQueue, RepairTicket

logger = logging.getLogger(__name__)

#: Multiplicative-decrease / multiplicative-increase factors applied to
#: the throttle on SLO breach / recovery, and the floor the throttle
#: never shrinks below (repair must keep making progress even under
#: sustained foreground pressure).
THROTTLE_SHRINK = 0.5
THROTTLE_RESTORE = 1.5
THROTTLE_FLOOR = 0.1

#: Smallest budget share worth admitting with; below it the loop waits
#: for a completion to reclaim bandwidth.
MIN_SHARE_FRACTION = 0.01

#: Dispatch attempts per stripe before it is dead-lettered.
MAX_ITEM_ATTEMPTS = 3


@dataclass(frozen=True)
class RecoveryConfig:
    """Tunables of the recovery control loop.

    Attributes
    ----------
    budget_fraction:
        Fraction of every node's bandwidth that repair traffic may
        occupy in aggregate (the *repair budget*).
    max_concurrent:
        Admission-control cap on simultaneously in-flight stripe
        repairs.
    tick_s:
        Control-loop period: throttle update + admission + gauges.
    multi_deadline_s:
        Deadline handed to multi-chunk dispatches, positive or ``None``
        (no deadline); misses come back ``failed`` and re-queue instead
        of wedging the loop.  Multi repairs have no progress watchdog,
        so the deadline is the liveness guarantee — a helper crash
        mid-repair would otherwise leave the stripe in flight forever.
    """

    budget_fraction: float = 0.5
    max_concurrent: int = 4
    tick_s: float = 0.01
    multi_deadline_s: float | None = 30.0

    def __post_init__(self) -> None:
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError("budget_fraction must be in (0, 1]")
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be at least 1")
        if self.tick_s <= 0.0:
            raise ValueError("tick_s must be positive")
        if self.multi_deadline_s is not None and self.multi_deadline_s <= 0.0:
            raise ValueError("multi_deadline_s must be positive or None")


@dataclass(slots=True)
class RepairRecord:
    """Audit entry for one admitted stripe repair (slotted: a campaign
    keeps every record, tens of thousands of them)."""

    stripe_id: str
    #: lost-chunk count at admission (the priority class)
    priority_class: int
    enqueued_at: float
    admitted_at: float
    #: budget share granted (fraction of cluster bandwidth)
    share: float
    finished_at: float = 0.0
    status: str = ""
    verified: bool = False
    attempts: int = 1
    failure_reason: str | None = field(default=None, repr=False)


class RecoveryOrchestrator:
    """Prioritised, budgeted, SLO-coupled background recovery.

    Parameters
    ----------
    system:
        The cluster to recover.  The orchestrator registers itself as a
        failure listener, so stripes of any node that crashes after
        construction are enqueued automatically.
    config:
        Control-loop tunables (:class:`RecoveryConfig`).
    slo:
        SLO engine to couple the throttle to; defaults to the system
        observer's.  ``None`` disables throttling.
    tree, spread_level, max_per_domain:
        Domain-aware rebuild placement: a pick never puts more than
        ``max_per_domain`` chunks of a stripe into one ``spread_level``
        domain of the :class:`~repro.net.topology.DomainTree` while a
        compliant node is left.  Without a tree every node is its own
        domain.
    """

    def __init__(
        self,
        system,
        config: RecoveryConfig | None = None,
        *,
        slo=None,
        tree=None,
        spread_level: str = "machine",
        max_per_domain: int = 1,
    ):
        self.system = system
        self.config = config or RecoveryConfig()
        self.slo = slo if slo is not None else system.obs.slo
        self.queue = RepairQueue()
        self.throttle = 1.0
        self.records: list[RepairRecord] = []
        #: stripes that exhausted their attempts -> final failure reason
        self.dead_letters: dict[str, str] = {}
        #: (t, effective budget, committed, in-flight, queue depth)
        self.timeline: list[tuple[float, float, float, int, int]] = []
        self.requeues = 0
        self.skipped = 0
        self.throttle_shrinks = 0
        self.throttle_restores = 0
        self.drained_at: float | None = None
        self._inflight: dict[str, RepairRecord] = {}
        self._tickets: dict[str, RepairTicket] = {}
        self._committed = 0.0
        self._started = False
        self._tick_pending = False
        self._was_active = False
        self._rr = 0  # round-robin cursor over requester candidates
        self.spread_fallbacks = 0  # picks that broke the domain cap
        # node -> bit mask of the nodes in its ``spread_level`` domain
        if tree is None:
            self._peers = [1 << d for d in range(system.num_nodes)]
        else:
            domain_of = tree.disk_domains(spread_level).tolist()
            masks = [0] * tree.num_domains(spread_level)
            for disk, dom in enumerate(domain_of):
                masks[dom] |= 1 << disk
            self._peers = [masks[dom] for dom in domain_of]
        self._max_per_domain = max_per_domain
        # the system's exposure rule, bound once: the intake and
        # reprioritise loops call it for every candidate stripe
        self._exposure = system.exposure
        self._events = system.events
        self._obs = system.obs
        self._run = None  # the observer's handle on this control loop
        system.add_failure_listener(self._on_node_failure)

    # ---- public surface ------------------------------------------------ #

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    @property
    def committed_fraction(self) -> float:
        """Budget fraction currently granted to in-flight repairs."""
        return self._committed

    def effective_budget(self) -> float:
        """Repair budget after SLO throttling."""
        return self.config.budget_fraction * self.throttle

    @property
    def active(self) -> bool:
        return bool(self.queue) or bool(self._inflight)

    def start(self) -> None:
        """Arm the control loop (idempotent); run the event queue after."""
        if self._started:
            return
        self._started = True
        self._run = self._obs.recovery_run(self.config)
        self._ensure_tick(delay=0.0)

    def enqueue_stripe(self, stripe_id: str) -> bool:
        """Queue one stripe for repair (the scrubber's intake path).

        Exposure counts dead *and* quarantined chunks
        (:meth:`~repro.cluster.system.ClusterSystem.unavailable_nodes`),
        so a stripe whose only damage is quarantined rot is admitted and
        repaired like any crash — a *scrub-repair*.  Returns False when
        the stripe is already queued, in flight, dead-lettered, or
        healthy.
        """
        if (
            stripe_id in self._inflight
            or stripe_id in self.queue
            or stripe_id in self.dead_letters
        ):
            return False
        exposure = self._exposure(stripe_id)
        if exposure <= 0:
            return False
        self.queue.push(stripe_id, self._events.now, exposure)
        self._obs.recovery_enqueue(self._run, "scrub_enqueue", stripe_id, exposure)
        if self._started:
            self._ensure_tick(delay=0.0)
        return True

    # ---- failure intake ------------------------------------------------ #

    def _on_node_failure(self, node: int) -> None:
        added = self._enqueue_for(node)
        # a crash can change the exposure of *queued* stripes too:
        # re-sort the whole backlog so double losses jump the line
        self.queue.reprioritise(self._exposure)
        self._obs.recovery_failure(self._run, node, added, len(self.queue))
        if self._started:
            self._ensure_tick(delay=0.0)

    def _enqueue_for(self, node: int) -> int:
        now = self._events.now
        added = 0
        for stripe_id in self.system.stripes_on(node):
            if stripe_id in self._inflight or stripe_id in self.queue:
                continue
            if stripe_id in self.dead_letters:
                continue
            exposure = self._exposure(stripe_id)
            if exposure <= 0:
                continue
            self.queue.push(stripe_id, now, exposure)
            added += 1
        return added

    # ---- control loop -------------------------------------------------- #

    def _ensure_tick(self, delay: float | None = None) -> None:
        if self._tick_pending or not self._started:
            return
        self._tick_pending = True
        self._events.schedule(
            self.config.tick_s if delay is None else delay, self._tick
        )

    def _tick(self) -> None:
        self._tick_pending = False
        now = self._events.now
        if self.active:
            self._was_active = True
        self._update_throttle(now)
        self._admit(now)
        self._obs.recovery_tick(self, now)
        monitor = getattr(self.system, "divergence", None)
        if monitor is not None:
            # sustained queue growth (intake outrunning admission) is a
            # divergence signal, scored by the Page–Hinkley detector
            monitor.feed("recovery.queue_depth", now, float(len(self.queue)))
        self.timeline.append(
            (now, self.effective_budget(), self._committed,
             len(self._inflight), len(self.queue))
        )
        if self.active:
            self._ensure_tick()
        elif self._was_active:
            self._was_active = False
            self.drained_at = now
            repaired, dead = len(self.records), len(self.dead_letters)
            self._obs.recovery_drained(self._run, repaired, dead)
            logger.info(
                "recovery drained at t=%.4fs: %d repaired, %d dead-lettered",
                now, repaired, dead,
            )

    def _update_throttle(self, now: float) -> None:
        if self.slo is None:
            return
        self.slo.evaluate(now)
        breached = any(ok is False for ok in self.slo.status().values())
        if breached:
            shrunk = max(THROTTLE_FLOOR, self.throttle * THROTTLE_SHRINK)
            if shrunk < self.throttle - 1e-12:
                self.throttle = shrunk
                self._note_throttle("shrink")
        elif self.throttle < 1.0:
            self.throttle = min(1.0, self.throttle * THROTTLE_RESTORE)
            self._note_throttle("restore")

    def _note_throttle(self, direction: str) -> None:
        if direction == "shrink":
            self.throttle_shrinks += 1
        else:
            self.throttle_restores += 1
        budget = self.effective_budget()
        self._obs.recovery_throttle(self._run, direction, self.throttle, budget)

    def _admit(self, now: float) -> None:
        cfg = self.config
        while len(self._inflight) < cfg.max_concurrent and len(self.queue):
            free = self.effective_budget() - self._committed
            slots = cfg.max_concurrent - len(self._inflight)
            share = free / min(slots, len(self.queue))
            if share < MIN_SHARE_FRACTION:
                return  # wait for a completion to reclaim budget
            ticket = self.queue.pop()
            # quarantined chunks count: scrub findings dispatch through
            # the same repair path as crashes
            lost = self.system.unavailable_nodes(ticket.stripe_id)
            if not lost:
                # healed while queued (e.g. a degraded read stored it)
                self.skipped += 1
                continue
            self._dispatch(ticket, lost, share, now)

    def _pick_requesters(self, stripe_id, lost):
        """Distinct live nodes outside the placement to rebuild onto.

        Round-robins from the cursor over the system's ``live`` nodes
        outside the placement, so rebuilt chunks spread across the
        cluster instead of piling onto the lowest node id, and skips
        candidates that would push any domain of the stripe past
        ``max_per_domain``.  When no compliant candidate is left it
        degrades to the plain round-robin and counts the violation
        (``spread_fallbacks``).  Without a tree every node is its own
        domain, so no candidate is ever in a full domain and the pick is
        the plain round-robin.
        Candidates, choices and full domains are node bit masks, so a
        pick is a few integer operations whatever the fleet or stripe
        width.
        """
        system = self.system
        placement = system.master.stripe(stripe_id).placement
        # Candidates are the live nodes outside the placement, in
        # ascending order: ``live`` as a list, ``free`` as a node mask.
        # Neither is filtered per dispatch, so a pick costs O(stripe
        # width) bytecode, not O(fleet), and no Python call per slot or
        # candidate.
        live, live_mask = system.live, system.live_mask
        placement_mask = 0
        for d in placement:
            placement_mask |= 1 << d
        held = placement_mask & live_mask  # live nodes that are not candidates
        width = len(live) - held.bit_count()
        if width < len(lost):
            return None
        free = live_mask & ~placement_mask
        # ``kept``: nodes keeping (or chosen for) a chunk of the stripe;
        # ``full``: nodes of the domains already holding ``cap`` of them
        kept = placement_mask
        for f in lost:
            kept &= ~(1 << f)
        peers = self._peers
        cap = self._max_per_domain
        full = 0
        for d in placement:
            if (kept & peers[d]).bit_count() >= cap:
                full |= peers[d]

        chosen: dict[int, int] = {}
        for i, f in enumerate(lost):
            # Round-robin start: the j-th candidate (0-based, ascending)
            # is live[at] for the least at = j + #held nodes <= live[at].
            j = (self._rr + i) % width
            at = j
            while (nxt := j + (held & ((2 << live[at]) - 1)).bit_count()) != at:
                at = nxt
            below = (1 << live[at]) - 1  # nodes the cyclic scan reaches last
            pool = free & ~full
            if not pool:
                # no compliant spare left — degrade to the plain
                # round-robin rather than stall the repair, but count it
                self.spread_fallbacks += 1
                pool = free
            # first node of the pool at or after the start, wrapping
            pool = (pool & ~below) or pool
            pick = (pool & -pool).bit_length() - 1
            free ^= 1 << pick
            kept |= 1 << pick
            chosen[f] = pick
            if (kept & peers[pick]).bit_count() >= cap:
                full |= peers[pick]
        self._rr += len(lost)
        return chosen

    def _dispatch(
        self,
        ticket: RepairTicket,
        lost: tuple[int, ...],
        share: float,
        now: float,
    ) -> None:
        cfg = self.config
        stripe_id = ticket.stripe_id
        ticket.attempts += 1
        requesters = self._pick_requesters(stripe_id, lost)
        if requesters is None:
            self._settle(
                ticket, now, status=FAILED, verified=False,
                reason="no spare live node to rebuild onto", share=None,
            )
            return
        record = RepairRecord(
            stripe_id=stripe_id,
            priority_class=len(lost),
            enqueued_at=ticket.enqueued_at,
            admitted_at=now,
            share=share,
            attempts=ticket.attempts,
        )
        # commit *before* dispatching: on_done may fire synchronously
        # (planning failure) and expects the share to be reclaimable
        self._committed += share
        self._inflight[stripe_id] = record
        self._tickets[stripe_id] = ticket
        self._obs.recovery_admit(self._run, stripe_id, len(lost), share, self._committed)
        try:
            if len(lost) == 1:
                self.system.repair_async(
                    stripe_id,
                    lost[0],
                    requesters[lost[0]],
                    bandwidth_scale=share,
                    on_done=lambda outcome, t=ticket: self._on_single_done(
                        t, outcome
                    ),
                )
            else:
                self.system.repair_multi_async(
                    stripe_id,
                    lost,
                    requesters,
                    bandwidth_scale=share,
                    deadline_s=cfg.multi_deadline_s,
                    on_done=lambda outcomes, t=ticket: self._on_multi_done(
                        t, outcomes
                    ),
                )
        except (ValueError, RuntimeError) as exc:
            self._reclaim(stripe_id)
            self._settle(
                ticket, self._events.now, status=FAILED, verified=False,
                reason=str(exc), share=share,
            )

    # ---- completion ---------------------------------------------------- #

    def _reclaim(self, stripe_id: str) -> RepairRecord | None:
        record = self._inflight.pop(stripe_id, None)
        if record is not None:
            self._committed = max(0.0, self._committed - record.share)
        self._tickets.pop(stripe_id, None)
        return record

    def _on_single_done(self, ticket: RepairTicket, outcome) -> None:
        record = self._reclaim(ticket.stripe_id)
        self._finish(
            ticket,
            record,
            status=outcome.status,
            verified=outcome.verified,
            reason=outcome.failure_reason,
        )

    def _on_multi_done(self, ticket: RepairTicket, outcomes: dict) -> None:
        record = self._reclaim(ticket.stripe_id)
        failed = {
            f: o for f, o in outcomes.items() if o.status == FAILED
        }
        if failed:
            reasons = "; ".join(
                f"n{f}: {o.failure_reason}" for f, o in sorted(failed.items())
            )
            self._finish(
                ticket, record, status=FAILED, verified=False, reason=reasons
            )
            return
        self._finish(
            ticket,
            record,
            status=max(o.status for o in outcomes.values()),
            verified=all(o.verified for o in outcomes.values()),
            reason=None,
        )

    def _finish(
        self,
        ticket: RepairTicket,
        record: RepairRecord | None,
        *,
        status: str,
        verified: bool,
        reason: str | None,
    ) -> None:
        now = self._events.now
        if record is not None:
            record.finished_at = now
            record.status = status
            record.verified = verified
            record.failure_reason = reason
        if status == FAILED:
            escalated = reason is not None and ESCALATION_MARK in reason
            if escalated:
                # exposure changed under us — not the ticket's fault, so
                # the attempt does not count against its retry allowance
                ticket.attempts -= 1
            if escalated or ticket.attempts < MAX_ITEM_ATTEMPTS:
                ticket.last_failure = reason
                self.requeues += 1
                self.queue.requeue(
                    ticket, max(1, self._exposure(ticket.stripe_id))
                )
                self._obs.recovery_requeue(self._run, ticket, record, reason, now)
                if record is not None:
                    self.records.append(record)
                return
            self.dead_letters[ticket.stripe_id] = reason or "repair failed"
            logger.warning(
                "recovery dead-letter %s after %d attempts: %s",
                ticket.stripe_id, ticket.attempts, reason,
            )
        if record is not None:
            self.records.append(record)
        self._obs.recovery_complete(self._run, ticket, record, status, verified, now)
        if status != FAILED:
            self._recheck_exposure(ticket.stripe_id, now)

    def _recheck_exposure(self, stripe_id: str, now: float) -> None:
        """Re-queue a repaired stripe that is *still* exposed.

        A crash landing while the stripe was in flight is invisible to
        the failure intake (in-flight stripes are skipped), and when the
        dead node was a plan participant the watchdog re-plans around it
        without escalating — the repair completes, yet a different chunk
        of the stripe now sits on a dead node.  The completion is the
        first safe moment to notice.
        """
        if stripe_id in self.dead_letters or stripe_id in self.queue:
            return
        residual = self._exposure(stripe_id)
        if residual <= 0:
            return
        self.queue.push(stripe_id, now, residual)
        self._obs.recovery_enqueue(self._run, "reexposed", stripe_id, residual)
        if self._started:
            self._ensure_tick(delay=0.0)

    def _settle(
        self,
        ticket: RepairTicket,
        now: float,
        *,
        status: str,
        verified: bool,
        reason: str | None,
        share: float | None,
    ) -> None:
        """Terminal path for dispatches that never went in flight."""
        record = RepairRecord(
            stripe_id=ticket.stripe_id,
            priority_class=ticket.exposure,
            enqueued_at=ticket.enqueued_at,
            admitted_at=now,
            share=share if share is not None else 0.0,
        )
        self._finish(
            ticket, record, status=status, verified=verified, reason=reason
        )
