"""The repair attempt machine: one lost chunk's reassembly, attempt by attempt.

A watched repair (``ClusterSystem.repair`` / ``repair_async``) is an
:class:`Assembly`: planned -> dispatched -> streaming -> {completed,
aborted -> backoff -> re-planned, escalated, failed}, under a progress
watchdog and, with a ``DivergenceMonitor`` wired, a throughput sampler;
:class:`Heartbeats` renew the master's leases while one runs.  A
:class:`ChunkGroup` is the unwatched executor behind ``repair_multi``,
``repair_node`` and ``repair_multi_async``.  Both reach the cluster only
through their ``ClusterSystem``, which keeps routing and integrity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..faults import COMPLETED, ESCALATED, FAILED
from ..net import units
from ..repair.plan import RepairPlan
from .master import DeadNodeError
from .messages import BandwidthReport

log = logging.getLogger("repro.cluster.attempt")

#: ``failure_reason`` text of a non-blocking repair bounced back because a
#: second chunk was lost mid-repair; the recovery orchestrator matches it
#: to requeue the stripe without charging its retry allowance
ESCALATION_MARK = "multi-chunk repair required"

#: re-dispatch after abort ``a`` waits ``BACKOFF_BASE_S * 2**(a-1)``
BACKOFF_BASE_S = 0.02

#: throughput samples taken per armed watchdog window — the sampler
#: must out-resolve the timeout for early detection to mean anything
DETECT_TICKS_PER_TIMEOUT = 16


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
class Assembly:
    """Requester-side reassembly of one failed chunk, across attempts."""

    system: object = field(repr=False)
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
    escalated: bool = False
    degraded: bool = False
    timer: object = None
    armed_timeout: float = 0.0
    timer_mark: int = -1
    max_attempts: int = 3
    watchdog: bool = False
    #: an unwatched chunk no deadline or queue drain will ever settle:
    #: a crash of its requester or of a helper of its plan fails it
    fail_on_crash: bool = False
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
    #: (guards against re-verifying on finish re-entry)
    integrity_attempt: int = -1
    # ---- non-blocking dispatch (orchestrator path) -------------------- #
    #: terminal callback fired exactly once with the assembly itself
    on_done: object = None
    store: bool = True
    start_time: float = 0.0
    #: fraction of cluster bandwidth this repair (and its re-plans) may use
    bandwidth_scale: float = 1.0
    # ---- the observer's handles (None / NULL_SPAN when tracing is off) - #
    span: object = None
    attempt_span: object = None
    #: per node (uplink, downlink) busy seconds at open (metrics live only)
    busy_before: list | None = None

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
        return self.watchdog and not (self.complete or self.failed or self.escalated)

    def plan_participants(self) -> tuple[int, ...]:
        if self.plan is None:
            return ()
        return tuple(
            sorted({c for p in self.plan.pipelines for c in p.participants})
        )

    # ---- one attempt: planned -> dispatched -> streaming ---------------- #

    def start(self) -> None:
        """Plan and dispatch one attempt over the unfinished remainder."""
        if not self.running:
            return
        system = self.system
        master = system.master
        # dispatch-time liveness probe: the master checks the placement
        # (and the requester) before planning, so crashed nodes are
        # declared dead without waiting for a lease to expire
        unseen = system.down & ~master.dead
        for n in (*master.stripe(self.stripe_id).placement, self.requester):
            if unseen >> n & 1:
                master.mark_node_dead(n)
        participants = self.plan_participants()
        if any(
            n != self.failed_node and n not in participants
            for n in system.crashed(self.stripe_id)
        ):
            # a chunk the current plan was not even using is gone too —
            # single-chunk recovery cannot restore the stripe; escalate
            self.escalate(reason="uninvolved chunk lost before attempt")
            return
        live = system.live_mask
        newly_dead = tuple(n for n in participants if not live >> n & 1)
        self.attempt += 1
        if self.attempt > 1:
            self.replans += 1
        system.obs.attempt_start(self, newly_dead)
        log.debug(
            "%s: attempt %d (newly dead: %s)",
            self.repair_id, self.attempt, list(newly_dead),
        )
        try:
            plan = master.schedule_repair(
                self.stripe_id,
                self.failed_node,
                self.requester,
                prev_plan=self.plan,
                newly_dead=newly_dead,
                bandwidth_scale=self.bandwidth_scale,
            )
        except (ValueError, RuntimeError) as exc:
            self.failure_reason = f"planning failed: {exc}"
            log.debug("%s: planning failed: %s", self.repair_id, exc)
            system.obs.planning_failed(self, exc)
            self.finish(retire=True)
            return
        self.plan = plan
        if "recovery" in plan.meta:
            self.degraded = True  # a ladder rung (promotion / star) was used
        wire = (
            self.repair_id
            if self.attempt == 1
            else f"{self.repair_id}#a{self.attempt}"
        )
        system._dispatch_tasks(self, wire)
        self.arm_timer()
        self.arm_detector()
        system.heartbeats.ensure()

    def arm_timer(self) -> None:
        """(Re)arm the progress watchdog for the current attempt."""
        if self.timer is not None:
            self.system.events.cancel(self.timer)
        # 4x the expected remaining transfer time at plan rate, doubled
        # after every aborted attempt
        remaining = max(self.chunk_bytes - self.done_bytes, 1)
        rate = max(self.plan.total_rate, 1.0)
        timeout = max(0.05, 4.0 * units.transfer_seconds(remaining, rate))
        timeout *= 2**self.retries
        self.armed_timeout = timeout
        self.timer_mark = self.received
        self.timer = self.system.events.schedule(timeout, self.on_timeout)

    def arm_detector(self) -> None:
        """Start the divergence sampler for the current attempt.

        Every tick scores the realised throughput of the attempt's wire
        epoch (bytes folded since the last tick, over the plan's
        ``t_max``) with the monitor's ``repair.throughput_ratio``
        detector, and feeds each participant's uplink busy fraction to
        ``node.busy_fraction``.  A throughput alarm aborts the attempt
        immediately — the blunt timeout stays armed as the fallback for
        faults the detector cannot see (e.g. a crash during warmup).
        """
        system = self.system
        if system.divergence is None:
            return
        if self.detect_timer is not None:
            system.events.cancel(self.detect_timer)
        self.detect_period_s = self.armed_timeout / DETECT_TICKS_PER_TIMEOUT
        self.detect_mark = self.received
        self.detect_mark_t = system.events.now
        self.detect_busy = {
            n: system.nodes[n].uplink_busy_s for n in self.plan_participants()
        }
        self.detect_timer = system.events.schedule(
            self.detect_period_s, partial(self.detect_tick, self.wire_id)
        )

    def disarm_detector(self) -> None:
        if self.detect_timer is not None:
            self.system.events.cancel(self.detect_timer)
            self.detect_timer = None
        if self.system.divergence is not None and self.wire_id:
            # drop the per-wire detector so a recycled epoch re-learns
            self.system.divergence.discard("repair.throughput_ratio", self.wire_id)

    def detect_tick(self, wire: str) -> None:
        """One sample of the attempt epoch ``wire`` (see :meth:`arm_detector`)."""
        self.detect_timer = None
        system = self.system
        monitor = system.divergence
        if not self.running or monitor is None:
            return
        if wire != self.wire_id or wire in system._retired:
            # the timeout fallback (or a re-plan) already retired this
            # attempt epoch: the detector declines rather than double-
            # aborting, and says so in the trace (satellite: the chaos
            # sweeps stay fully explanatory)
            monitor.suppressed(
                "repair.throughput_ratio",
                "timeout fallback owns attempt epoch",
                key=wire,
                attempt=self.attempt,
            )
            monitor.discard("repair.throughput_ratio", wire)
            return
        now = system.events.now
        dt = now - self.detect_mark_t
        if dt > 0:
            plan_rate = float(self.plan.total_rate)
            realised = units.bytes_per_s_to_mbps((self.received - self.detect_mark) / dt)
            ratio = realised / plan_rate if plan_rate > 0 else 0.0
            for node, before in self.detect_busy.items():
                busy = system.nodes[node].uplink_busy_s
                monitor.feed(
                    "node.busy_fraction",
                    now,
                    min(1.0, max(0.0, (busy - before) / dt)),
                    key=str(node),
                )
                self.detect_busy[node] = busy
            self.detect_mark = self.received
            self.detect_mark_t = now
            alarm = monitor.feed("repair.throughput_ratio", now, ratio, key=wire)
            if alarm is not None:
                # divergence confirmed while the timeout is still ticking:
                # abort the attempt now instead of burning the rest of the
                # window
                if self.timer is not None:
                    system.events.cancel(self.timer)
                    self.timer = None
                system.obs.detector_abort(self, ratio, alarm)
                log.debug(
                    "%s: divergence detector fired on attempt %d "
                    "(ratio %.3g, stat %.3g)",
                    self.repair_id, self.attempt, ratio, alarm.stat,
                )
                self.abort(
                    f"throughput diverged from plan (ratio {ratio:.3g}, "
                    f"attempt {self.attempt})",
                )
                return
        self.detect_timer = system.events.schedule(
            self.detect_period_s, partial(self.detect_tick, wire)
        )

    def on_timeout(self) -> None:
        self.timer = None
        if not self.running:
            return
        if self.received > self.timer_mark:
            self.arm_timer()  # progress since the last check: keep watching
            return
        self.system.obs.watchdog_fire(self)
        log.debug(
            "%s: watchdog fired on attempt %d (timeout %.4gs)",
            self.repair_id, self.attempt, self.armed_timeout,
        )
        self.abort(
            f"no progress within {self.armed_timeout:.4g}s "
            f"(attempt {self.attempt})",
        )

    # ---- aborted -> backoff -> re-planned ------------------------------ #

    def abort(self, reason: str) -> None:
        """Tear down the current attempt (stalled, diverged, or proven
        poisoned) and schedule the next one after the backoff."""
        self.retries += 1
        self.disarm_detector()
        self.system._retire_wire(self.wire_id)
        self.system.obs.attempt_abort(self, reason)
        log.debug("%s: attempt %d aborted: %s", self.repair_id, self.attempt, reason)
        # scrub slices that only partially arrived — their XOR state is
        # useless without the missing contributions, and a stale late
        # slice must never fold into the next attempt's bytes
        for pid, ranges in self.slice_arrivals.items():
            want = self.expected.get(pid, 0)
            for (lo, hi), got in ranges.items():
                if got and got != want:
                    self.bytes_retransferred += (hi - lo) * got.bit_count()
                    self.buffer[lo:hi] = 0
        self.expected = {}
        self.outstanding = {}
        self.slice_arrivals = {}
        if self.attempt >= self.max_attempts:
            self.failure_reason = f"{reason}; {self.attempt} attempts exhausted"
            self.finish(retire=False)
            return
        delay = BACKOFF_BASE_S * (2 ** (self.attempt - 1))
        self.system.events.schedule(delay, self.start)

    def verify(self) -> bool:
        """Post-repair verification of a completed watchdog assembly.

        True — the assembly is terminal (verified clean, healed from
        surplus parity, or explicitly failed); False — the rebuilt bytes
        were poisoned, the culprit is quarantined, and a fresh attempt
        has been scheduled over the remaining helpers.  An unverifiable
        rebuild fed by a culprit counts as poisoned: it is re-repaired
        without it, or fails once attempts run out.
        """
        obs = self.system.obs
        report = self.system._audit(self)
        if report.ok:
            self.integrity_ok = True
            obs.verification(self, "ok", report)
            return True
        fed = report.unverifiable and self.fed_by(report.culprits)
        if report.unverifiable and not fed:
            # too few clean chunks survive to check the rebuild with
            self.integrity_ok = None
            obs.verification(self, "unverifiable", report)
            return True
        if report.rebuilt_ok:
            # rot exists at rest but the culprit never fed this repair:
            # the rebuilt value checks out against the clean chunks
            self.integrity_ok = True
            obs.verification(self, "corrupt-helper", report)
            return True
        if report.culprits and self.attempt < self.max_attempts:
            # the rebuilt bytes are poisoned: scrub everything and
            # repair again with the quarantined culprit excluded
            obs.verification(self, "retry", report)
            log.debug(
                "%s: rebuilt chunk failed verification (culprits %s); "
                "re-repairing", self.repair_id, list(report.culprits),
            )
            if self.timer is not None:
                self.system.events.cancel(self.timer)
                self.timer = None
            self.bytes_retransferred += self.done_bytes
            self.buffer[:] = 0
            self.completed = []
            self.done_bytes = 0
            self.abort("rebuilt chunk failed integrity verification")
            return False
        if report.predicted is not None:
            # attempts exhausted (or no culprit among stored chunks) but
            # the surplus parity pins the true value: heal in place
            self.buffer[:] = report.predicted
            self.integrity_ok = True
            self.degraded = True
            obs.healed(self)
            obs.verification(self, "healed", report)
            return True
        self.failure_reason = (
            "rebuilt chunk was fed by a corrupt helper and too few clean "
            "chunks survive to check it" if fed else
            "rebuilt chunk failed integrity verification and the "
            "corruption could not be localized"
        )
        obs.verification(self, "failed", report)
        return True

    def fed_by(self, culprits) -> bool:
        """Whether a node of this attempt's plan holds a chunk in
        ``culprits``: its rot may be in the rebuilt bytes."""
        placement = self.system.master.stripe(self.stripe_id).placement
        holders = {placement[ci] for ci in culprits}
        return not holders.isdisjoint(self.plan_participants())

    # ---- terminal: completed, escalated, failed ------------------------ #

    def escalate(self, **attrs) -> None:
        """End a watchdog repair that lost a second chunk: its caller
        restarts it through the multi-chunk path."""
        self.escalated = True
        self.system.obs.escalate(self, **attrs)
        self.finish(retire=True)

    def finish(self, *, retire: bool) -> None:
        """Terminal bookkeeping: stop the watchdog (and maybe the wire)."""
        if self.complete:
            # every slice of the wire landed: its senders' buffers are dead
            # before the audit runs (a failed audit re-plans on a new wire)
            for node in self.system.nodes:
                node.release_repair(self.wire_id)
        if (
            self.watchdog
            and self.complete
            and not self.failed
            and not self.escalated
            and self.integrity_attempt != self.attempt
        ):
            # verify the rebuilt bytes before declaring success; a
            # poisoned buffer quarantines its culprit and re-repairs
            self.integrity_attempt = self.attempt
            if not self.verify():
                return  # a fresh attempt is scheduled; not terminal yet
        if self.timer is not None:
            self.system.events.cancel(self.timer)
            self.timer = None
        self.disarm_detector()
        if retire:
            self.system._retire_wire(self.wire_id)
        self.system.obs.attempt_end(self)
        if self.on_done is not None:
            # non-blocking dispatch: the terminal callback fires exactly
            # once, from inside the event-queue run that finished us
            callback, self.on_done = self.on_done, None
            callback(self)

    def settle(self, *, drained: bool = False) -> RepairOutcome:
        """Close a terminal watchdog repair and settle it: the tail of
        ``repair`` (``drained``) and of ``repair_async``.

        An escalated repair restarts through ``repair_multi`` once the
        queue has drained; inside a run, which cannot nest, it is
        bounced back ``failed`` with :data:`ESCALATION_MARK`.
        """
        self.system._close_assembly(self, drained=drained)
        if self.escalated and drained:
            outcome = self.settle_escalated()
        elif self.escalated:
            outcome = self.failed_outcome(
                f"second chunk lost mid-repair; {ESCALATION_MARK}"
            )
        elif not self.complete or self.failed:
            outcome = self.failed_outcome(
                self.failure_reason or "repair did not complete"
            )
        else:
            outcome = self.system._persist_outcome(self)
            if not outcome.verified and self.integrity_ok is True:
                # the "original" on the failed/quarantined node was itself
                # rotten (or gone): parity verification over the clean
                # stored chunks proved the rebuilt value correct
                outcome.verified = True
        self.system.obs.repair_end(self, outcome, self.system.master.algorithm.name)
        return outcome

    def settle_escalated(self) -> RepairOutcome:
        """Second chunk lost mid-repair: restart through repair_multi."""
        lost = self.system.crashed(self.stripe_id)
        others = [f for f in lost if f != self.failed_node]
        spares = [r for r in self.system.spares(self.stripe_id) if r != self.requester]
        requester_for = {self.failed_node: self.requester, **dict(zip(others, spares))}
        fail_reason = None
        if len(spares) < len(others):
            fail_reason = f"no spare requester for chunk on node {others[len(spares)]}"
        else:
            try:
                ours = self.system.repair_multi(self.stripe_id, lost, requester_for)[
                    self.failed_node
                ]
            except ValueError as exc:  # the multi-chunk planner refused
                fail_reason = str(exc)
            else:
                # the aborted attempt's verdict carries over, merged with
                # what the multi-chunk settle found
                self.corruption_detected |= ours.corruption_detected
                self.quarantined.extend(
                    ci for ci in ours.quarantined_chunks
                    if ci not in self.quarantined
                )
                if ours.status == FAILED:
                    fail_reason = ours.failure_reason
        if fail_reason is not None:
            return self.failed_outcome(
                f"second chunk lost mid-repair; {fail_reason}"
            )
        return self.outcome(
            self.system.events.now,
            plan=ours.plan,
            rebuilt=ours.rebuilt,
            bytes_received=self.received + ours.bytes_received,
            verified=ours.verified,
            attempts=max(self.attempt, 1) + 1,
            status=ESCALATED,
            replans=self.replans + len(lost),
            bytes_retransferred=self.bytes_retransferred + self.received,
        )

    def settle_planned(self) -> RepairOutcome:
        """Settle a completed unwatched chunk: audit, then the shared
        persist tail.  Detect-only: an audit that proves the rebuilt
        bytes wrong, or finds rot it cannot localize, is an explicit
        failed verdict — the caller re-dispatches; nothing is healed or
        re-repaired here.  One with no surplus parity to check with
        persists the chunk unvouched, unless a helper of its plan holds a
        culprit: that one fails too.  A chunk
        that failed before assembling (a rotten helper chunk) comes back
        ``failed`` unaudited."""
        if self.failed:
            return self.failed_outcome(self.failure_reason)
        report = self.system._audit(self)
        if report.ok is False:
            trusted = report.rebuilt_ok or (
                report.unverifiable and not self.fed_by(report.culprits)
            )
            self.system.obs.verification(
                self,
                "failed" if not trusted
                else "unverifiable" if report.unverifiable else "ok",
            )
            if not trusted:
                return self.failed_outcome(
                    "rebuilt chunk failed integrity verification",
                    end=self.last_arrival,
                )
        outcome = self.system._persist_outcome(self)
        oracle = self.system.nodes[self.failed_node].store
        sid, lost = self.stripe_id, self.lost_chunk
        if (
            not outcome.verified
            and report.rebuilt_ok
            and not (oracle.has(sid, lost) and oracle.verify(sid, lost))
        ):
            # the oracle copy is itself rotten (scrub-repair, or rot then
            # crash) or gone; the parity audit that vouched for the
            # rebuilt bytes is the only ground truth left
            outcome.verified = True
        return outcome

    def failed_outcome(self, reason: str, *, end: float | None = None) -> RepairOutcome:
        """The one explicit ``failed`` verdict, read off the assembly.

        The repair ran from ``start_time`` to ``end`` (now, when unset).
        """
        return self.outcome(
            self.system.events.now if end is None else end,
            status=FAILED,
            failure_reason=reason,
        )

    def outcome(self, end: float, **verdict) -> RepairOutcome:
        """The one :class:`RepairOutcome` builder: every field read off
        the assembly of a repair that ran from ``start_time`` to
        ``end``, then overridden by ``verdict``."""
        fields = dict(
            plan=self.plan,
            rebuilt=None,
            elapsed_seconds=end - self.start_time,
            bytes_received=self.received,
            verified=False,
            attempts=max(self.attempt, 1),
            retries=self.retries,
            replans=self.replans,
            bytes_retransferred=self.bytes_retransferred,
            corruption_detected=self.corruption_detected,
            quarantined_chunks=tuple(sorted(self.quarantined)),
        )
        fields.update(verdict)
        return RepairOutcome(**fields)


class ChunkGroup:
    """The one executor behind ``repair_multi``, ``repair_node`` and
    ``repair_multi_async``.

    Opens an unwatched repair per ``(key, plan, stripe_id, failed_node,
    requester)`` job — a single attempt along a ready-made plan, no
    watchdog, no re-plan — and settles each chunk through
    :meth:`Assembly.settle_planned` as it assembles (or fails on a rotten
    helper chunk); ``on_done(outcomes)`` fires once, keyed in job order,
    after the last.  :meth:`close` fails every chunk still open; the
    ``deadline_s`` timer calls it too.  A group with neither a deadline
    nor a caller that drains the queue (``owns_queue``) fails a chunk as
    soon as its requester or a helper of its plan crashes, since nothing
    else would ever settle it.
    """

    def __init__(
        self, system, jobs: list, on_done, deadline_s=None, *, owns_queue=False
    ) -> None:
        self.system = system
        self.on_done = on_done
        self.deadline_s = deadline_s
        self.suffix = f"@m{next(system._repair_seq)}"
        self.outcomes = dict.fromkeys(job[0] for job in jobs)
        self.pending: dict = {}
        self.timer = None
        for key, plan, stripe_id, failed_node, requester in jobs:
            repair_id = f"{stripe_id}/n{failed_node}{self.suffix}"
            asm = self.pending[key] = system._open_assembly(
                stripe_id, failed_node, requester, repair_id,
                {"t_max_mbps": float(plan.total_rate)},
                plan=plan, attempt=1, on_done=partial(self.settle, key),
                fail_on_crash=deadline_s is None and not owns_queue,
            )
            system._dispatch_tasks(asm, repair_id)
        if deadline_s is not None:
            self.timer = system.events.schedule(deadline_s, self.miss_deadline)

    @classmethod
    def run(cls, system, jobs: list) -> dict:
        """Run one chunk group on a queue this call owns, to the end.

        Once the queue has drained, a chunk still open can never
        complete (a helper crashed mid-transfer): it comes back
        ``failed`` and the outcomes of its siblings stand.
        """
        outcomes: dict = {}
        group = cls(system, jobs, outcomes.update, owns_queue=True)
        system.events.run()
        group.close(
            lambda asm: f"batched repair incomplete: {asm.received} of "
            f"{asm.chunk_bytes} bytes arrived"
        )
        return outcomes

    def settle(self, key, asm: Assembly) -> None:
        self.outcomes[key] = asm.settle_planned()
        self.system._close_assembly(asm)
        del self.pending[key]
        if not self.pending:
            self.close(None)

    def miss_deadline(self) -> None:
        missed = f"multi-chunk repair missed its {self.deadline_s:g}s deadline"
        self.close(lambda asm: missed)

    def close(self, reason) -> None:
        """Fail every chunk still open with ``reason(assembly)``, then
        report the outcomes, once."""
        if self.on_done is None:
            return
        for key, asm in self.pending.items():
            self.system._retire_wire(asm.wire_id)
            self.system._close_assembly(asm)
            self.outcomes[key] = asm.failed_outcome(reason(asm))
        self.pending.clear()
        if self.timer is not None:
            self.system.events.cancel(self.timer)
        callback, self.on_done = self.on_done, None
        callback(self.outcomes)


class Heartbeats:
    """Bandwidth heartbeats every ``period_s`` while a watched repair
    runs; off until ``ClusterSystem.enable_heartbeats`` sets the period."""

    def __init__(self, system) -> None:
        self.system = system
        self.period_s: float | None = None
        self.pending = False

    def ensure(self) -> None:
        if self.period_s is None or self.pending:
            return
        self.pending = True
        self.system.events.schedule(self.period_s, self.tick)

    def tick(self) -> None:
        self.pending = False
        system = self.system
        now = system.events.now
        snap = system.master.snapshot()
        for i, node in enumerate(system.nodes):
            if system.down >> i & 1:
                continue  # crashed nodes stop reporting; leases expire
            if node.reports_suppressed_until > now:
                continue
            up = float(snap.uplink[i])
            if node.rate_cap_mbps is not None:
                up = min(up, node.rate_cap_mbps)
            report = BandwidthReport(
                node=i, uplink_mbps=up, downlink_mbps=float(snap.downlink[i])
            )
            if node.report_delay_s > 0:
                system.events.schedule(node.report_delay_s, partial(self.submit, report))
            else:
                self.submit(report)
        system.master.check_leases(now)
        if any(a.running for a in system._assemblies.values()):
            self.ensure()

    def submit(self, report: BandwidthReport) -> None:
        master, now = self.system.master, self.system.events.now
        try:
            master.on_bandwidth_report(report, now=now)
        except DeadNodeError:
            if self.system.is_alive(report.node):
                # lease false positive: the node is alive and reporting —
                # rejoin it (the master's dead mask is a belief, not truth)
                master.mark_node_live(report.node)
                master.on_bandwidth_report(report, now=now)
