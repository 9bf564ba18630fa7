"""One observer seam between the repair classes and the four sinks.

The cluster, its master, the recovery orchestrator, the scrubber and the
foreground stream call one :class:`Observer` at fixed points (a repair
opening, an attempt aborting, a fault landing, a recovery tick, ...) and
never name a sink or a metric.  The observer turns each point into the
tracer's spans and events, the registry's metrics, the fleet's samples
and the SLO evaluation, in the order those sinks always received them.
:func:`build_observer` is the one constructor; with no live sink it
returns :data:`NULL_OBSERVER`, whose fixed points do nothing.

Two control inputs stay outside the seam, because they change what the
repair does: a :class:`~repro.obs.detect.DivergenceMonitor` aborts
diverged attempts (``ClusterSystem.divergence``), and the orchestrator's
throttle reads ``slo.status()``.
"""

from __future__ import annotations

from ..faults import COMPLETED, FAILED
from ..net import units
from .fleet import NULL_FLEET
from .metrics import NULL_METRICS
from .trace import NULL_TRACER

#: The help text of every metric family the observer publishes.
HELP = {
    "repro_repairs_total": "Repairs by terminal status.",
    "repro_repair_seconds": "End-to-end repair time (simulated seconds).",
    "repro_retries_total": "Attempts aborted by the progress watchdog.",
    "repro_replans_total": "Plans computed after the first.",
    "repro_bytes_retransferred_total":
        "Requester bytes scrubbed and repaired again after aborts.",
    "repro_bytes_received_total":
        "Payload bytes folded into requester assembly buffers.",
    "repro_t_max_mbps": "Planned repair throughput t_max of the last plan (Mbps).",
    "repro_achieved_mbps": "Decoded-chunk throughput actually achieved (Mbps).",
    "repro_throughput_ratio": "Achieved throughput over the planner's t_max "
        "(1.0 = optimal, lower = overheads/faults).",
    "repro_event_queue_executed": "Simulation events executed so far.",
    "repro_event_queue_peak_depth": "High-water mark of the pending-event queue.",
    "repro_node_uplink_busy_fraction":
        "Fraction of the repair window each uplink was busy.",
    "repro_node_downlink_busy_fraction":
        "Fraction of the repair window each downlink was busy.",
    "repro_node_bytes_sent_total": "Payload bytes each node has put on the wire.",
    "repro_watchdog_fires_total": "Stalled attempts aborted by the progress watchdog.",
    "repro_detect_early_aborts_total": "Attempts aborted by the divergence "
        "detector ahead of the watchdog timeout.",
    "repro_faults_injected_total": "Faults applied by the injector, by kind.",
    "repro_integrity_corruption_detected_total":
        "Silent-corruption detections, by detection path.",
    "repro_integrity_quarantined_total":
        "Chunks quarantined as corrupt, by detection path.",
    "repro_integrity_retransmits_total":
        "Slices re-sent after a checksum failure downstream.",
    "repro_integrity_verifications_total":
        "Post-repair stripe verifications by result.",
    "repro_integrity_healed_total": "Rebuilt chunks healed from surplus parity "
        "after failing verification.",
    "repro_integrity_scrub_chunks_total":
        "Chunks verified by the background scrubber.",
    "repro_integrity_scrub_bytes_total": "Bytes read by the background scrubber.",
    "repro_plan_cache_lookups_total": "Plan-cache lookups by result.",
    "repro_ladder_total": "Degradation-ladder rungs taken.",
    "repro_recovery_enqueued_total": "Stripes entering the repair queue.",
    "repro_recovery_throttle_total": "Throttle moves, by direction.",
    "repro_recovery_admitted_total":
        "Stripe repairs admitted past admission control.",
    "repro_recovery_completed_total": "Stripe repairs reaching a terminal state.",
    "repro_recovery_repair_seconds": "Admission-to-finish stripe repair time.",
    "repro_recovery_share_seconds_total":
        "Budget utilisation: granted share x occupancy.",
    "repro_recovery_requeued_total": "Failed stripe repairs sent back to the queue.",
    "repro_recovery_queue_depth": "Stripes waiting for repair.",
    "repro_recovery_queue_oldest_age_seconds":
        "Age of the longest-waiting queued stripe.",
    "repro_recovery_inflight": "Stripe repairs currently in flight.",
    "repro_recovery_budget_fraction":
        "Effective repair budget after SLO throttling.",
    "repro_recovery_budget_committed_fraction":
        "Budget fraction granted to in-flight repairs.",
    "repro_foreground_reads_total": "Foreground chunk reads issued.",
    "repro_foreground_bytes_total": "Foreground bytes served.",
    "repro_foreground_latency_seconds": "Foreground read latency.",
}

#: The orchestrator's per-tick gauges, in the order :meth:`recovery_tick` sets them.
_RECOVERY_GAUGES = tuple(
    f"repro_recovery_{name}" for name in (
        "queue_depth", "queue_oldest_age_seconds", "inflight",
        "budget_fraction", "budget_committed_fraction",
    )
)


class Observer:
    """Every fixed point of the repair path, fanned out to the sinks.

    A sink not given is its NULL no-op, so each point simply calls all
    four.  Per repair the observer keeps its handles on the repair's
    assembly (``span``, ``attempt_span``, ``busy_before``); per wire
    epoch, the open pipeline spans; per node, the downlink occupancy
    that only the busy-fraction gauges read.
    """

    def __init__(
        self, tracer=NULL_TRACER, metrics=NULL_METRICS, fleet=NULL_FLEET,
        slo=None, events=None, nodes=(),
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.fleet = fleet
        self.slo = slo
        self._events = events
        self._nodes = nodes
        #: cumulative seconds of inbound edge occupancy per node
        self._downlink_busy = [0.0] * len(nodes)
        #: (wire id, pipeline id) -> open pipeline span
        self._pipeline_spans: dict[tuple[str, int], object] = {}
        #: repair id -> span of each repair still routed, in open order
        self._open: dict[str, object] = {}
        self._gauges = None  # the orchestrator's gauge handles, bound once

    def _count(self, name: str, amount: float = 1.0, **labels) -> None:
        self.metrics.counter(name, HELP[name], **labels).inc(amount)

    def _gauge(self, name: str, value: float, **labels) -> None:
        self.metrics.gauge(name, HELP[name], **labels).set(value)

    # ---- one repair --------------------------------------------------- #

    def repair_open(self, asm, algorithm: str, attrs: dict) -> None:
        """A repair's assembly is registered: open its span; a watchdog
        repair also notes every node's busy time for its gauges."""
        asm.span = self.tracer.start_span(
            f"repair {asm.repair_id}", kind="repair", stripe=asm.stripe_id,
            failed_node=asm.failed_node, requester=asm.requester,
            chunk_bytes=asm.chunk_bytes, algorithm=algorithm, **attrs,
        )
        if asm.span:
            self._open[asm.repair_id] = asm.span
        if asm.watchdog and self.metrics.enabled:
            asm.busy_before = [
                (node.uplink_busy_s, down)
                for node, down in zip(self._nodes, self._downlink_busy)
            ]

    def attempt_start(self, asm, newly_dead: tuple) -> None:
        """An attempt opens (a re-plan when it is not the first)."""
        asm.attempt_span = self.tracer.start_span(
            f"attempt {asm.attempt}", kind="attempt", parent=asm.span,
            n=asm.attempt, repair_id=asm.repair_id,
        )
        if asm.attempt > 1:
            self.tracer.event(asm.attempt_span, "replan", attempt=asm.attempt,
                              newly_dead=list(newly_dead))

    def planning_failed(self, asm, exc: Exception) -> None:
        self.tracer.event(asm.attempt_span, "planning.failed", error=str(exc))

    def pipelines_open(self, asm, tasks, remaining: int) -> None:
        """A wire epoch is dispatched: one span per requester-bound
        pipeline, with its end-to-end rate (the min task rate on its
        chain, which the attribution replay compares durations against),
        and the attempt records its wire, remainder and plan."""
        tracer = self.tracer
        if not tracer.enabled:
            return
        rates: dict[int, float] = {}
        for t in tasks:
            pid = t.pipeline_id
            rates[pid] = min(rates.get(pid, t.rate_mbps), t.rate_mbps)
        parent = asm.attempt_span or asm.span
        for pid, nbytes in asm.outstanding.items():
            self._pipeline_spans[(asm.wire_id, pid)] = tracer.start_span(
                f"pipeline {pid}", kind="pipeline", parent=parent, pipeline=pid,
                bytes=nbytes, wire=asm.wire_id, rate_mbps=rates.get(pid, 0.0),
            )
        if asm.attempt_span:
            tracer.set_attrs(
                asm.attempt_span, wire=asm.wire_id, remaining_bytes=remaining,
                pipelines=len(asm.outstanding),
                rung=asm.plan.meta.get("recovery", "none"),
                t_max_mbps=float(asm.plan.total_rate),
            )

    def pipeline_end(self, wire_id: str, pipeline_id: int) -> None:
        """Every byte of a pipeline's range is decoded."""
        span = self._pipeline_spans.pop((wire_id, pipeline_id), None)
        if span:
            self.tracer.end_span(span)

    def wire_closed(self, wire_id: str, **attrs) -> None:
        """End any still-open pipeline spans belonging to a wire epoch."""
        spans = self._pipeline_spans
        if spans:
            for key in [k for k in spans if k[0] == wire_id]:
                self.tracer.end_span(spans.pop(key), **attrs)

    def watchdog_fire(self, asm) -> None:
        self._count("repro_watchdog_fires_total")
        self.tracer.event(asm.attempt_span or asm.span, "watchdog.fire",
                          attempt=asm.attempt, timeout_s=asm.armed_timeout,
                          received=asm.received)

    def detector_abort(self, asm, ratio: float, alarm) -> None:
        self._count("repro_detect_early_aborts_total")
        self.tracer.event(
            asm.attempt_span or asm.span, "detect.abort", attempt=asm.attempt,
            ratio=ratio, detector=alarm.detector, stat=alarm.stat,
            timeout_s=asm.armed_timeout,
        )

    def attempt_abort(self, asm, reason: str) -> None:
        if asm.attempt_span:
            self.tracer.event(asm.attempt_span, "attempt.abort", reason=reason)
            self.tracer.end_span(asm.attempt_span, aborted=True)
        asm.attempt_span = None

    def attempt_end(self, asm) -> None:
        if asm.attempt_span:
            self.tracer.end_span(asm.attempt_span)
        asm.attempt_span = None

    def escalate(self, asm, **attrs) -> None:
        self.tracer.event(asm.span, "repair.escalate", **attrs)

    def repair_close(self, asm) -> None:
        """An assembly leaves the routing tables: end its wire's open
        pipeline spans and an unwatched repair's span (a watchdog
        repair's ends in :meth:`repair_end`)."""
        self._open.pop(asm.repair_id, None)
        self.wire_closed(asm.wire_id)
        if not asm.watchdog and asm.span:
            self.tracer.end_span(asm.span, status=COMPLETED if asm.complete else FAILED,
                                 bytes_received=asm.received)
            asm.span = None

    def repair_end(self, asm, outcome, algorithm: str) -> None:
        """A watchdog repair settled: close its span, feed the fleet,
        evaluate the SLOs and publish the end-of-repair metrics.

        ``elapsed``, ``achieved``, ``t_max`` and their ratio are computed
        here once; every sink reads the same values.
        """
        now = self._events.now
        elapsed = max(outcome.elapsed_seconds, 0.0)
        plan = outcome.plan
        t_max = float(plan.total_rate) if plan is not None else 0.0
        achieved = ratio = None
        if plan is not None and elapsed > 0:
            achieved = asm.done_bytes / units.mbps_to_bytes_per_s(1.0) / elapsed
            if t_max > 0:
                ratio = achieved / t_max
        if asm.span:
            self.tracer.set_attrs(
                asm.span, status=outcome.status, attempts=outcome.attempts,
                retries=outcome.retries, replans=outcome.replans,
                bytes_received=outcome.bytes_received,
                bytes_retransferred=outcome.bytes_retransferred,
                verified=outcome.verified,
            )
            if outcome.failure_reason:
                self.tracer.set_attrs(asm.span, failure_reason=outcome.failure_reason)
            self.tracer.end_span(asm.span, t=asm.start_time + elapsed)
        samples = {
            "repro_repair_seconds": elapsed,
            "repro_repair_failed": 1.0 if outcome.status == FAILED else 0.0,
            "repro_achieved_mbps": achieved,
            "repro_throughput_ratio": ratio,
        }
        for name, value in samples.items():
            if value is not None:
                self.fleet.observe(name, value, t=now, algorithm=algorithm)
        if self.slo is not None:
            self.slo.evaluate(now)
        m = self.metrics
        if not m.enabled:
            return
        self._count("repro_repairs_total", status=outcome.status)
        m.histogram("repro_repair_seconds", HELP["repro_repair_seconds"]).observe(elapsed)
        self._count("repro_retries_total", outcome.retries)
        self._count("repro_replans_total", outcome.replans)
        self._count("repro_bytes_retransferred_total", outcome.bytes_retransferred)
        self._count("repro_bytes_received_total", outcome.bytes_received)
        if plan is not None:
            self._gauge("repro_t_max_mbps", t_max)
        if achieved is not None:
            self._gauge("repro_achieved_mbps", achieved)
        if ratio is not None:
            self._gauge("repro_throughput_ratio", ratio)
        self._gauge("repro_event_queue_executed", self._events.executed)
        self._gauge("repro_event_queue_peak_depth", self._events.peak_pending)
        window = now - asm.start_time
        if asm.busy_before is None or window <= 0:
            return
        for i, node in enumerate(self._nodes):
            up0, down0 = asm.busy_before[i]
            up, down = node.uplink_busy_s - up0, self._downlink_busy[i] - down0
            self._gauge("repro_node_uplink_busy_fraction",
                        min(1.0, up / window), node=str(i))
            self._gauge("repro_node_downlink_busy_fraction",
                        min(1.0, down / window), node=str(i))

    def transfer_hook(self):
        """The DataNode send hook; ``None`` unless the tracer or the
        registry is live.

        It runs once per slice, so everything that does not depend on
        the slice is resolved here: which sinks are enabled, the bound
        methods it calls, and (on a node's first send) that node's byte
        counter.
        """
        tracer = self.tracer if self.tracer.enabled else None
        metrics = self.metrics if self.metrics.enabled else None
        if tracer is None and metrics is None:
            return None
        busy = self._downlink_busy
        num_nodes = len(busy)
        span_of = self._pipeline_spans.get
        record = None if tracer is None else tracer.record_transfer
        sent_bytes: list = [None] * num_nodes

        def note_transfer(
            src: int, dest: int, lo: int, hi: int,
            start_s: float, end_s: float, wire_id: str, pipeline_id: int,
        ) -> None:
            """Credit the sender's byte counter, charge the receiver's
            downlink occupancy, and record the slice as one transfer row
            (read back as an uplink + a downlink ``transfer`` span, which
            the Chrome exporter lays out on per-node lanes)."""
            if metrics is not None:
                counter = sent_bytes[src]
                if counter is None:
                    name = "repro_node_bytes_sent_total"
                    counter = sent_bytes[src] = metrics.counter(name, HELP[name],
                                                                node=str(src))
                counter.inc(hi - lo)
                if 0 <= dest < num_nodes:
                    busy[dest] += end_s - start_s
            if record is not None:
                record(span_of((wire_id, pipeline_id)), src, dest,
                       lo, hi, start_s, end_s, wire_id, pipeline_id)

        return note_transfer

    # ---- cluster-wide events ------------------------------------------ #

    def _live_span(self):
        """Some open repair's span, to hang a cluster-wide event on."""
        return next(iter(self._open.values()), None)

    def node_crash(self, node: int) -> None:
        if self.tracer.enabled:
            self.tracer.event(self._live_span(), "node.crash", node=node)

    def fault_injected(self, fault) -> None:
        """A :class:`~repro.faults.FaultInjector` fault is applied."""
        kind = type(fault).__name__
        self._count("repro_faults_injected_total", kind=kind)
        if self.tracer.enabled:
            attrs = {"kind": kind}
            node = getattr(fault, "node", None)
            if node is not None:
                attrs["node"] = node
            self.tracer.event(self._live_span(), "fault.injected", **attrs)

    # ---- integrity ---------------------------------------------------- #

    def detection(self, kind: str) -> None:
        """Silent corruption caught on the ``kind`` detection path."""
        self._count("repro_integrity_corruption_detected_total", kind=kind)

    def quarantine(self, stripe_id: str, chunk: int, node: int, kind: str) -> None:
        self._count("repro_integrity_quarantined_total", kind=kind)
        self.detection(kind)
        self.tracer.event(None, "integrity.quarantine",
                          stripe=stripe_id, chunk=chunk, node=node, kind=kind)

    def bad_chunk(self, asm, node: int, chunk: int) -> None:
        """A helper's stored chunk failed its digest at assign time."""
        self.tracer.event(asm.attempt_span or asm.span, "integrity.bad_chunk",
                          node=node, chunk=chunk)

    def wire_corruption(self, wire_id: str, dest: int, data) -> None:
        self.detection("wire")
        self.tracer.event(self._pipeline_spans.get((wire_id, data.pipeline_id)),
                          "integrity.wire_corruption", src=data.source, dst=dest,
                          lo=data.start, hi=data.stop)

    def retransmit(self, wire_id: str, data) -> None:
        self._count("repro_integrity_retransmits_total")
        self.tracer.event(self._pipeline_spans.get((wire_id, data.pipeline_id)),
                          "integrity.retransmit",
                          src=data.source, lo=data.start, hi=data.stop)

    def verification(self, asm, result: str, report=None) -> None:
        """A post-repair stripe audit ended in ``result``; a watchdog
        repair passes its ``report`` and the verdict is traced too."""
        self._count("repro_integrity_verifications_total", result=result)
        if report is not None:
            self.tracer.event(asm.attempt_span or asm.span, "integrity.verify",
                              result=result, culprits=list(report.culprits),
                              checked=report.checked)

    def healed(self, asm) -> None:
        self._count("repro_integrity_healed_total")
        self.tracer.event(asm.attempt_span or asm.span, "integrity.healed",
                          stripe=asm.stripe_id, chunk=asm.lost_chunk)

    def torn_write(self, asm) -> None:
        self.detection("torn-write")
        self.tracer.event(asm.span, "integrity.torn_write", node=asm.requester)

    def scrub_start(self, bandwidth_fraction: float):
        """A scrub pass starts; returns its span handle."""
        return self.tracer.start_span("integrity.scrub", kind="integrity",
                                      bandwidth_fraction=bandwidth_fraction)

    def scrub_chunk(self, span, stripe_id, chunk, node, ok: bool, nbytes: int) -> None:
        """The scrubber read one chunk; ``ok`` is its digest verdict."""
        self._count("repro_integrity_scrub_chunks_total", result="ok" if ok else "corrupt")
        self._count("repro_integrity_scrub_bytes_total", nbytes)
        if not ok:
            self.tracer.event(span, "integrity.scrub_found",
                              stripe=stripe_id, chunk=chunk, node=node)

    def scrub_end(self, span, report) -> None:
        if span:
            self.tracer.end_span(span, chunks=report.chunks_scanned,
                                 corrupt=len(report.corrupt), bytes=report.bytes_scanned)

    # ---- planning (the master) ---------------------------------------- #

    def plan_cache(self, result: str, algorithm: str, requester: int) -> None:
        """One plan-cache lookup, a ``hit`` or a ``miss``."""
        self._count("repro_plan_cache_lookups_total", result=result)
        self.tracer.event(None, f"plan_cache.{result}",
                          algorithm=algorithm, requester=requester)

    def ladder(self, rung: str, requester: int, helpers: int) -> None:
        """A degradation-ladder rung is taken."""
        self._count("repro_ladder_total", rung=rung)
        self.tracer.event(None, f"ladder.{rung}", requester=requester, helpers=helpers)

    def plan_scheduled(self, plan, algorithm: str) -> None:
        self.fleet.observe("repro_plan_t_max_mbps", float(plan.total_rate),
                           algorithm=algorithm)

    def tasks_compiled(self, stripe_id, repair_id, tasks: int, nbytes: int) -> None:
        self.tracer.event(None, "tasks.compiled", stripe=stripe_id,
                          repair_id=repair_id, tasks=tasks, bytes=nbytes)

    # ---- background recovery (the orchestrator) ----------------------- #

    def recovery_run(self, config):
        """The control loop starts; returns its span handle."""
        return self.tracer.start_span("recovery.run", kind="recovery",
                                      budget_fraction=config.budget_fraction,
                                      max_concurrent=config.max_concurrent)

    def recovery_enqueue(self, run, why: str, stripe_id: str, exposure: int) -> None:
        """One stripe enters the repair queue outside the failure
        intake: ``scrub_enqueue`` or ``reexposed``."""
        self._count("repro_recovery_enqueued_total")
        self.tracer.event(run, f"recovery.{why}", stripe=stripe_id, exposure=exposure)

    def recovery_failure(self, run, node: int, added: int, depth: int) -> None:
        """A crash fed the intake ``added`` stripes."""
        if added:
            self._count("repro_recovery_enqueued_total", added)
        self.tracer.event(run, "recovery.failure",
                          node=node, enqueued=added, queue_depth=depth)

    def recovery_tick(self, orch, now: float) -> None:
        """Publish the control loop's gauges."""
        if self._gauges is None:
            # resolve the label-less gauge handles once: the registry
            # lookup (family + label-key normalisation) ran five times
            # per control tick before, a measurable share of _tick
            self._gauges = [self.metrics.gauge(n, HELP[n]) for n in _RECOVERY_GAUGES]
        depth, oldest, inflight, budget, committed = self._gauges
        depth.set(len(orch.queue))
        oldest.set(orch.queue.oldest_age(now))
        inflight.set(orch.inflight)
        budget.set(orch.effective_budget())
        committed.set(orch.committed_fraction)

    def recovery_drained(self, run, repaired: int, dead_letters: int) -> None:
        self.tracer.event(run, "recovery.drained",
                          repaired=repaired, dead_letters=dead_letters)

    def recovery_throttle(self, run, direction, throttle, budget) -> None:
        self.tracer.event(run, "recovery.throttle", direction=direction,
                          throttle=throttle, effective_budget=budget)
        self._count("repro_recovery_throttle_total", direction=direction)

    def recovery_admit(self, run, stripe_id, priority_class, share, committed) -> None:
        self._count("repro_recovery_admitted_total", priority_class=str(priority_class))
        self.tracer.event(run, "recovery.admit", stripe=stripe_id,
                          priority_class=priority_class, share=share, committed=committed)

    def _recovery_finished(self, record, status: str, now: float) -> None:
        if record is not None:
            held = now - record.admitted_at
            self._count("repro_recovery_completed_total", status=status)
            name = "repro_recovery_repair_seconds"
            self.metrics.histogram(name, HELP[name],
                                   priority_class=str(record.priority_class)).observe(held)
            self._count("repro_recovery_share_seconds_total", record.share * held)

    def recovery_requeue(self, run, ticket, record, reason, now: float) -> None:
        """A failed stripe repair goes back to the queue."""
        self._recovery_finished(record, FAILED, now)
        self._count("repro_recovery_requeued_total")
        self.tracer.event(run, "recovery.requeue", stripe=ticket.stripe_id,
                          reason=reason, attempts=ticket.attempts)

    def recovery_complete(self, run, ticket, record, status, verified, now) -> None:
        """A stripe repair is done with: settled or dead-lettered."""
        self._recovery_finished(record, status, now)
        self.tracer.event(
            run, "recovery.complete", stripe=ticket.stripe_id,
            status=status or COMPLETED, verified=verified,
            waited=record.admitted_at - ticket.enqueued_at if record else 0.0,
        )

    # ---- foreground reads --------------------------------------------- #

    def foreground_read(self, read) -> None:
        kind = "degraded" if read.degraded else "healthy"
        self._count("repro_foreground_reads_total", kind=kind, ok=str(read.ok).lower())
        if not read.ok:
            return
        self._count("repro_foreground_bytes_total", read.nbytes)
        name = "repro_foreground_latency_seconds"
        self.metrics.histogram(name, HELP[name], kind=kind).observe(read.latency_s)
        self.fleet.observe(name, read.latency_s, kind=kind)


class NullObserver(Observer):
    """The observer with no live sink: every fixed point does nothing."""

    def _nothing(self, *args, **kwargs) -> None:
        return None


for _name, _point in list(vars(Observer).items()):
    if callable(_point) and not _name.startswith("_"):
        setattr(NullObserver, _name, NullObserver._nothing)
del _name, _point

#: The observer of a system with no live sink.
NULL_OBSERVER = NullObserver()


def build_observer(
    *, tracer=None, metrics=None, fleet=None, slo=None, events=None, nodes=()
) -> Observer:
    """The one observer over whichever sinks are given.

    ``events`` is the event queue whose simulated time the tracer's and
    the fleet's clocks read (unless a clock is already bound); ``nodes``
    are the cluster's data nodes, for the busy-fraction gauges.  With
    no live sink — every sink absent or NULL and no SLO engine — the
    result is :data:`NULL_OBSERVER`.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    metrics = metrics if metrics is not None else NULL_METRICS
    fleet = fleet if fleet is not None else NULL_FLEET
    if not (tracer.enabled or metrics.enabled or fleet.enabled or slo is not None):
        return NULL_OBSERVER
    if events is not None:
        if tracer.enabled and tracer.clock is None:
            # spans are keyed to *simulated* time, not wall-clock
            tracer.clock = lambda: events.now
        if fleet.enabled and fleet.clock is None:
            fleet.clock = lambda: events.now
    return Observer(tracer, metrics, fleet, slo, events, nodes)
