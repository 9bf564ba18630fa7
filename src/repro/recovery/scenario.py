"""Canned background-recovery scenario and the report it produces.

One call builds the whole coexistence experiment the recovery
subsystem exists for: a cluster serving a seeded foreground read
stream loses a node (or several, staggered), the orchestrator drains
the resulting backlog inside its bandwidth budget, and the SLO engine
squeezes the repair throttle whenever foreground latency suffers.
Everything is deterministic for a fixed seed — the same scenario is
driven by the ``repro recover`` CLI subcommand, the example script,
and the end-to-end tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.system import ClusterSystem
from ..ec.rs import RSCode
from ..faults import FAILED
from ..net import units
from ..obs import (
    EngineProfiler,
    FleetAggregator,
    MetricsRegistry,
    RunMonitor,
    SLOEngine,
    Tracer,
)
from ..obs.slo import parse_rules
from ..workloads import make_trace
from .foreground import ForegroundTraffic
from .orchestrator import RecoveryConfig, RecoveryOrchestrator


@dataclass(frozen=True)
class RecoveryReport:
    """Summary of one orchestrated recovery run (see ``render_recovery``)."""

    budget_fraction: float
    throttle: float
    effective_budget: float
    queue_depth: int
    inflight: int
    repaired: int
    verified: int
    requeues: int
    skipped: int
    dead_letters: int
    drained_at: float | None
    peak_committed: float
    #: mean committed budget over control ticks with a standing backlog
    backlogged_committed: float
    throttle_shrinks: int
    throttle_restores: int
    #: (priority class, finished repairs, mean admission-to-finish seconds)
    by_class: tuple[tuple[int, int, float], ...]
    foreground: dict | None = None


def build_report(orchestrator, foreground=None) -> RecoveryReport:
    """Condense an orchestrator's run state into a report."""
    finished = [r for r in orchestrator.records if r.status != FAILED]
    by_class: dict[int, list[float]] = {}
    for r in finished:
        by_class.setdefault(r.priority_class, []).append(
            r.finished_at - r.admitted_at
        )
    backlogged = [
        committed
        for (_t, _eff, committed, _inflight, depth) in orchestrator.timeline
        if depth > 0
    ]
    return RecoveryReport(
        budget_fraction=orchestrator.config.budget_fraction,
        throttle=orchestrator.throttle,
        effective_budget=orchestrator.effective_budget(),
        queue_depth=len(orchestrator.queue),
        inflight=orchestrator.inflight,
        repaired=len(finished),
        verified=sum(1 for r in finished if r.verified),
        requeues=orchestrator.requeues,
        skipped=orchestrator.skipped,
        dead_letters=len(orchestrator.dead_letters),
        drained_at=orchestrator.drained_at,
        peak_committed=max(
            (c for (_t, _e, c, _i, _d) in orchestrator.timeline), default=0.0
        ),
        backlogged_committed=(
            sum(backlogged) / len(backlogged) if backlogged else 0.0
        ),
        throttle_shrinks=orchestrator.throttle_shrinks,
        throttle_restores=orchestrator.throttle_restores,
        by_class=tuple(
            (cls, len(times), sum(times) / len(times))
            for cls, times in sorted(by_class.items())
        ),
        foreground=foreground.summary() if foreground is not None else None,
    )


@dataclass
class RecoveryScenario:
    """Everything a caller might want to inspect after the run."""

    system: ClusterSystem
    orchestrator: RecoveryOrchestrator
    foreground: ForegroundTraffic
    tracer: Tracer
    metrics: MetricsRegistry
    fleet: FleetAggregator
    slo: SLOEngine | None
    report: RecoveryReport
    #: original (k, chunk_bytes) data arrays per stripe, for verification
    payloads: dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    #: engine self-observability hooks (None unless ``profile=True`` /
    #: ``heartbeat_s`` was passed to :func:`run_recovery_scenario`)
    profiler: EngineProfiler | None = None
    monitor: RunMonitor | None = None


def run_recovery_scenario(
    *,
    num_nodes: int = 12,
    n: int = 6,
    k: int = 4,
    num_stripes: int = 24,
    chunk_bytes: int = 16 * units.KIB,
    slice_bytes: int = 64 * units.KIB,
    workload: str = "tpcds",
    seed: int = 7,
    kills: tuple[tuple[int, float], ...] = ((0, 0.001),),
    budget_fraction: float = 0.5,
    max_concurrent: int = 4,
    tick_s: float = 0.005,
    throttle_floor: float = 0.1,
    foreground_reads: int = 200,
    foreground_period_s: float = 0.002,
    slo_latency_multiple: float | None = 1.5,
    until: float | None = None,
    profile: bool = False,
    track_alloc: bool = False,
    heartbeat_s: float | None = None,
    progress: bool = False,
) -> RecoveryScenario:
    """Kill node(s) under a foreground workload and recover on a budget.

    ``kills`` is a tuple of ``(node, delay_s)`` pairs; staggered delays
    exercise mid-recovery re-prioritisation.  ``slo_latency_multiple``
    places a p95 foreground-latency SLO at that multiple of the clean
    single-chunk transfer time (``None`` disables the throttle
    coupling).

    ``profile=True`` attaches an :class:`~repro.obs.EngineProfiler` to
    the event queue (``track_alloc`` adds tracemalloc allocation
    attribution); ``heartbeat_s`` attaches a
    :class:`~repro.obs.RunMonitor` emitting heartbeat snapshots at that
    wall-clock period (plus a stderr progress line with
    ``progress=True``).  Both ride back on the returned scenario.
    """
    tracer = Tracer()
    metrics = MetricsRegistry()
    fleet = FleetAggregator(window_s=0.1, buckets=8)
    # a full 6,000-instant trace to read instant 0: each latent series
    # draws all its instants before the next series starts, so a shorter
    # trace draws a different instant 0 and moves every pinned
    # ``recovery_campaign`` benchmark number
    snapshot = make_trace(workload, num_nodes=num_nodes, seed=seed).snapshot(0)
    system = ClusterSystem(
        num_nodes,
        RSCode(n, k),
        slice_bytes=slice_bytes,
        tracer=tracer,
        metrics=metrics,
        fleet=fleet,
    )
    system.set_bandwidth(snapshot)

    profiler = None
    if profile:
        profiler = EngineProfiler(track_alloc=track_alloc)
        profiler.install(system.events)
    monitor = None
    if heartbeat_s is not None or progress:
        monitor = RunMonitor(
            interval_s=heartbeat_s if heartbeat_s is not None else 1.0,
            progress=progress,
            profiler=profiler,
            until=until,
        )
        monitor.install(system.events)

    slo = None
    if slo_latency_multiple is not None:
        clean = units.transfer_seconds(
            chunk_bytes,
            float(np.median(np.minimum(snapshot.uplink, snapshot.downlink))),
        )
        slo = SLOEngine(
            fleet=fleet,
            rules=parse_rules(
                [
                    "p95 repro_foreground_latency_seconds < "
                    f"{clean * slo_latency_multiple:.9g}"
                ]
            ),
            tracer=tracer,
            metrics=metrics,
        )
        system.slo = slo

    rng = np.random.default_rng(seed)
    payloads: dict[str, np.ndarray] = {}
    for s in range(num_stripes):
        sid = f"stripe-{s:03d}"
        data = rng.integers(0, 256, size=(k, chunk_bytes), dtype=np.uint8)
        placement = tuple((s + j) % num_nodes for j in range(n))
        system.write_stripe(sid, data, placement=placement)
        payloads[sid] = data

    orchestrator = RecoveryOrchestrator(
        system,
        RecoveryConfig(
            budget_fraction=budget_fraction,
            max_concurrent=max_concurrent,
            tick_s=tick_s,
            throttle_floor=throttle_floor,
        ),
        slo=slo,
    )
    foreground = ForegroundTraffic(
        system,
        sorted(payloads),
        num_reads=foreground_reads,
        period_s=foreground_period_s,
        seed=seed + 1,
        orchestrator=orchestrator,
    )
    orchestrator.start()
    foreground.start()
    for node, delay in kills:
        system.events.schedule(delay, lambda v=node: system.fail_node(v))
    system.events.run(until=until)
    if slo is not None:
        # the throttle only evaluates rules while the orchestrator is
        # active; a final evaluation closes the book on reads that
        # landed after the queue drained (breach -> recover transitions
        # would otherwise go unobserved)
        slo.evaluate(system.events.now)

    if monitor is not None:
        monitor.uninstall()
    if profiler is not None:
        profiler.uninstall()

    return RecoveryScenario(
        system=system,
        orchestrator=orchestrator,
        foreground=foreground,
        tracer=tracer,
        metrics=metrics,
        fleet=fleet,
        slo=slo,
        report=build_report(orchestrator, foreground),
        payloads=payloads,
        profiler=profiler,
        monitor=monitor,
    )
