"""A canned, fully traced repair with an injected hub crash.

This is the worked example behind ``repro trace repair``,
``examples/trace_repair.py`` and the exporter round-trip tests: a
(14, 10) stripe is rebuilt through the FullRepair planner while the
busiest hub of the plan is crashed mid-transfer, so the resulting trace
shows the whole self-healing arc — watchdog fire, attempt abort, replan
down the degradation ladder — as spans and events keyed to simulated
time.

:func:`fleet_sweep` is the fleet-scale companion: many consecutive
small repairs under shifting bandwidth with periodic stragglers, fed
into a :class:`~repro.obs.fleet.FleetAggregator` and evaluated against
SLO rules — the worked example behind ``repro fleet`` / ``repro slo``.

Unlike the rest of :mod:`repro.obs` this module imports the cluster
prototype, so it is *not* re-exported from ``repro.obs`` — import it
directly::

    from repro.obs.demo import traced_hub_crash_repair
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster import ClusterSystem
from ..core.plancache import PlanCache
from ..ec import RSCode
from ..workloads import make_trace
from .fleet import FleetAggregator
from .metrics import MetricsRegistry
from .slo import SLOEngine, parse_rules
from .trace import Tracer


@dataclass
class TracedRepairDemo:
    """Everything the demo produced, ready for the exporters."""

    outcome: object
    tracer: Tracer
    metrics: MetricsRegistry
    system: ClusterSystem
    hub: int
    crash_at_s: float
    clean_elapsed_s: float


def _build_system(
    *,
    n: int,
    k: int,
    num_nodes: int,
    chunk_bytes: int,
    failed_node: int,
    snapshot,
    seed: int,
    tracer=None,
    metrics=None,
) -> ClusterSystem:
    system = ClusterSystem(
        num_nodes,
        RSCode(n, k),
        slice_bytes=4096,
        tracer=tracer,
        metrics=metrics,
    )
    # a plan cache so the trace also shows plan_cache.{hit,miss} activity
    system.master.plan_cache = PlanCache(max_entries=32)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (k, chunk_bytes), dtype=np.uint8)
    system.write_stripe("s1", data, placement=tuple(range(n)))
    system.set_bandwidth(snapshot)
    system.fail_node(failed_node)
    return system


def _find_hub(plan, requester: int) -> int:
    """A helper that both feeds the requester and aggregates children."""
    for p in plan.pipelines:
        parents = {e.parent for e in p.edges}
        for e in p.edges:
            if e.parent == requester and e.child in parents:
                return e.child
    # star-shaped plan: crash any direct helper instead
    return plan.pipelines[0].edges[0].child


def traced_hub_crash_repair(
    *,
    n: int = 14,
    k: int = 10,
    num_nodes: int = 16,
    chunk_bytes: int = 64 * 1024,
    failed_node: int = 3,
    seed: int = 7,
) -> TracedRepairDemo:
    """Run the demo: a traced (n, k) repair whose hub crashes mid-flight.

    A clean un-traced run first measures the baseline elapsed time and
    identifies a hub of the plan; a fresh system then repeats the repair
    with a live :class:`Tracer`/:class:`MetricsRegistry` and the hub
    crashed halfway through.  Deterministic —
    everything runs on the simulated event queue.
    """
    requester = num_nodes - 1
    snapshot = make_trace(
        "tpcds", num_nodes=num_nodes, num_snapshots=60, seed=4
    ).snapshot(30)

    clean_sys = _build_system(
        n=n, k=k, num_nodes=num_nodes, chunk_bytes=chunk_bytes,
        failed_node=failed_node, snapshot=snapshot, seed=seed,
    )
    clean = clean_sys.repair(
        "s1", failed_node, requester=requester, store=False
    )
    hub = _find_hub(clean.plan, requester)
    crash_at = 0.5 * clean.elapsed_seconds

    tracer = Tracer()
    metrics = MetricsRegistry()
    system = _build_system(
        n=n, k=k, num_nodes=num_nodes, chunk_bytes=chunk_bytes,
        failed_node=failed_node, snapshot=snapshot, seed=seed,
        tracer=tracer, metrics=metrics,
    )
    system.events.schedule(crash_at, lambda: system.fail_node(hub))
    outcome = system.repair(
        "s1",
        failed_node,
        requester=requester,
        store=False,
        on_failure="outcome",
    )
    return TracedRepairDemo(
        outcome=outcome,
        tracer=tracer,
        metrics=metrics,
        system=system,
        hub=hub,
        crash_at_s=crash_at,
        clean_elapsed_s=clean.elapsed_seconds,
    )


@dataclass
class DetectDemo:
    """Everything the detector demo produced, ready for ``render_detect``."""

    outcome: object
    tracer: Tracer
    metrics: MetricsRegistry
    monitor: object  # DivergenceMonitor
    system: ClusterSystem
    helper: int
    fault_at_s: float
    clean_elapsed_s: float


def detected_straggler_repair(
    *,
    n: int = 14,
    k: int = 10,
    num_nodes: int = 16,
    chunk_bytes: int = 64 * 1024,
    failed_node: int = 3,
    seed: int = 7,
    cap_mbps: float = 1.0,
) -> DetectDemo:
    """Run the divergence-detection demo: a straggling helper caught live.

    The worked example behind ``repro detect`` and
    ``examples/detect_divergence.py``: a clean probe sizes the repair
    and picks a helper feeding the requester directly, then a fresh
    system re-runs it with a :class:`~repro.obs.detect.DivergenceMonitor`
    wired into the watchdog and the helper's uplink rate-capped to
    ``cap_mbps`` mid-transfer.  The blunt timeout never fires (the
    repair still trickles forward) — the throughput-ratio detector is
    what aborts the attempt and triggers the re-plan.  Deterministic —
    simulated time only.
    """
    from .detect import DivergenceMonitor

    requester = num_nodes - 1
    snapshot = make_trace(
        "tpcds", num_nodes=num_nodes, num_snapshots=60, seed=4
    ).snapshot(30)

    clean_sys = _build_system(
        n=n, k=k, num_nodes=num_nodes, chunk_bytes=chunk_bytes,
        failed_node=failed_node, snapshot=snapshot, seed=seed,
    )
    clean = clean_sys.repair(
        "s1", failed_node, requester=requester, store=False
    )
    helper = next(
        e.child
        for p in clean.plan.pipelines
        for e in p.edges
        if e.parent == requester
    )
    fault_at = 0.5 * clean.elapsed_seconds

    tracer = Tracer()
    metrics = MetricsRegistry()
    monitor = DivergenceMonitor.standard(tracer=tracer, metrics=metrics)
    system = _build_system(
        n=n, k=k, num_nodes=num_nodes, chunk_bytes=chunk_bytes,
        failed_node=failed_node, snapshot=snapshot, seed=seed,
        tracer=tracer, metrics=metrics,
    )
    system.divergence = monitor
    monitor.clock = lambda: system.events.now
    # heartbeats keep the master's bandwidth picture live so the re-plan
    # after the abort can actually route around the straggler
    system.enable_heartbeats(period_s=0.005)
    system.events.schedule(
        fault_at, lambda: system.set_rate_cap(helper, cap_mbps)
    )
    outcome = system.repair(
        "s1", failed_node, requester=requester, store=False,
        on_failure="outcome",
    )
    return DetectDemo(
        outcome=outcome,
        tracer=tracer,
        metrics=metrics,
        monitor=monitor,
        system=system,
        helper=helper,
        fault_at_s=fault_at,
        clean_elapsed_s=clean.elapsed_seconds,
    )


#: Default SLO rules for the fleet sweep: latency, optimality, failures.
#: Thresholds are sized to the sweep's tiny chunks (overheads dominate,
#: so clean throughput_ratio sits near 0.13): clean windows hold, the
#: throttled repairs breach, and the rules recover as windows roll.
DEFAULT_SLO_RULES = (
    "p99 repro_repair_seconds < 0.01",
    "min repro_throughput_ratio >= 0.05",
    "burn_rate(0.2) repro_repair_failed <= 1.0",
)


@dataclass
class FleetSweepDemo:
    """Everything the sweep produced, ready for the fleet/SLO renderers."""

    fleet: FleetAggregator
    slo: SLOEngine
    tracer: Tracer
    metrics: MetricsRegistry
    system: ClusterSystem
    outcomes: list = field(default_factory=list)
    straggled: list[int] = field(default_factory=list)  # straggled repair idx


def fleet_sweep(
    *,
    repairs: int = 50,
    n: int = 9,
    k: int = 6,
    num_nodes: int = 12,
    chunk_bytes: int = 16 * 1024,
    seed: int = 5,
    window_s: float = 0.01,
    rules=DEFAULT_SLO_RULES,
) -> FleetSweepDemo:
    """Run many small repairs through the fleet/SLO tier.

    One (n, k) stripe loses a chunk; the requester re-repairs it
    ``repairs`` times under a drifting bandwidth trace, with every
    tenth repair throttled by a helper rate-capped to 2 Mbps so the
    latency tail actually moves.  Each repair feeds the rolling
    windows; the SLO engine evaluates at end-of-repair, so breaches
    appear while the straggled repairs dominate a window and recoveries
    once they age out.  Deterministic — simulated time only.
    """
    requester = num_nodes - 1
    failed_node = 2
    tracer = Tracer()
    metrics = MetricsRegistry()
    fleet = FleetAggregator(window_s=window_s, buckets=10)
    engine = SLOEngine(fleet, parse_rules(rules), tracer=tracer, metrics=metrics)
    system = ClusterSystem(
        num_nodes,
        RSCode(n, k),
        slice_bytes=4096,
        tracer=tracer,
        metrics=metrics,
        fleet=fleet,
        slo=engine,
    )
    system.master.plan_cache = PlanCache(max_entries=64)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (k, chunk_bytes), dtype=np.uint8)
    system.write_stripe("s1", data, placement=tuple(range(n)))
    trace = make_trace("tpcds", num_nodes=num_nodes, num_snapshots=60, seed=4)
    system.fail_node(failed_node)
    straggler = 4  # a helper on every plan (holds a chunk, never fails)

    demo = FleetSweepDemo(
        fleet=fleet, slo=engine, tracer=tracer, metrics=metrics, system=system
    )
    for i in range(repairs):
        system.set_bandwidth(trace.snapshot(i % 60))
        throttled = i % 10 == 9
        if throttled:
            system.set_rate_cap(straggler, 2.0)
            demo.straggled.append(i)
        outcome = system.repair(
            "s1", failed_node, requester=requester, store=False,
            on_failure="outcome",
        )
        if throttled:
            system.set_rate_cap(straggler, None)
        demo.outcomes.append(outcome)
    return demo
