"""Which public callables are wrapped, and how spans become layer metrics.

Layers are this repository's module names.  ``targets()`` lists the
public entry points of each; ``per_layer_metrics()`` turns one traced
run — the span ledger, the workloads' public counters, an
``EngineProfiler`` pass and a few host readings — into the metrics
``BENCHMARK.json`` declares under ``per_layer``.  A metric a workload
does not exercise reads 0.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

from repro.cluster.chunkstore import ChunkStore
from repro.cluster.datanode import DataNode
from repro.cluster.master import Master
from repro.cluster.system import ClusterSystem
from repro.core.scheduling import schedule_tasks
from repro.core.throughput import max_pipelined_throughput
from repro.ec import RSCode
from repro.ec.backend import get_backend
from repro.integrity.digest import chunk_digest, slice_checksum
from repro.integrity.verify import audit_stripe
from repro.lifetime import StripeTable, StripeTableSystem
from repro.obs import FleetAggregator, SLOEngine, Tracer as ObsTracer
from repro.recovery import RepairQueue
from repro.repair.base import RepairAlgorithm
from repro.repair.plan import RepairPlan
from repro.sim.events import EventQueue

from .tracing import ROOT, Ledger, Target, Tracer, build_ledger, op_ids


def _nbytes(payload) -> int:
    return payload.nbytes if isinstance(payload, np.ndarray) else len(payload)


def targets() -> list[Target]:
    """Every wrapped entry point, layer by layer."""
    backend = type(get_backend())
    return [
        # core: Algorithm 1 + 2 behind RepairAlgorithm.plan
        Target("core.plan", "core", RepairAlgorithm, "plan",
               value=lambda a, k, plan: len(plan.pipelines)),
        Target("core.throughput", "core", max_pipelined_throughput),
        Target("core.scheduling", "core", schedule_tasks),
        Target("core.validate", "core", RepairPlan, "validate"),
        # cluster.master
        Target("master.schedule_repair", "cluster.master", Master, "schedule_repair"),
        Target("master.compile_tasks", "cluster.master", Master, "compile_tasks",
               value=lambda a, k, tasks: len(tasks)),
        # ec
        Target("ec.mul_chunk", "ec", backend, "mul_chunk",
               value=lambda a, k, r: _nbytes(r)),
        Target("ec.encode", "ec", RSCode, "encode"),
        Target("ec.decode", "ec", RSCode, "decode"),
        Target("ec.matmul", "ec", backend, "matmul_chunks", span=False,
               value=lambda a, k, r: _nbytes(r)),
        # integrity: chunk_digest is slice_checksum's own helper, so its
        # binding inside the digest module stays unwrapped — the two
        # names then split wire checksums from at-rest digests
        Target("integrity.slice_checksum", "integrity", slice_checksum,
               value=lambda a, k, r: _nbytes(a[0]), per_site=True),
        Target("integrity.chunk_digest", "integrity", chunk_digest,
               skip_modules=("repro.integrity.digest",)),
        Target("integrity.audit", "integrity", audit_stripe),
        Target("integrity.retransmits", "integrity", DataNode, "retransmit",
               span=False),
        # cluster.chunkstore / cluster.datanode
        Target("chunkstore.get_range", "cluster.chunkstore", ChunkStore, "get_range"),
        Target("datanode.assign", "cluster.datanode", DataNode, "assign"),
        Target("datanode.receive", "cluster.datanode", DataNode, "receive"),
        # sim.events
        Target("sim.events.run", "sim.events", EventQueue, "run"),
        # cluster.system
        Target("system.repair", "cluster.system", ClusterSystem, "repair"),
        Target("system.repair_async", "cluster.system", ClusterSystem, "repair_async"),
        Target("system.repair_multi_async", "cluster.system", ClusterSystem,
               "repair_multi_async"),
        Target("system.write_stripe", "cluster.system", ClusterSystem, "write_stripe"),
        # recovery / lifetime: what the control loop calls into (its own
        # tick is a private queue callback; EngineProfiler prices that)
        Target("recovery.queue", "recovery", RepairQueue, "push"),
        Target("recovery.queue", "recovery", RepairQueue, "pop"),
        Target("recovery.queue", "recovery", RepairQueue, "reprioritise"),
        Target("lifetime.dispatch", "lifetime", StripeTableSystem, "repair_async"),
        Target("lifetime.dispatch", "lifetime", StripeTableSystem, "repair_multi_async"),
        Target("lifetime.stripes", "lifetime", StripeTable, "destroy_disk"),
        Target("lifetime.stripes", "lifetime", StripeTable, "touch_disk"),
        Target("lifetime.stripes", "lifetime", StripeTable, "rebuild"),
        Target("lifetime.stripes", "lifetime", StripeTable, "promote"),
        Target("lifetime.stripes", "lifetime", StripeTable, "demote"),
        # obs (the Null* sinks override these, so NULL obs records nothing)
        Target("obs.tracer", "obs", ObsTracer, "start_span"),
        Target("obs.tracer", "obs", ObsTracer, "end_span"),
        Target("obs.tracer", "obs", ObsTracer, "record_span"),
        Target("obs.tracer", "obs", ObsTracer, "event"),
        Target("obs.slo.evaluate", "obs", SLOEngine, "evaluate"),
        Target("obs.fleet.observe", "obs", FleetAggregator, "observe"),
    ]


def bare_queue_us_per_event(events: int) -> float:
    """Host µs per event of a bare ``EventQueue`` running no-op actions."""
    events = max(1000, min(int(events), 200_000))
    queue = EventQueue()

    def noop() -> None:
        pass

    for i in range(events):
        queue.schedule(i * 1e-6, noop)
    t0 = perf_counter_ns()
    queue.run()
    return (perf_counter_ns() - t0) / 1e3 / events


def op_ledger(tracer: Tracer) -> tuple[Ledger, Ledger]:
    """``(spans inside timed ops, all spans)`` as ledgers."""
    sids, parents, _starts, _ends = tracer.columns()
    inside = op_ids(sids, parents, tracer.sid(ROOT, "root")) >= 0
    return build_ledger(tracer, inside), build_ledger(tracer)


def per_layer_metrics(
    tracer: Tracer,
    ops: Ledger,
    everything: Ledger,
    rounds: int,
    counters: dict,
    model: dict,
    host: dict,
    profiler,
    extras: dict,
) -> dict[str, float]:
    """The declared per-layer metrics of one traced run.

    Span-derived numbers are per traced round (totals over ``rounds``
    traced rounds, divided), over spans inside timed ops only — except
    ``system.write_stripe.self_ms``, which also counts set-up, where
    the stripe writes of three workloads happen.
    """
    per = 1.0 / max(rounds, 1)

    def calls(name):
        return ops.count(name) * per

    def self_ms(name):
        return ops.self_ms(name) * per

    def value(name):
        return tracer.values.get(name, 0) * per

    out: dict[str, float] = {}

    plans = ops.count("core.plan")
    out["core.plan.calls"] = calls("core.plan")
    out["core.plan.self_ms"] = self_ms("core.plan")
    out["core.throughput.self_ms"] = self_ms("core.throughput")
    out["core.scheduling.self_ms"] = self_ms("core.scheduling")
    out["core.validate.self_ms"] = self_ms("core.validate")
    out["core.plan_us_p99"] = _duration_percentile(tracer, "core.plan", 99) / 1e3
    out["core.pipelines_per_plan"] = (
        tracer.values.get("core.plan", 0) / plans if plans else 0.0
    )
    out["core.plancache.lookups"] = counters.get("core.plancache.lookups", 0)
    out["core.plancache.hit_rate"] = counters.get("core.plancache.hit_rate", 0.0)

    out["master.schedule_repair.calls"] = calls("master.schedule_repair")
    out["master.schedule_repair.self_ms"] = self_ms("master.schedule_repair")
    out["master.compile_tasks.self_ms"] = self_ms("master.compile_tasks")
    out["master.tasks_compiled"] = value("master.compile_tasks")

    mul_calls = ops.count("ec.mul_chunk")
    out["ec.mul_chunk.calls"] = calls("ec.mul_chunk")
    out["ec.mul_chunk.bytes"] = value("ec.mul_chunk")
    out["ec.mul_chunk.self_ms"] = self_ms("ec.mul_chunk")
    out["ec.mul_chunk.us_per_call"] = (
        ops.self_ms("ec.mul_chunk") * 1e3 / mul_calls if mul_calls else 0.0
    )
    out["ec.encode.self_ms"] = self_ms("ec.encode")
    out["ec.decode.self_ms"] = self_ms("ec.decode")
    out["ec.matmul.bytes"] = value("ec.matmul")

    checksum_sites = [n for n in ops.names if n.startswith("integrity.slice_checksum@")]
    out["integrity.slice_checksum.calls"] = sum(calls(n) for n in checksum_sites)
    out["integrity.slice_checksum.bytes"] = sum(value(n) for n in checksum_sites)
    out["integrity.slice_checksum.self_ms"] = sum(self_ms(n) for n in checksum_sites)
    out["integrity.chunk_digest.self_ms"] = self_ms("integrity.chunk_digest")
    out["integrity.audit.self_ms"] = self_ms("integrity.audit")
    out["integrity.retransmits"] = tracer.counts.get("integrity.retransmits", 0) * per
    out["integrity.corruption_detected"] = counters.get(
        "integrity.corruption_detected", 0
    )

    out["chunkstore.get_range.calls"] = calls("chunkstore.get_range")
    out["chunkstore.get_range.self_ms"] = self_ms("chunkstore.get_range")

    out["datanode.assign.self_ms"] = self_ms("datanode.assign")
    out["datanode.receive.calls"] = calls("datanode.receive")
    out["datanode.receive.self_ms"] = self_ms("datanode.receive")
    # a node checksums every slice it sends and every slice it receives
    # from inside the datanode module: sends = checksums - receives
    out["datanode.slices_sent"] = max(
        0.0,
        calls("integrity.slice_checksum@repro.cluster.datanode")
        - calls("datanode.receive"),
    )
    out["datanode.bytes_sent"] = counters.get("datanode.bytes_sent", 0)

    executed = counters.get("sim.events.executed", 0)
    run_self_ms = self_ms("sim.events.run")
    bare_us = extras.get("sim.events.bare_us_per_event", 0.0)
    out["sim.events.executed"] = executed
    out["sim.events.peak_pending"] = counters.get("sim.events.peak_pending", 0)
    out["sim.events.us_per_event"] = (
        ops.total_ms("sim.events.run") * per * 1e3 / executed if executed else 0.0
    )
    out["sim.events.run_self_ms"] = run_self_ms
    out["sim.events.bare_us_per_event"] = bare_us if executed else 0.0
    out["sim.events.slice_event_share"] = _site_share(profiler, "repro.cluster.datanode")

    out["system.repair.calls"] = (
        calls("system.repair") + calls("system.repair_async")
        + calls("system.repair_multi_async")
    )
    out["system.write_stripe.self_ms"] = everything.self_ms("system.write_stripe") * per
    out["system.callback_residual_ms"] = (
        run_self_ms - executed * bare_us / 1e3 if executed else 0.0
    )

    for name in ("sim.transfer.execute_us_p50", "sim.transfer.pipeline_skew_p50",
                 "sim.transfer.model_gap"):
        out[name] = model.get(name, 0.0)

    for name in ("ticks", "repaired", "requeues", "dead_letters", "peak_queue_depth",
                 "foreground.reads", "foreground.degraded_reads", "throttle_shrinks"):
        out[f"recovery.{name}"] = counters.get(f"recovery.{name}", 0)
    out["recovery.tick_us_mean"] = _tick_us_mean(profiler)

    out["obs.tracer.spans"] = counters.get("obs.tracer.spans", 0)
    out["obs.start_span.self_ms"] = self_ms("obs.tracer")
    out["obs.slo.evaluate.self_ms"] = self_ms("obs.slo.evaluate")
    out["obs.fleet.observe.calls"] = calls("obs.fleet.observe")
    out["obs.enabled_overhead_ratio"] = extras.get("obs.enabled_overhead_ratio", 0.0)

    for name in ("armed", "fired_in_repair_share", "retries", "replans",
                 "escalations", "bytes_retransferred"):
        out[f"faults.{name}"] = counters.get(f"faults.{name}", 0)

    lifetime_events = counters.get("lifetime.events_executed", 0)
    for name in ("events_executed", "loss_events", "stripes_lost",
                 "repairs_dispatched", "ticks"):
        out[f"lifetime.{name}"] = counters.get(f"lifetime.{name}", 0)
    op_wall_s = extras["untraced_wall_s"]
    out["lifetime.us_per_event"] = (
        op_wall_s * 1e6 / lifetime_events if lifetime_events else 0.0
    )
    out["lifetime.stripe_years_per_s"] = (
        counters.get("lifetime.stripe_years", 0.0) / op_wall_s if lifetime_events else 0.0
    )

    for name in ("cpu_s", "gc_collections", "gc_pause_ms", "minor_faults",
                 "calibration_ms"):
        out[f"host.{name}"] = host[name]

    root_total = ops.total_ms(ROOT)
    out["trace.overhead_ratio"] = extras["trace.overhead_ratio"]
    out["trace.spans_recorded"] = len(tracer.starts)
    out["ledger.unattributed_share"] = (
        ops.self_ms(ROOT) / root_total if root_total else 0.0
    )

    for name in ("sim_s", "t_max_fraction", "traffic_amplification",
                 "speedup_vs_pivot"):
        out[name] = model.get(name, 0.0)
    out["failed_share"] = extras["failed_share"]
    return out


def ledger_rows(ops: Ledger, rounds: int) -> list[tuple[str, float]]:
    """``(layer, self ms per traced round)`` of the layers that ran, largest first.

    The ``op`` root's own self time is the ``unattributed`` row; the rows
    sum to the traced op wall exactly.
    """
    per = 1.0 / max(rounds, 1)
    rows = [
        ("unattributed" if layer == "root" else layer, ms * per)
        for layer, ms in ops.by_layer().items()
        if ms > 0
    ]
    return sorted(rows, key=lambda row: -row[1])


def _duration_percentile(tracer: Tracer, name: str, q: float) -> float:
    if name not in tracer.names:
        return 0.0
    sids, _parents, starts, ends = tracer.columns()
    durations = (ends - starts)[sids == tracer.names.index(name)]
    return float(np.percentile(durations, q)) if len(durations) else 0.0


def _site_share(profiler, module: str) -> float:
    if profiler is None or not profiler.events:
        return 0.0
    inside = sum(s.events for (mod, _q), s in profiler.sites.items() if mod == module)
    return inside / profiler.events


def _tick_us_mean(profiler) -> float:
    if profiler is None:
        return 0.0
    ticks = [s for (_m, q), s in profiler.sites.items() if q.endswith("Orchestrator._tick")]
    events = sum(s.events for s in ticks)
    return sum(s.self_ns for s in ticks) / events / 1e3 if events else 0.0
