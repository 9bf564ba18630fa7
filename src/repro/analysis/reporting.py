"""Paper-style rendering of experiment results.

Text tables mirror the layout of Tables I-III and the data series behind
Figures 4-8, so `EXPERIMENTS.md` and the benchmark output read directly
against the paper.
"""

from __future__ import annotations

from ..net import units
from ..obs.fleet import MAX_SERIES
from ..workloads import bucket_label
from .experiments import ComparisonResult, UtilizationTable

#: Canonical display names.
ALGO_LABELS = {
    "conventional": "Conventional",
    "rp": "RP",
    "ppt": "PPT",
    "pivotrepair": "PivotRepair",
    "fullrepair": "FullRepair",
}


def _fmt_seconds(value: float) -> str:
    """Engineering formatting: us / ms / s chosen by magnitude."""
    if value < 1e-3:
        return f"{value * 1e6:8.2f} us"
    if value < 1.0:
        return f"{value * 1e3:8.2f} ms"
    return f"{value:8.3f} s "


def render_utilization_table(table: UtilizationTable) -> str:
    """Render Table I: bandwidth-resource distribution by C_v bucket."""
    lines = [
        "Table I - distribution of network bandwidth resources",
        f"{'bucket':>14} | {'algorithm':>12} | {'used%':>6} {'unsel%':>6} {'unused%':>7} | n",
        "-" * 62,
    ]
    for b in sorted(table.cells):
        for name, bkd in table.cells[b].items():
            lines.append(
                f"{bucket_label(b):>14} | {ALGO_LABELS.get(name, name):>12} | "
                f"{bkd.selected_used * 100:6.1f} {bkd.unselected * 100:6.1f} "
                f"{bkd.selected_unused * 100:7.1f} | {table.counts[b]}"
            )
    return "\n".join(lines)


def render_comparison(
    results: list[ComparisonResult], metric: str = "overall"
) -> str:
    """Render Figs. 4/5/6 data: mean times per (workload, n, k, algorithm)."""
    getter = {
        "overall": ComparisonResult.mean_overall,
        "calc": ComparisonResult.mean_calc,
        "transfer": ComparisonResult.mean_transfer,
    }[metric]
    algorithms = list(results[0].timings) if results else []
    header = f"{'workload':>8} {'(n,k)':>9} | " + " | ".join(
        f"{ALGO_LABELS.get(a, a):>12}" for a in algorithms
    )
    lines = [f"mean {metric} repair time", header, "-" * len(header)]
    for r in results:
        cells = " | ".join(f"{_fmt_seconds(getter(r, a)):>12}" for a in algorithms)
        lines.append(f"{r.workload:>8} {f'({r.n},{r.k})':>9} | {cells}")
    return "\n".join(lines)


def render_reductions(
    results: list[ComparisonResult],
    *,
    metric: str = "overall",
) -> str:
    """FullRepair's % reduction vs each baseline (the paper's headline)."""
    lines = [f"{ALGO_LABELS['fullrepair']} {metric} reduction vs baselines"]
    for base in ("rp", "ppt", "pivotrepair"):
        reductions = [
            (r.workload, r.n, r.k, r.reduction_vs("fullrepair", base, metric))
            for r in results
            if base in r.timings
        ]
        if not reductions:
            continue
        best = max(reductions, key=lambda x: x[3])
        mean = sum(x[3] for x in reductions) / len(reductions)
        lines.append(
            f"  vs {ALGO_LABELS.get(base, base):>12}: mean {mean * 100:5.1f}%, "
            f"max {best[3] * 100:5.1f}% ({best[0]}, ({best[1]},{best[2]}))"
        )
    return "\n".join(lines)


def summarize_outcomes(outcomes) -> dict:
    """Aggregate fault-tolerant repair outcomes into headline counters.

    ``outcomes`` is any iterable of objects with the
    :class:`~repro.cluster.system.RepairOutcome` fields (duck-typed so
    chaos harnesses can pass stripped-down records).  Returns a dict
    with per-status counts and totals for retries, replans, transferred
    and re-transferred bytes, and wall time.
    """
    summary = {
        "total": 0,
        "by_status": {},
        "verified": 0,
        "retries": 0,
        "replans": 0,
        "bytes_received": 0,
        "bytes_retransferred": 0,
        "elapsed_seconds": 0.0,
        "corruption_detected": 0,
        "quarantined_chunks": 0,
    }
    for o in outcomes:
        summary["total"] += 1
        status = getattr(o, "status", "completed")
        summary["by_status"][status] = summary["by_status"].get(status, 0) + 1
        summary["verified"] += int(bool(getattr(o, "verified", False)))
        summary["retries"] += getattr(o, "retries", 0)
        summary["replans"] += getattr(o, "replans", 0)
        summary["bytes_received"] += getattr(o, "bytes_received", 0)
        summary["bytes_retransferred"] += getattr(o, "bytes_retransferred", 0)
        summary["elapsed_seconds"] += getattr(o, "elapsed_seconds", 0.0)
        summary["corruption_detected"] += int(
            bool(getattr(o, "corruption_detected", False))
        )
        summary["quarantined_chunks"] += len(
            getattr(o, "quarantined_chunks", ()) or ()
        )
    return summary


def render_fault_report(outcomes, title: str = "repair under faults") -> str:
    """Render a table of fault-tolerant repair outcomes.

    One row per repair (status, attempts, retries, replans, bytes
    re-transferred, wall time, verdict) plus the aggregate footer from
    :func:`summarize_outcomes` — the under-faults companion to the
    paper-style tables above.
    """
    outcomes = list(outcomes)
    header = (
        f"{'#':>3} | {'status':>9} | {'att':>3} {'rtr':>3} {'rpl':>3} | "
        f"{'retx bytes':>10} | {'wall time':>11} | {'intg':>4} | verdict"
    )
    lines = [title, header, "-" * len(header)]
    for i, o in enumerate(outcomes):
        status = getattr(o, "status", "completed")
        verified = bool(getattr(o, "verified", False))
        verdict = "ok" if verified else (
            getattr(o, "failure_reason", None) or "not verified"
        )
        quarantined = getattr(o, "quarantined_chunks", ()) or ()
        if quarantined:
            intg = f"q{len(quarantined)}"
        elif getattr(o, "corruption_detected", False):
            intg = "det"
        else:
            intg = "-"
        lines.append(
            f"{i:>3} | {status:>9} | {getattr(o, 'attempts', 1):>3} "
            f"{getattr(o, 'retries', 0):>3} {getattr(o, 'replans', 0):>3} | "
            f"{getattr(o, 'bytes_retransferred', 0):>10} | "
            f"{_fmt_seconds(getattr(o, 'elapsed_seconds', 0.0)):>11} | "
            f"{intg:>4} | {verdict}"
        )
    s = summarize_outcomes(outcomes)
    by_status = ", ".join(
        f"{k}={v}" for k, v in sorted(s["by_status"].items())
    ) or "none"
    lines.append("-" * len(header))
    lines.append(
        f"{s['total']} repairs ({by_status}); {s['verified']} verified; "
        f"{s['retries']} retries, {s['replans']} replans, "
        f"{s['bytes_retransferred']} bytes re-transferred"
    )
    if s["corruption_detected"] or s["quarantined_chunks"]:
        lines.append(
            f"integrity: corruption detected in {s['corruption_detected']} "
            f"repair(s), {s['quarantined_chunks']} chunk(s) quarantined"
        )
    return "\n".join(lines)


def render_repair_timeline(tracer) -> str:
    """ASCII timeline of a traced repair (``repro trace repair``).

    One bar per repair/attempt/pipeline span (transfers are summarised,
    not drawn — a single chunk can produce thousands), positioned on a
    shared simulated-time axis, followed by the structured events
    (watchdog fires, replans, faults) in time order.  Pass a live
    :class:`repro.obs.Tracer` that recorded at least one repair.
    """
    width, max_pipelines = 56, 6  # bar columns; pipelines drawn per attempt
    spans, transfers = [], 0
    for s in tracer.spans():  # one walk: transfer spans are built on read
        if s.kind == "transfer":
            transfers += 1
        else:
            spans.append(s)
    if not spans:
        return "no spans recorded (was tracing enabled?)"
    t0 = min(s.start for s in spans)
    t1 = max((s.end if s.end is not None else s.start) for s in spans)
    extent = max(t1 - t0, 1e-12)

    def bar(s) -> str:
        end = s.end if s.end is not None else t1
        a = int((s.start - t0) / extent * width)
        b = max(a + 1, min(width, int(round((end - t0) / extent * width))))
        a = min(a, b - 1)
        return " " * a + "#" * (b - a) + " " * (width - b)

    lines = [
        f"repair timeline ({_fmt_seconds(extent).strip()} total, "
        f"{transfers} slice transfers not drawn)",
    ]

    def emit(s, depth: int) -> None:
        end = s.end if s.end is not None else t1
        label = f"{'  ' * depth}{s.name}"
        lines.append(
            f"{label[:26]:<26} |{bar(s)}| {_fmt_seconds(end - s.start).strip()}"
        )

    def walk(s, depth: int) -> None:
        emit(s, depth)
        children = s.children
        pipes = [c for c in children if c.kind == "pipeline"]
        for c in children:
            if c.kind not in ("pipeline", "transfer"):
                walk(c, depth + 1)
        for c in pipes[:max_pipelines]:
            emit(c, depth + 1)
        if len(pipes) > max_pipelines:
            lines.append(
                f"{'  ' * (depth + 1)}(+{len(pipes) - max_pipelines} "
                f"more pipelines)"
            )

    for root in spans:
        if root.parent_id is None:
            walk(root, 0)
    events = tracer.all_events()
    if events:
        lines.append("")
        lines.append("events:")
        for ev in events:
            attrs = " ".join(f"{k}={v}" for k, v in sorted(ev.attrs.items()))
            lines.append(
                f"  {_fmt_seconds(ev.time).strip():>10}  {ev.name}"
                + (f"  ({attrs})" if attrs else "")
            )
    return "\n".join(lines)


def render_attribution(attr) -> str:
    """Render a :class:`~repro.obs.attr.RepairAttribution` (``repro attr``).

    Headline gap decomposition first (the four buckets, in seconds and
    Mbps — both columns sum to the measured gap by construction), then
    the per-node/per-constraint rows, measured busy/idle table and the
    worst pipeline diagnoses.
    """
    lines = [
        f"bottleneck attribution: {attr.repair} "
        f"({attr.algorithm}, {attr.status}, {attr.attempts} attempt(s))",
        f"  t_ref {attr.t_ref_mbps:8.1f} Mbps   achieved {attr.achieved_mbps:8.1f} Mbps"
        f"   gap {attr.gap_mbps:8.1f} Mbps",
        f"  ideal {_fmt_seconds(attr.ideal_s).strip():>10}   "
        f"elapsed {_fmt_seconds(attr.elapsed_s).strip():>10}   "
        f"gap {_fmt_seconds(attr.gap_s).strip():>10}",
        "",
        f"{'bucket':>20} | {'seconds':>11} | {'Mbps':>8} | {'share':>6}",
        "-" * 56,
    ]
    shares = attr.bucket_shares_mbps()
    gap_s = attr.gap_s
    for name, secs in attr.buckets.as_dict().items():
        pct = 100.0 * secs / gap_s if gap_s > 0 else 0.0
        lines.append(
            f"{name:>20} | {_fmt_seconds(secs):>11} | "
            f"{shares[name]:8.2f} | {pct:5.1f}%"
        )
    lines.append("-" * 56)
    lines.append(
        f"{'total':>20} | {_fmt_seconds(gap_s):>11} | "
        f"{sum(shares.values()):8.2f} | 100.0%"
    )
    rows = attr.node_shares_s()
    if rows:
        lines += [
            "",
            f"{'bucket':>20} | {'blamed':>10} | {'constraint':>10} | {'seconds':>11}",
            "-" * 62,
        ]
        for bucket, who, constraint, secs in rows:
            lines.append(
                f"{bucket:>20} | {who:>10} | {constraint:>10} | "
                f"{_fmt_seconds(secs):>11}"
            )
    idle = sorted(attr.node_idle, key=lambda n: -n.idle_s)[:8]
    if idle:
        lines += [
            "",
            f"measured busy/idle over the final attempt "
            f"({_fmt_seconds(idle[0].window_s).strip()} window):",
            f"{'node':>6} {'constraint':>10} {'role':>9} | {'busy':>11} | "
            f"{'idle':>11} | busy%",
            "-" * 64,
        ]
        for ni in idle:
            lines.append(
                f"{ni.node:>6} {ni.constraint:>10} {ni.role:>9} | "
                f"{_fmt_seconds(ni.busy_s):>11} | {_fmt_seconds(ni.idle_s):>11} | "
                f"{ni.busy_fraction * 100:5.1f}%"
            )
    late = sorted(attr.pipelines, key=lambda p: -p.lateness_s)[:3]
    late = [p for p in late if p.lateness_s > 0]
    if late:
        lines += ["", "late pipelines (worst first):"]
        for p in late:
            lines.append(
                f"  pipeline {p.pipeline}: {p.bytes} B at {p.rate_mbps:.1f} Mbps, "
                f"expected {_fmt_seconds(p.expected_s).strip()}, "
                f"took {_fmt_seconds(p.actual_s).strip()} "
                f"(+{_fmt_seconds(p.lateness_s).strip()})"
            )
            for hop in p.critical_path:
                if hop.wait_s > 0 or hop.excess_s > 0:
                    lines.append(
                        f"    {hop.src}->{hop.dst} [{hop.lo}:{hop.hi}] "
                        f"wait {_fmt_seconds(hop.wait_s).strip()}, "
                        f"excess {_fmt_seconds(hop.excess_s).strip()}"
                    )
    return "\n".join(lines)


def render_fleet(fleet, now: float | None = None) -> str:
    """Render a fleet aggregator snapshot (``repro fleet``)."""
    snap = fleet.snapshot(now)
    if not snap:
        return "no fleet observations recorded"
    header = (
        f"{'metric':>26} | {'series':>6} {'count':>7} | "
        f"{'mean':>10} {'p50':>10} {'p99':>10} | {'win n':>6} {'win p99':>10}"
    )
    lines = [
        f"fleet aggregation ({fleet.window_s:g}s window, "
        f"{fleet.buckets} buckets, delta={fleet.delta}, "
        f"cap {MAX_SERIES} series/metric)",
        header,
        "-" * len(header),
    ]
    for metric, row in snap.items():
        lines.append(
            f"{metric:>26} | {row['series']:>6} {row['count']:>7.0f} | "
            f"{row['mean']:>10.4g} {row['p50']:>10.4g} {row['p99']:>10.4g} | "
            f"{row['window_count']:>6.0f} {row['window_p99']:>10.4g}"
        )
    if fleet.overflowed:
        lines.append(
            f"({fleet.overflowed} observations collapsed into overflow series)"
        )
    return "\n".join(lines)


def render_slo(engine, statuses=None, tracer=None) -> str:
    """Render SLO rule verdicts plus the breach/recover log (``repro slo``)."""
    lines = ["SLO rules:"]
    header = f"{'state':>8} | {'rule':>44} | {'value':>10}"
    lines += [header, "-" * len(header)]
    state = engine.status()
    values = {s.rule.name: s.value for s in statuses} if statuses else {}
    for rule in engine.rules:
        ok = state.get(rule.name)
        word = "ok" if ok else ("BREACH" if ok is not None else "no data")
        value = values.get(rule.name)
        shown = f"{value:.4g}" if value is not None else "-"
        lines.append(f"{word:>8} | {rule.text:>44} | {shown:>10}")
    lines.append(
        f"{engine.breaches} breach(es), {engine.recoveries} recover(ies)"
    )
    if tracer is not None:
        events = [
            e for e in tracer.all_events() if e.name.startswith("slo.")
        ]
        if events:
            lines += ["", "transitions:"]
            for e in events:
                lines.append(
                    f"  {_fmt_seconds(e.time).strip():>10}  {e.name}  "
                    f"{e.attrs.get('expr')}  (value {e.attrs.get('value'):.4g})"
                )
    return "\n".join(lines)


def render_detect(monitor, tracer=None) -> str:
    """Render a :class:`~repro.obs.detect.DivergenceMonitor`'s record
    (``repro detect``): watched signals, the alarm log, suppressions,
    and — with a tracer — the detector-informed control actions
    (``detect.abort`` events)."""
    header = (
        f"{'signal':>26} | {'detector':>12} | "
        f"{'keys':>5} {'samples':>8} {'alarms':>6}"
    )
    lines = [
        f"divergence detection: {len(monitor.watched())} signal(s) watched",
        header,
        "-" * len(header),
    ]
    for signal in monitor.watched():
        lines.append(
            f"{signal:>26} | {monitor.detector_name(signal):>12} | "
            f"{len(monitor.keys(signal)):>5} "
            f"{monitor.observations(signal):>8} "
            f"{monitor.alarm_count(signal):>6}"
        )
    if monitor.alarms:
        lines += ["", "alarms:"]
        for a in monitor.alarms:
            where = f"{a.signal}[{a.key}]" if a.key else a.signal
            lines.append(
                f"  {_fmt_seconds(a.t).strip():>10}  {where}  "
                f"{a.detector} {a.kind}: value {a.value:.4g}, "
                f"stat {a.stat:.3g} > {a.threshold:.3g} (n={a.n})"
            )
    else:
        lines += ["", "no alarms"]
    if monitor.suppressions:
        lines += ["", "suppressions:"]
        for s in monitor.suppressions:
            where = f"{s['signal']}[{s['key']}]" if s["key"] else s["signal"]
            lines.append(
                f"  {_fmt_seconds(s['t']).strip():>10}  {where}: "
                f"{s['reason']}"
            )
    if tracer is not None:
        aborts = [
            e for e in tracer.all_events() if e.name == "detect.abort"
        ]
        if aborts:
            lines += ["", "control actions:"]
            for e in aborts:
                lines.append(
                    f"  {_fmt_seconds(e.time).strip():>10}  detect.abort  "
                    f"attempt {e.attrs.get('attempt')}: "
                    f"ratio {e.attrs.get('ratio'):.3g} "
                    f"({e.attrs.get('detector')} stat "
                    f"{e.attrs.get('stat'):.3g}, armed timeout "
                    f"{e.attrs.get('timeout_s'):.3g}s)"
                )
    return "\n".join(lines)


def render_recovery(report, tracer=None) -> str:
    """Render a background-recovery run report (``repro recover``)."""
    lines = [
        "background recovery:",
        f"  repaired {report.repaired} stripe(s), "
        f"{report.verified} verified, "
        f"{report.dead_letters} dead-lettered, "
        f"{report.requeues} requeue(s), {report.skipped} skipped",
    ]
    if report.drained_at is not None:
        lines.append(
            f"  queue drained at {_fmt_seconds(report.drained_at).strip()}"
        )
    else:
        lines.append(
            f"  queue NOT drained: {report.queue_depth} waiting, "
            f"{report.inflight} in flight"
        )
    lines.append(
        f"  budget {report.budget_fraction:.0%} of cluster bandwidth "
        f"(throttle x{report.throttle:.2f} -> "
        f"effective {report.effective_budget:.0%}); "
        f"peak committed {report.peak_committed:.0%}, "
        f"backlogged mean {report.backlogged_committed:.0%}"
    )
    lines.append(
        f"  throttle moves: {report.throttle_shrinks} shrink(s), "
        f"{report.throttle_restores} restore(s)"
    )
    if report.by_class:
        header = f"{'priority class':>16} | {'repairs':>8} | {'mean time':>11}"
        lines += ["", header, "-" * len(header)]
        for cls, count, mean_s in report.by_class:
            label = f"{cls} chunk(s) lost"
            lines.append(
                f"{label:>16} | {count:>8} | {_fmt_seconds(mean_s):>11}"
            )
    fg = report.foreground
    if fg:
        lines += [
            "",
            "foreground coexistence:",
            f"  {fg['recorded']} read(s), {fg['ok']} ok, "
            f"{fg['degraded']} degraded, "
            f"{fg['bytes'] / units.KIB:.0f} KiB served",
            f"  latency mean {_fmt_seconds(fg['mean_latency_s']).strip()}, "
            f"p95 {_fmt_seconds(fg['p95_latency_s']).strip()}, "
            f"max {_fmt_seconds(fg['max_latency_s']).strip()}",
        ]
    if tracer is not None:
        events = [
            e
            for e in tracer.all_events()
            if e.name in ("recovery.throttle", "slo.breach", "slo.recover")
        ]
        if events:
            lines += ["", "throttle/SLO transitions:"]
            for e in events:
                detail = (
                    f"-> x{e.attrs['throttle']:.2f}"
                    if e.name == "recovery.throttle"
                    else e.attrs.get("expr", "")
                )
                lines.append(
                    f"  {_fmt_seconds(e.time).strip():>10}  {e.name}  "
                    f"{e.attrs.get('direction', '')}{detail}"
                )
    return "\n".join(lines)


def render_scrub(report) -> str:
    """Render a :class:`~repro.integrity.scrubber.ScrubReport` (``repro scrub``)."""
    span = report.finished_at - report.started_at
    lines = [
        "background scrub:",
        f"  {report.chunks_scanned} chunk(s) of {report.stripes_scanned} "
        f"stripe(s) scanned ({report.bytes_scanned / units.MIB:.1f} MiB) "
        f"in {_fmt_seconds(span).strip()}",
        f"  bandwidth budget {report.bandwidth_fraction:.0%} of each "
        f"node's uplink; {report.skipped} chunk(s) skipped "
        f"(moved / dead / already quarantined)",
    ]
    if report.corrupt:
        lines.append(f"  {len(report.corrupt)} corrupt chunk(s) found:")
        for stripe_id, chunk_index, node in report.corrupt:
            lines.append(
                f"    {stripe_id} chunk {chunk_index} on node {node} "
                f"-> quarantined"
            )
    else:
        lines.append("  no corruption found")
    return "\n".join(lines)


def render_profile(profiler, monitor=None, *, top: int = 12) -> str:
    """Render an engine-profile summary (``repro prof``).

    ``profiler`` is a :class:`~repro.obs.EngineProfiler` after a run;
    ``monitor`` optionally adds the heartbeat tail.  Self time is what
    the profiler attributed to the action callbacks themselves; the
    run-wall line includes the engine's own heap/bookkeeping share.
    """
    lines = ["engine profile:"]
    if profiler.events == 0:
        lines.append("  no events executed under the profiler")
        return "\n".join(lines)
    wall_s = profiler.run_wall_ns / 1e9
    self_s = profiler.total_self_ns / 1e9
    rate = profiler.events / wall_s if wall_s > 0 else 0.0
    lines.append(
        f"  {profiler.events:,} event(s) in {profiler.batches:,} batch(es) "
        f"(mean batch {profiler.mean_batch_size:.1f}) — "
        f"{rate:,.0f} events/s"
    )
    lines.append(
        f"  run wall {_fmt_seconds(wall_s).strip()}, action self time "
        f"{_fmt_seconds(self_s).strip()} "
        f"({self_s / wall_s:.0%} of wall)" if wall_s > 0 else
        f"  action self time {_fmt_seconds(self_s).strip()}"
    )
    alloc_col = profiler.track_alloc
    header = f"{'action site':<52} | {'events':>9} | {'self':>11} | {'mean':>9}"
    if alloc_col:
        header += f" | {'alloc':>9}"
    lines += ["", header, "-" * len(header)]
    for s in profiler.hot_sites(top):
        site = s.site
        if len(site) > 52:
            site = "…" + site[-51:]
        row = (
            f"{site:<52} | {s.events:>9,} | "
            f"{_fmt_seconds(s.self_ns / 1e9):>11} | "
            f"{s.mean_us:>7.1f}us"
        )
        if alloc_col:
            row += f" | {s.alloc_bytes / 1024:>7.0f}Ki"
        lines.append(row)
    if len(profiler.sites) > top:
        lines.append(f"  ... {len(profiler.sites) - top} more site(s)")
    if profiler.fanout:
        lines.append("")
        for hook, hist in sorted(profiler.fanout.items()):
            total = sum(hist.values())
            mean = sum(k * v for k, v in hist.items()) / total
            lines.append(
                f"  fan-out {hook}: {total} dispatch(es), "
                f"mean {mean:.1f} listener(s), max {max(hist)}"
            )
    if monitor is not None and monitor.heartbeats:
        last = monitor.heartbeats[-1]
        lines += [
            "",
            f"  {len(monitor.heartbeats)} heartbeat(s); last: "
            f"sim {_fmt_seconds(last['sim_s']).strip()}, "
            f"{last['events']:,} events, "
            f"{last['cum_events_per_s']:,.0f} events/s cumulative",
        ]
    return "\n".join(lines)


def _fmt_duration(seconds: float) -> str:
    """Lifetime-scale formatting: seconds up through days."""
    if seconds < 120.0:
        return f"{seconds:.1f} s"
    if seconds < 7200.0:
        return f"{seconds / 60.0:.1f} min"
    if seconds < 172800.0:
        return f"{seconds / 3600.0:.1f} h"
    return f"{seconds / 86400.0:.1f} d"


def _fmt_years(years: float) -> str:
    if years == float("inf"):
        return "inf"
    if years >= 1000.0:
        return f"{years:.3g}"
    return f"{years:.1f}"


def _fmt_nines(nines: float) -> str:
    return "inf" if nines == float("inf") else f"{nines:.2f}"


def render_lifetime(mc) -> str:
    """Render a Monte-Carlo lifetime result (``repro lifetime``).

    ``mc`` is a :class:`~repro.lifetime.montecarlo.MonteCarloResult`:
    the durability headline (MTTDL + nines with their confidence
    interval, honest about the zero-loss case), exposure-time
    percentiles from the merged TDigest sketches, and the top loss
    post-mortems with the orchestrator snapshot at each loss.
    """
    cfg = mc.config
    pct = f"{mc.confidence:.0%}"
    lines = [
        f"fleet-lifetime durability: ({cfg.n},{cfg.k}) x "
        f"{cfg.num_stripes:,} stripes in {cfg.placement_groups} placement "
        f"group(s), {mc.trials} trial(s) x {cfg.years:g} simulated year(s) "
        f"({mc.stripe_years:,.0f} stripe-years, repair={cfg.repair})",
    ]
    if mc.zero_loss:
        lines.append(
            f"  no data-loss events observed; at {pct} confidence "
            f"MTTDL > {_fmt_years(mc.mttdl_ci_years[0])} group-years "
            f"(durability > {_fmt_nines(mc.nines_ci[0])} nines)"
        )
    else:
        lines.append(
            f"  {mc.loss_events} loss event(s), {mc.stripes_lost:,} "
            f"stripe(s) lost "
            f"(per trial: {', '.join(str(c) for c in mc.per_trial_loss_events)})"
        )
    header = f"{'durability':>22} | {'point':>10} | {pct + ' CI':>21}"
    lines += ["", header, "-" * len(header)]
    lines.append(
        f"{'MTTDL (group-years)':>22} | {_fmt_years(mc.mttdl_years):>10} | "
        f"[{_fmt_years(mc.mttdl_ci_years[0]):>8}, "
        f"{_fmt_years(mc.mttdl_ci_years[1]):>8}]"
    )
    lines.append(
        f"{'annual nines':>22} | {_fmt_nines(mc.nines):>10} | "
        f"[{_fmt_nines(mc.nines_ci[0]):>8}, {_fmt_nines(mc.nines_ci[1]):>8}]"
    )
    for label, digest in (
        ("degraded exposure", mc.exposure_digest),
        ("below-k unavailability", mc.below_k_digest),
    ):
        lines.append("")
        if digest.count == 0:
            lines.append(f"{label}: no windows recorded")
            continue
        qs = {q: digest.quantile(q) for q in (0.5, 0.9, 0.99, 1.0)}
        lines.append(
            f"{label}: {digest.count:,.0f} stripe-window(s); "
            f"p50 {_fmt_duration(qs[0.5])}, p90 {_fmt_duration(qs[0.9])}, "
            f"p99 {_fmt_duration(qs[0.99])}, max {_fmt_duration(qs[1.0])}"
        )
    if mc.post_mortems:
        lines += ["", "top loss post-mortems (largest first):"]
        for loss in mc.post_mortems:
            lines.append(
                f"  t={loss.time_years:.3f}y {loss.stripe_id}: "
                f"{loss.stripes:,} stripe(s), {loss.surviving} surviving "
                f"chunk(s), trigger {loss.trigger_level} "
                f"{loss.trigger_unit}; group was {loss.group_state}, "
                f"queue {loss.queue_depth}, {loss.inflight} in flight, "
                f"budget committed {loss.committed_fraction:.0%}, "
                f"throttle x{loss.throttle:.2f}"
            )
            burst = ", ".join(
                f"{lvl} {unit}@{t:.0f}s"
                for t, lvl, unit in loss.recent_failures[-4:]
            )
            if burst:
                lines.append(f"      failure burst: {burst}")
    return "\n".join(lines)


def render_lifetime_sweep(sweep, *, knob: str = "pipeline_factor") -> str:
    """Render a repair-speed sweep: ``[(knob value, MonteCarloResult)]``.

    The durability-vs-repair-speed table — how many nines pipelined
    repair buys over conventional rebuild at otherwise identical
    fleets (the lifetime-scale rendering of the paper's headline).
    """
    header = (
        f"{knob:>16} | {'losses':>6} | {'stripes lost':>12} | "
        f"{'MTTDL (gy)':>10} | {'nines':>6}"
    )
    lines = ["durability vs repair speed", header, "-" * len(header)]
    for value, mc in sweep:
        lines.append(
            f"{value:>16g} | {mc.loss_events:>6} | {mc.stripes_lost:>12,} | "
            f"{_fmt_years(mc.mttdl_years):>10} | {_fmt_nines(mc.nines):>6}"
        )
    return "\n".join(lines)

