"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------

``plan``        schedule a repair on a bandwidth file (or a demo scenario)
                and print the pipelines
``trace``       generate a workload bandwidth trace (optionally save .npz),
                or — ``repro trace repair`` — run a canned traced repair
                with an injected hub crash and print its timeline
``metrics``     run the traced demo repair and print the Prometheus
                text snapshot of its metrics registry
``attr``        replay the traced hub-crash demo and print the bottleneck
                attribution (the achieved/t_max gap split into buckets)
``fleet``       run the fleet sweep demo and print the aggregated sketches
``slo``         run the fleet sweep demo against SLO rules and print the
                verdicts plus the breach/recover transition log
``recover``     background recovery demo: kill node(s) under a foreground
                workload and drain the repair queue on a bandwidth budget
``prof``        profile the event engine itself over an orchestrated
                recovery: hot action sites, heartbeats, flamegraph /
                speedscope / Perfetto-counter exports
``scrub``       integrity demo: inject silent bit rot, walk every chunk
                with the budgeted scrubber and repair what it quarantines
``detect``      divergence-detection demo: rate-cap a helper mid-repair
                and print the streaming detectors' alarm log plus the
                detector-informed early abort
``lifetime``    fleet-lifetime durability campaign: Monte-Carlo MTTDL /
                durability-nines over simulated years, with loss
                post-mortems (``--sweep`` compares repair speeds)

Every command is deterministic under ``--seed``.  The paper's tables and
figures are not here: ``python -m benchmarks.reproduction`` runs them.

Command *output* (tables, plans, snapshots) is printed to stdout so it
stays pipeable; status and diagnostics go through :mod:`logging` on the
``repro.*`` logger hierarchy (stderr), controlled by ``-v/--verbose``
and ``-q/--quiet``.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

log = logging.getLogger("repro.cli")

from .net import BandwidthSnapshot, RepairContext, units
from .repair import algorithm_names, compute_plan
from .repair.rendering import render_plan
from .sim import TransferParams, execute
from .workloads import make_trace, save_trace, trace_cv


#: k of the Fig. 2 demo scenario, hence ``plan --k``'s default
DEMO_K = 3


def _demo_context() -> RepairContext:
    """The paper's Fig. 2 scenario."""
    snap = BandwidthSnapshot(
        uplink=np.array([1000.0, 600.0, 960.0, 600.0, 600.0]),
        downlink=np.array([1000.0, 300.0, 1000.0, 300.0, 300.0]),
    )
    return RepairContext(snapshot=snap, requester=0, helpers=(1, 2, 3, 4), k=DEMO_K)


def _load_context(path: str, k: int) -> RepairContext:
    """Context from a two-row (uplink/downlink) whitespace/CSV file.

    Node 0 is the requester; all remaining nodes are helper candidates.
    """
    try:
        table = np.loadtxt(path, delimiter="," if path.endswith(".csv") else None)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read bandwidth file {path}: {exc}") from None
    if table.ndim != 2 or table.shape[0] != 2:
        raise SystemExit(
            "bandwidth file must have two rows: uplinks then downlinks"
        )
    try:
        snap = BandwidthSnapshot(uplink=table[0], downlink=table[1])
    except ValueError as exc:
        raise SystemExit(f"bad bandwidth file {path}: {exc}") from None
    return RepairContext(
        snapshot=snap,
        requester=0,
        helpers=tuple(range(1, snap.num_nodes)),
        k=k,
    )


def cmd_plan(args: argparse.Namespace) -> int:
    ctx = _load_context(args.bandwidth, args.k) if args.bandwidth else _demo_context()
    plan = compute_plan(args.algorithm, ctx)
    plan.validate()
    print(render_plan(plan))
    params = TransferParams(
        chunk_bytes=units.mib(args.chunk_mib), slice_bytes=units.kib(args.slice_kib)
    )
    result = execute(plan, params)
    print(
        f"\n{args.chunk_mib} MiB chunk, {args.slice_kib} KiB slices: "
        f"calc {plan.calc_seconds * 1e6:.1f} us + "
        f"transfer {result.transfer_seconds:.3f} s"
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.workload == "repair":
        return _cmd_trace_repair(args)
    trace = make_trace(
        args.workload,
        num_nodes=args.nodes,
        num_snapshots=args.snapshots,
        seed=args.seed,
    )
    cv = trace_cv(trace)
    print(
        f"{args.workload}: {len(trace)} snapshots x {trace.num_nodes} nodes, "
        f"mean available {trace.uplink.mean():.1f} Mbps, "
        f"C_v mean {cv.mean():.3f} / max {cv.max():.3f}, "
        f"congested instants {len(trace.congested_instants())}"
    )
    if args.out:
        save_trace(trace, args.out)
        log.info("saved to %s", args.out)
    return 0


def _cmd_trace_repair(args: argparse.Namespace) -> int:
    """``repro trace repair``: the traced hub-crash demo repair."""
    from .analysis import render_repair_timeline
    from .obs import chrome_trace_json, spans_to_jsonl
    from .obs.demo import traced_hub_crash_repair

    log.info("running traced (14,10) repair with injected hub crash ...")
    demo = traced_hub_crash_repair(seed=args.seed)
    out = demo.outcome
    print(render_repair_timeline(demo.tracer))
    print()
    print(
        f"hub {demo.hub} crashed at {demo.crash_at_s * 1e3:.2f} ms; "
        f"repair {out.status} after {out.attempts} attempts "
        f"({out.retries} retries, {out.replans} replans), "
        f"verified={out.verified}"
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(chrome_trace_json(demo.tracer))
        log.info(
            "Chrome trace written to %s "
            "(load in Perfetto or chrome://tracing)",
            args.out,
        )
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            fh.write(spans_to_jsonl(demo.tracer))
        log.info("span JSONL written to %s", args.jsonl)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from .obs import prometheus_text
    from .obs.demo import traced_hub_crash_repair

    log.info("running traced demo repair to populate the registry ...")
    demo = traced_hub_crash_repair(seed=args.seed)
    text = prometheus_text(demo.metrics)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        log.info("Prometheus snapshot written to %s", args.out)
    else:
        print(text, end="")
    return 0


def cmd_attr(args: argparse.Namespace) -> int:
    from .analysis import render_attribution
    from .obs.attr import attribute_repair
    from .obs.demo import traced_hub_crash_repair

    log.info("running traced hub-crash repair to build the span record ...")
    demo = traced_hub_crash_repair(seed=args.seed)
    attr = attribute_repair(demo.tracer)
    print(render_attribution(attr))
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from .analysis import render_fleet
    from .obs.demo import fleet_sweep

    log.info("running %d-repair fleet sweep ...", args.repairs)
    demo = fleet_sweep(repairs=args.repairs, seed=args.seed)
    print(render_fleet(demo.fleet, demo.system.events.now))
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    from .analysis import render_slo
    from .obs.demo import fleet_sweep
    from .obs.slo import parse_rules

    kwargs = {}
    if args.rules:
        try:
            parse_rules(args.rules)  # fail fast on typos before the sweep
        except ValueError as exc:
            raise SystemExit(f"repro slo: {exc}") from exc
        kwargs["rules"] = tuple(args.rules)
    log.info("running %d-repair fleet sweep under SLO rules ...", args.repairs)
    demo = fleet_sweep(repairs=args.repairs, seed=args.seed, **kwargs)
    statuses = demo.slo.evaluate(demo.system.events.now)
    print(render_slo(demo.slo, statuses, demo.tracer))
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    from .analysis import render_recovery
    from .recovery import run_recovery_scenario

    kills = tuple(
        (node, 0.001 + i * args.stagger_s) for i, node in enumerate(args.kill)
    )
    log.info(
        "recovering %d stripe(s) after killing node(s) %s under a %r "
        "foreground workload ...",
        args.stripes, list(args.kill), args.workload,
    )
    scenario = run_recovery_scenario(
        num_stripes=args.stripes,
        chunk_bytes=args.chunk_kib * units.KIB,
        workload=args.workload,
        seed=args.seed,
        kills=kills,
        budget_fraction=args.budget,
        max_concurrent=args.max_concurrent,
        foreground_reads=args.reads,
        slo_latency_multiple=None if args.no_slo else args.slo_multiple,
    )
    print(render_recovery(scenario.report, scenario.tracer))
    return 0


def cmd_prof(args: argparse.Namespace) -> int:
    import json

    from .analysis import render_profile
    from .obs import chrome_trace, collapsed_stacks, speedscope_json
    from .recovery import run_recovery_scenario

    kills = tuple(
        (node, 0.001 + i * args.stagger_s) for i, node in enumerate(args.kill)
    )
    log.info(
        "profiling the engine over a %d-stripe recovery "
        "(chunk %d KiB, slice %d KiB) ...",
        args.stripes, args.chunk_kib, args.slice_kib,
    )
    scenario = run_recovery_scenario(
        num_stripes=args.stripes,
        chunk_bytes=args.chunk_kib * units.KIB,
        slice_bytes=args.slice_kib * units.KIB,
        workload=args.workload,
        seed=args.seed,
        kills=kills,
        foreground_reads=args.reads,
        profile=True,
        track_alloc=args.alloc,
        heartbeat_s=args.interval,
        progress=args.progress,
    )
    profiler, monitor = scenario.profiler, scenario.monitor
    print(render_profile(profiler, monitor, top=args.top))
    if args.speedscope:
        with open(args.speedscope, "w") as fh:
            json.dump(speedscope_json(profiler), fh, sort_keys=True)
        log.info("speedscope profile written to %s", args.speedscope)
    if args.collapsed:
        with open(args.collapsed, "w") as fh:
            fh.write(collapsed_stacks(profiler))
        log.info("collapsed stacks written to %s", args.collapsed)
    if args.heartbeats:
        with open(args.heartbeats, "w") as fh:
            fh.write(monitor.heartbeats_jsonl())
        log.info("heartbeat JSONL written to %s", args.heartbeats)
    if args.chrome:
        doc = chrome_trace(scenario.tracer, profiler=profiler, monitor=monitor)
        with open(args.chrome, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        log.info("chrome trace written to %s", args.chrome)
    return 0


def cmd_scrub(args: argparse.Namespace) -> int:
    from .analysis import render_scrub
    from .cluster import ClusterSystem
    from .ec import RSCode
    from .integrity import Scrubber
    from .recovery import RecoveryOrchestrator

    rng = np.random.default_rng(args.seed)
    trace = make_trace(
        args.workload, num_nodes=args.nodes, num_snapshots=60, seed=args.seed
    )
    system = ClusterSystem(args.nodes, RSCode(9, 6))
    system.set_bandwidth(trace.snapshot(0))
    log.info(
        "writing %d stripe(s), rotting %d chunk(s), scrubbing at %.0f%% ...",
        args.stripes, args.rot, args.budget * 100,
    )
    for i in range(args.stripes):
        data = rng.integers(
            0, 256, size=(6, args.chunk_kib * units.KIB), dtype=np.uint8
        )
        system.write_stripe(f"s{i}", data)
    victims = rng.choice(args.stripes, size=min(args.rot, args.stripes),
                         replace=False)
    for sid_idx in victims:
        sid = f"s{int(sid_idx)}"
        loc = system.master.stripe(sid)
        chunk = int(rng.integers(0, len(loc.placement)))
        system.corrupt_chunk(
            loc.placement[chunk], sid, chunk,
            flips=int(rng.integers(1, 32)), seed=int(rng.integers(0, 2**31)),
        )
    orchestrator = RecoveryOrchestrator(system)
    orchestrator.start()
    scrubber = Scrubber(
        system, bandwidth_fraction=args.budget, orchestrator=orchestrator
    )
    report = scrubber.run()
    system.events.run()
    print(render_scrub(report))
    if orchestrator.records:
        verified = sum(1 for r in orchestrator.records if r.verified)
        print(
            f"\nscrub-triggered repairs: {len(orchestrator.records)} "
            f"stripe(s) repaired, {verified} verified"
        )
    residual = sum(
        len(system.master.quarantined_chunks(f"s{i}"))
        for i in range(args.stripes)
    )
    print(f"residual quarantined chunks after repair: {residual}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    from .analysis import render_detect
    from .obs import chrome_trace_json
    from .obs.demo import detected_straggler_repair

    log.info(
        "running (14,10) repair with a helper rate-capped to %.1f Mbps ...",
        args.cap_mbps,
    )
    demo = detected_straggler_repair(seed=args.seed, cap_mbps=args.cap_mbps)
    out = demo.outcome
    print(render_detect(demo.monitor, demo.tracer))
    print()
    print(
        f"helper {demo.helper} capped at "
        f"{demo.fault_at_s * 1e3:.2f} ms; repair {out.status} after "
        f"{out.attempts} attempt(s) ({out.replans} replan(s)) in "
        f"{out.elapsed_seconds * 1e3:.2f} ms "
        f"(clean run took {demo.clean_elapsed_s * 1e3:.2f} ms)"
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(chrome_trace_json(demo.tracer))
        log.info(
            "Chrome trace written to %s "
            "(load in Perfetto; detect.* events ride the repair track)",
            args.out,
        )
    return 0


def cmd_lifetime(args: argparse.Namespace) -> int:
    from .analysis import render_lifetime, render_lifetime_sweep
    from .lifetime import (
        ExponentialProcess,
        LifetimeConfig,
        RepairModel,
        run_monte_carlo,
        sweep_repair_speed,
    )

    n, k = map(int, args.nk.split(","))
    config = LifetimeConfig(
        n=n,
        k=k,
        num_stripes=args.stripes,
        placement_groups=args.groups,
        years=args.years,
        seed=args.seed,
        disk_process=ExponentialProcess.from_years(
            args.mttf_years, mttr_hours=args.mttr_hours
        ),
        machine_process=(
            ExponentialProcess.from_years(
                args.machine_mttf_years, mttr_hours=args.machine_mttr_hours
            )
            if args.machine_mttf_years
            else None
        ),
        repair=args.repair,
        repair_model=RepairModel(
            node_mbps=args.node_mbps, pipeline_factor=args.pipeline
        ),
        budget_fraction=args.budget,
    )
    if args.sweep:
        log.info(
            "sweeping pipeline factors %s over %d trial(s) each ...",
            args.sweep, args.trials,
        )
        sweep = sweep_repair_speed(
            config, args.sweep, trials=args.trials, workers=args.workers
        )
        print(render_lifetime_sweep(sweep))
        return 0
    log.info(
        "running %d lifetime trial(s) x %g simulated year(s) ...",
        args.trials, args.years,
    )
    mc = run_monte_carlo(
        config,
        trials=args.trials,
        workers=args.workers,
        confidence=args.confidence,
    )
    print(render_lifetime(mc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FullRepair reproduction toolkit"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="status messages on stderr (-vv for debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress warnings (errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="schedule one repair and print the pipelines")
    p.add_argument("--algorithm", default="fullrepair", choices=algorithm_names())
    p.add_argument("--bandwidth", help="two-row uplink/downlink file (txt or csv)")
    p.add_argument("--k", type=int, default=DEMO_K,
                   help="chunks needed to rebuild (with --bandwidth; the demo "
                   f"scenario is fixed at {DEMO_K})")
    p.add_argument("--chunk-mib", type=float, default=64.0)
    p.add_argument("--slice-kib", type=float, default=64.0)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser(
        "trace",
        help="generate a workload bandwidth trace, or ('repair') run a "
        "traced demo repair with an injected hub crash",
    )
    p.add_argument("workload", choices=["tpcds", "tpch", "swim", "repair"])
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--snapshots", type=int, default=6000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out",
        help="save as .npz (workload traces) or Chrome trace JSON ('repair')",
    )
    p.add_argument(
        "--jsonl", help="'repair' only: also dump the span tree as JSONL"
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "metrics",
        help="run the traced demo repair and print its Prometheus snapshot",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the snapshot to a file")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "attr",
        help="bottleneck attribution of the traced hub-crash demo repair",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_attr)

    p = sub.add_parser(
        "fleet", help="fleet sweep demo: aggregated quantile sketches"
    )
    p.add_argument("--repairs", type=int, default=50)
    p.add_argument("--seed", type=int, default=5)
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "slo", help="fleet sweep demo evaluated against SLO rules"
    )
    p.add_argument("--repairs", type=int, default=50)
    p.add_argument("--seed", type=int, default=5)
    p.add_argument(
        "--rules", nargs="+",
        help="override rules, e.g. 'p99 repro_repair_seconds < 0.01'",
    )
    p.set_defaults(func=cmd_slo)

    p = sub.add_parser(
        "recover",
        help="background recovery demo: kill node(s) under foreground load",
    )
    p.add_argument(
        "--kill", type=int, nargs="+", default=[0],
        help="node id(s) to crash (staggered by --stagger-s)",
    )
    p.add_argument("--stagger-s", type=float, default=0.003)
    p.add_argument("--stripes", type=int, default=24)
    p.add_argument("--chunk-kib", type=int, default=16)
    p.add_argument("--workload", default="tpcds")
    p.add_argument("--budget", type=float, default=0.5,
                   help="repair bandwidth budget fraction")
    p.add_argument("--max-concurrent", type=int, default=4)
    p.add_argument("--reads", type=int, default=200,
                   help="foreground reads to issue during recovery")
    p.add_argument("--slo-multiple", type=float, default=1.5,
                   help="p95 latency SLO as a multiple of the clean read")
    p.add_argument("--no-slo", action="store_true",
                   help="disable the SLO-coupled throttle")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser(
        "prof",
        help="profile the event engine over an orchestrated recovery",
    )
    p.add_argument("--kill", type=int, nargs="+", default=[0])
    p.add_argument("--stagger-s", type=float, default=0.003)
    p.add_argument("--stripes", type=int, default=48)
    p.add_argument("--chunk-kib", type=int, default=64)
    p.add_argument("--slice-kib", type=int, default=4,
                   help="slice size; smaller = more events per repair")
    p.add_argument("--workload", default="tpcds")
    p.add_argument("--reads", type=int, default=200)
    p.add_argument("--top", type=int, default=12,
                   help="hot action sites to print")
    p.add_argument("--alloc", action="store_true",
                   help="attribute allocations too (tracemalloc; slower)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="heartbeat period (wall seconds)")
    p.add_argument("--progress", action="store_true",
                   help="live progress line on stderr")
    p.add_argument("--speedscope", metavar="PATH",
                   help="write a speedscope JSON profile")
    p.add_argument("--collapsed", metavar="PATH",
                   help="write collapsed stacks for flamegraph.pl")
    p.add_argument("--heartbeats", metavar="PATH",
                   help="write heartbeat snapshots as JSONL")
    p.add_argument("--chrome", metavar="PATH",
                   help="write a Perfetto trace with engine counter tracks")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_prof)

    p = sub.add_parser(
        "scrub",
        help="integrity demo: silent bit rot found by the budgeted scrubber",
    )
    p.add_argument("--nodes", type=int, default=14)
    p.add_argument("--stripes", type=int, default=12)
    p.add_argument("--chunk-kib", type=int, default=16)
    p.add_argument("--rot", type=int, default=3,
                   help="chunks to silently corrupt before the scrub")
    p.add_argument("--budget", type=float, default=0.05,
                   help="scrub bandwidth as a fraction of each uplink")
    p.add_argument("--workload", default="tpcds")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_scrub)

    p = sub.add_parser(
        "detect",
        help="divergence-detection demo: a straggling helper caught live",
    )
    p.add_argument("--cap-mbps", type=float, default=1.0,
                   help="uplink cap injected on the straggling helper")
    p.add_argument("--out", help="write the run as Chrome trace JSON")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser(
        "lifetime",
        help="Monte-Carlo fleet-lifetime durability campaign (MTTDL, nines)",
    )
    p.add_argument("--nk", default="14,10", help="code as n,k")
    p.add_argument("--stripes", type=int, default=50_000)
    p.add_argument("--groups", type=int, default=64,
                   help="placement groups the stripes share")
    p.add_argument("--years", type=float, default=2.0,
                   help="simulated years per trial")
    p.add_argument("--trials", type=int, default=2,
                   help="independent-seed Monte-Carlo trials")
    p.add_argument("--mttf-years", type=float, default=0.25,
                   help="disk MTTF (accelerated-aging default)")
    p.add_argument("--mttr-hours", type=float, default=12.0,
                   help="disk replacement lead time")
    p.add_argument("--machine-mttf-years", type=float, default=0.5,
                   help="machine MTTF for correlated transient outages "
                   "(0 disables the machine process)")
    p.add_argument("--machine-mttr-hours", type=float, default=4.0)
    p.add_argument("--repair", default="orchestrated",
                   choices=["orchestrated", "process"],
                   help="orchestrated = real recovery loop; process = "
                   "independent per-chunk rebuild clocks (Markov regime)")
    p.add_argument("--node-mbps", type=float, default=600.0)
    p.add_argument("--pipeline", type=float, default=1.0,
                   help="repair-cost factor: 1.0 = pipelined (FullRepair), "
                   "k = conventional serial rebuild")
    p.add_argument("--budget", type=float, default=0.3,
                   help="repair bandwidth budget fraction")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--workers", type=int, default=None,
                   help="trial process pool size (default: one per trial)")
    p.add_argument("--sweep", type=float, nargs="+", metavar="FACTOR",
                   help="sweep pipeline factors instead, e.g. --sweep 1 5 10")
    p.add_argument("--seed", type=int, default=2023)
    p.set_defaults(func=cmd_lifetime)

    return parser


def configure_logging(verbosity: int = 0) -> None:
    """Set up the ``repro`` logger hierarchy for CLI use.

    ``verbosity``: -1 = errors only (``-q``), 0 = warnings (default),
    1 = info (``-v``), 2+ = debug (``-vv``).  Handlers attach to the
    ``repro`` root logger only and write to stderr; repeated calls
    (tests invoke :func:`main` many times) reuse the installed handler
    and just adjust the level.
    """
    level = (
        logging.ERROR
        if verbosity < 0
        else logging.WARNING
        if verbosity == 0
        else logging.INFO
        if verbosity == 1
        else logging.DEBUG
    )
    root = logging.getLogger("repro")
    root.setLevel(level)
    if not any(getattr(h, "_repro_cli", False) for h in root.handlers):
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        handler._repro_cli = True
        root.addHandler(handler)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "plan" and args.k != DEMO_K and not args.bandwidth:
        parser.error(
            f"--k {args.k} needs --bandwidth: the demo scenario (paper Fig. 2) "
            f"is fixed at k={DEMO_K}"
        )
    configure_logging(-1 if args.quiet else args.verbose)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
