"""One table of paper claims: every table, figure, ablation and extension
experiment of the reproduction, each written once.

    python -m benchmarks.reproduction [--check|--write] [--scale full|tier1] [CLAIM ...]

Each :class:`Claim` in :data:`CLAIMS` names one artefact, its inputs, what
the paper reports, a ``run`` that measures it through ``repro.analysis`` /
``core`` / ``sim`` / ``lifetime``, and the claim as named predicates over
the measurement.  The selected claims (default: all) are run and printed;
``--write`` stores all of them in ``REPRODUCTION.json`` and regenerates
EXPERIMENTS.md between its two markers from that file alone; ``--check``
fails if a predicate is false or a record no longer matches the committed
one — simulated numbers (a record's ``measured``) to 1e-9 relative, text
exactly.  Numbers that contain host wall-clock time — scheduling time and
everything the planner's measured ``calc_seconds`` is added into — live
under ``host``: never compared between runs, only judged by the
predicates' in-run orderings and ratios.

``--scale`` is the one setting: ``full`` is what ``REPRODUCTION.json``
holds; ``tier1`` shrinks only sample counts, so every predicate runs in
seconds in the test suite (``tests/test_reproduction.py``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from repro import analysis
from repro.core import (
    FullRepair, StripeRepairSpec, max_pipelined_throughput, plan_full_node_repair,
    schedule_tasks,
)
from repro.core.optimality import lp_max_throughput
from repro.lifetime import ExponentialProcess, LifetimeConfig, run_monte_carlo
from repro.net import (
    BandwidthSnapshot, DomainTree, RepairContext, rack_scaled_context, units,
)
from repro.obs import DivergenceMonitor, MetricsRegistry, Tracer
from repro.obs.demo import _build_system, _find_hub
from repro.repair import PivotRepair, get_algorithm
from repro.sim import (
    TransferParams, execute, ideal_transfer_seconds, simulate_under_drift,
)
from repro.workloads import Trace, bucket_label, make_trace

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The paper's RS parameterisations (§V-B).
CODES = ((6, 4), (9, 6), (12, 8), (14, 10))
#: Master seed of every claim.
SEED = 2023

JSON_PATH = REPO_ROOT / "REPRODUCTION.json"
DOC_PATH = REPO_ROOT / "EXPERIMENTS.md"
BEGIN = (
    "<!-- reproduction:begin — generated from REPRODUCTION.json by "
    "`python -m benchmarks.reproduction --write`; do not edit -->"
)
END = "<!-- reproduction:end -->"

#: ``--check`` tolerance on simulated numbers (as ``benchmarks/e2e/expected.json``)
REL_TOL = 1e-9

#: The sample counts the two callers differ in (the paper: 100 / 6000).
SCALES = {
    "full": {
        "samples": 12,  # repair instances per (workload, n, k) cell
        "snapshots": 1500,  # trace length sampled from
        "ppt_budget": 3000,  # PPT emulations (oracle seeding keeps PPT exact)
        "timing_rounds": 20,  # Fig. 5 repetitions per cell
        "lifetime_trials": 150,  # one-year lifetimes per scheduler
    },
    "tier1": {"samples": 3, "snapshots": 300, "ppt_budget": 100, "timing_rounds": 3,
              "lifetime_trials": 24},
}
WORKLOADS = ("tpcds", "tpch", "swim")


class Run(NamedTuple):
    """One measurement: exact numbers and host-timed numbers."""

    measured: dict
    host: dict = {}


class Claim(NamedTuple):
    id: str
    artefact: str
    title: str
    run: Callable[[dict], Run]  # takes one of SCALES
    predicates: dict[str, Callable[[dict], bool]]
    inputs: str  # beyond SEED and the scale
    note: str
    paper: dict = {}  # what the paper reports, keyed like the measurement


# ---- what the predicates share


def _lowest(key: str, slack: float):
    """FullRepair within ``slack`` of every baseline in every row of ``key``."""
    return lambda m: all(
        row["fullrepair"] <= other * slack
        for row in m[key].values()
        for name, other in row.items()
        if name != "fullrepair"
    )


def _columns(table: dict) -> list[list[float]]:
    """``{row: {algorithm: v}}`` as one list per algorithm, in row order."""
    rows = list(table.values())
    return [[row[name] for row in rows] for name in rows[0]]


def _stepwise(key: str, holds, rows: slice = slice(None)):
    """``holds(a, b)`` on every consecutive pair of every algorithm's column."""
    return lambda m: all(
        holds(a, b)
        for col in _columns(m[key])
        for a, b in zip(col[rows], col[rows][1:])
    )


def _slower(slow: tuple, fast: tuple):
    """Fig. 5: ``calc_us`` at one ``((n,k), algorithm)`` above another."""
    return lambda m: m["calc_us"][slow[0]][slow[1]] > m["calc_us"][fast[0]][fast[1]]


def _by_makespan(m: dict, field: str):
    """Consecutive schedulers' ``field``, fastest full-node repair first."""
    column = [row[field] for row in m["scheduler"].values()]
    return zip(column, column[1:])


def _as_in_the_paper(paper: dict) -> dict:
    """One exact-equality predicate per quantity the paper tabulates."""
    return {
        f"{key}_as_in_the_paper": (lambda m, key=key, value=value: m[key] == value)
        for key, value in paper.items()
    }


def _ppt(scale: dict) -> dict:
    return {"ppt": {"max_emulations": scale["ppt_budget"]}}


# ---- Tables I-III


def _table1(scale: dict) -> Run:
    table = analysis.utilization_experiment(
        workloads=WORKLOADS, n=14, k=10, num_snapshots=scale["snapshots"],
        samples_per_workload=scale["snapshots"] // 5, seed=SEED,
        algorithms=("rp", "pivotrepair", "fullrepair"),
    )
    shares = {
        bucket_label(b): {name: asdict(cell) for name, cell in table.cells[b].items()}
        for b in sorted(table.cells)
    }
    instances = {bucket_label(b): table.counts[b] for b in sorted(table.counts)}
    return Run({"share": shares, "instances": instances})


#: Fig. 2's nodes: requester R = node 0, helpers N2..N5 = nodes 1..4
FIG2 = ("R", "N2", "N3", "N4", "N5")
TABLE2 = {
    "t_max_mbps": 900.0,
    "picked": ["N3"],
    "uplink_mbps": {"N2": 600.0, "N3": 900.0, "N4": 600.0, "N5": 600.0},
    "downlink_mbps": {"N2": 300.0, "N3": 1000.0, "N4": 300.0, "N5": 300.0},
}
TABLE3 = {
    "own_task_mbps": {"Task1 N5": 100.0, "Task2 N2": 150.0, "Task3 N4": 150.0,
                      "Task4 N3": 500.0},
    "senders_mbps": {
        "Task1": {"N2": 100.0, "N3": 100.0}, "Task2": {"N4": 150.0, "N3": 150.0},
        "Task3": {"N2": 150.0, "N3": 150.0},
        "Task4": {"N5": 500.0, "N2": 200.0, "N4": 300.0},
    },
    "segments": ["Task1 [0,100) N2+N3+N5", "Task2 [100,250) N2+N3+N4",
                 "Task3 [250,400) N2+N3+N4", "Task4 [400,600) N2+N3+N5",
                 "Task4 [600,900) N3+N4+N5"],
    "total_mbps": 900.0,
}


def _worked_example() -> tuple[Run, Run]:
    """Algorithms 1 and 2 on the paper's Fig. 2 bandwidths."""
    snap = BandwidthSnapshot(
        uplink=np.array([1000.0, 600.0, 960.0, 600.0, 600.0]),
        downlink=np.array([1000.0, 300.0, 1000.0, 300.0, 300.0]),
    )
    ctx = RepairContext(snapshot=snap, requester=0, helpers=(1, 2, 3, 4), k=3)
    res = max_pipelined_throughput(ctx)
    sched = schedule_tasks(ctx, res)
    return Run({
        "t_max_mbps": res.t_max,
        "picked": [FIG2[h] for h in res.picked],
        "uplink_mbps": {FIG2[h]: res.uplink[h] for h in ctx.helpers},
        "downlink_mbps": {FIG2[h]: res.downlink[h] for h in ctx.helpers},
    }), Run({
        "own_task_mbps": {
            f"Task{t.task_id} {FIG2[t.hub]}": t.speed for t in sched.tasks
        },
        "senders_mbps": {
            f"Task{t.task_id}": {FIG2[h]: mbps for h, mbps in t.amounts.items()}
            for t in sched.tasks
        },
        "segments": [
            f"Task{p.task_id} [{p.segment.start * res.t_max:.0f},"
            f"{p.segment.stop * res.t_max:.0f}) "
            + "+".join(sorted(FIG2[h] for h in p.participants))
            for p in sched.pipelines
        ],
        "total_mbps": sum(p.rate for p in sched.pipelines),
    })


# ---- Figures 4-8


def _repair_times(scale: dict, metric: str, seed: int) -> tuple[dict, dict, dict]:
    """Experiments 1-3 over the 12 (workload, n, k) cells: mean transfer
    seconds, mean ``metric`` seconds, and FullRepair's % reduction in it."""
    cells = {
        f"{workload} ({n},{k})": analysis.repair_time_experiment(
            workload=workload, n=n, k=k, num_samples=scale["samples"],
            num_snapshots=scale["snapshots"], seed=seed, algorithm_kwargs=_ppt(scale),
        )
        for workload in WORKLOADS
        for n, k in CODES
    }
    transfer, of_metric = (
        {
            cell: {name: getattr(r, f"mean_{which}")(name) for name in r.timings}
            for cell, r in cells.items()
        }
        for which in ("transfer", metric)
    )
    reduction = {}
    for base in ("rp", "ppt", "pivotrepair"):
        cut = {
            cell: 100 * r.reduction_vs("fullrepair", base, metric)
            for cell, r in cells.items()
        }
        at = max(cut, key=cut.get)
        mean = statistics.fmean(cut.values())
        reduction[base] = {"mean": mean, "max": cut[at], "at": at}
    return transfer, of_metric, reduction


def _fig4(scale: dict) -> Run:
    transfer, overall, reduction = _repair_times(scale, "overall", SEED)
    host = {"overall_s": overall, "reduction_pct": reduction}
    return Run({"transfer_s": transfer}, host)


def _fig6(scale: dict) -> Run:
    transfer, _, reduction = _repair_times(scale, "transfer", SEED + 1)
    return Run({"transfer_s": transfer, "reduction_pct": reduction})


def _fig5(scale: dict) -> Run:
    calc: dict = {}
    for n, k in CODES:
        ctx = analysis.make_fixed_context(n, k, seed=SEED)
        for name in analysis.PAPER_ALGORITHMS:
            # the sweeps' full PPT budget at both scales: a smaller one would
            # change which algorithm is slowest, which is the claim
            algo = get_algorithm(name, **_ppt(SCALES["full"]).get(name, {}))
            algo.schedule(ctx).validate()
            times = []
            for _ in range(scale["timing_rounds"]):
                start = time.perf_counter()
                algo.schedule(ctx)
                times.append(time.perf_counter() - start)
            calc.setdefault(f"({n},{k})", {})[name] = 1e6 * statistics.median(times)
    return Run({}, {"calc_us": calc})


def _t_max_gap(scale: dict) -> Run:
    """Carve each plan's gap to ``t_max`` into overhead, compute and fill.

    ``T`` is the plan's simulated transfer time, ``T_o`` the same with no
    per-slice overhead, ``T_oc`` with neither overhead nor GF compute.
    In seconds, overhead is ``T - T_o``, compute ``T_o - T_oc`` and fill
    the remainder of ``T - ideal`` (last takes the remainder, as
    ``repro.obs.attr`` carves); each is reported as a share of ``T``.
    """
    chunk = units.mib(64)
    models = [
        TransferParams(chunk_bytes=chunk),
        TransferParams(chunk_bytes=chunk, slice_overhead_s=0.0),
        TransferParams(chunk_bytes=chunk, slice_overhead_s=0.0, compute_s_per_byte=0.0),
    ]
    fullrepair = FullRepair()
    shares = {"overhead": [], "compute": [], "fill": []}
    fractions, without_overhead, exact = [], [], True
    for workload in WORKLOADS:
        trace = make_trace(
            workload, num_nodes=16, num_snapshots=scale["snapshots"], seed=SEED
        )
        for n, k in CODES:
            contexts = analysis.sample_contexts(
                trace, n, k, scale["samples"], seed=SEED
            )
            for plan in map(fullrepair.schedule, contexts):
                t, t_o, t_oc = (execute(plan, m).transfer_seconds for m in models)
                ideal = ideal_transfer_seconds(chunk, plan.total_rate)
                gap = t - ideal
                overhead, compute = t - t_o, t_o - t_oc
                fill = gap - overhead - compute
                exact = exact and overhead + compute + fill == gap
                for name, seconds in zip(shares, (overhead, compute, fill)):
                    shares[name].append(seconds / t)
                fractions.append(ideal / t)
                without_overhead.append(ideal / t_o)
    mean = {name: statistics.fmean(v) for name, v in shares.items()}
    return Run({
        "plans": len(fractions),
        "t_max_fraction": statistics.fmean(fractions),
        "t_max_fraction_without_overhead": statistics.fmean(without_overhead),
        "gap_share_of_T": mean,
        "overhead_share_of_gap": mean["overhead"] / sum(mean.values()),
        "fill_plus_compute_max_share_of_T": max(
            f + c for f, c in zip(shares["fill"], shares["compute"])
        ),
        "terms_sum_exactly": exact,
    })


def _size_sweep(series: dict[str, dict[int, float]]) -> Run:
    """A Fig. 7 / 8 sweep, ``{algorithm: {bytes: s}}``, by size then algorithm."""
    table = {
        (f"{x // units.MIB} MiB" if x >= units.MIB else f"{x // units.KIB} KiB"):
            {name: series[name][x] for name in series}
        for x in sorted(series["fullrepair"])
    }
    growth = dict(zip(series, (col[-1] / col[0] for col in _columns(table))))
    return Run({}, {"overall_s": table, "last_over_first": growth})


def _fig7(scale: dict) -> Run:
    return _size_sweep(analysis.slice_size_sweep(
        slice_sizes_bytes=tuple(units.kib(2**i) for i in range(1, 11)),
        n=6, k=4, chunk_bytes=units.mib(64), seed=SEED, algorithm_kwargs=_ppt(scale),
    ))


def _fig8(scale: dict) -> Run:
    return _size_sweep(analysis.chunk_size_sweep(
        chunk_sizes_bytes=tuple(units.mib(m) for m in (4, 8, 16, 32, 64)),
        n=6, k=4, seed=SEED, algorithm_kwargs=_ppt(scale),
    ))


# ---- Ablations (DESIGN.md §4)


def _swim_contexts(num: int) -> list[RepairContext]:
    trace = make_trace("swim", num_nodes=16, num_snapshots=1200, seed=SEED)
    return analysis.sample_contexts(trace, 14, 10, num, seed=SEED + 7)


def _ablation_multi(scale: dict) -> Run:
    fr, pv = FullRepair(), PivotRepair()
    gains = []
    for ctx in _swim_contexts(40):
        try:
            gains.append(fr.schedule(ctx).total_rate / pv.schedule(ctx).total_rate)
        except ValueError:
            continue  # dead links can defeat a single tree
    return Run({"instances": len(gains), "gain": {
        "mean": float(np.mean(gains)), "median": float(np.median(gains)),
        "p90": float(np.quantile(gains, 0.9)), "min": float(np.min(gains)),
    }})


def _ablation_requester(scale: dict) -> Run:
    rng = np.random.default_rng(SEED)
    fr, ablated = FullRepair(), FullRepair(use_requester_task=False)
    gains = []
    for _ in range(60):
        # thin helper downlinks force leftover throughput
        up, down = rng.uniform(300, 1000, 10), rng.uniform(30, 220, 10)
        down[0] = 1000.0  # requester
        ctx = RepairContext(
            snapshot=BandwidthSnapshot(uplink=up, downlink=down),
            requester=0, helpers=tuple(range(1, 10)), k=4,
        )
        plan = fr.schedule(ctx)
        if plan.meta["requester_task_rate"] <= 0:
            continue
        without = ablated.schedule(ctx)
        without.validate()
        gains.append(plan.total_rate / without.total_rate)
    return Run({"instances_with_leftover": len(gains), "of": 60,
                "mean_gain": float(np.mean(gains)) if gains else 0.0})


def _ablation_greedy(scale: dict) -> Run:
    total = flow_needed = 0
    for ctx in _swim_contexts(60):
        try:
            result = schedule_tasks(ctx, max_pipelined_throughput(ctx))
        except ValueError:
            continue
        total += 1
        flow_needed += bool(result.flow_completion_used)
    return Run({"instances": total, "greedy_alone_sufficient": total - flow_needed,
                "flow_completion_engaged": flow_needed})


# ---- Extensions (beyond the paper)


def _drift(scale: dict) -> Run:
    trace = make_trace("swim", num_nodes=16, num_snapshots=2000, seed=SEED)
    nodes = np.random.default_rng(SEED).permutation(16)
    seconds: dict = {}
    completed = True
    for name in ("rp", "pivotrepair", "fullrepair"):
        for mode, replan in (("static", None), ("adaptive", 3.0)):
            res = simulate_under_drift(
                get_algorithm(name), trace, replan_interval_s=replan,
                start_instant=int(trace.congested_instants()[300]),
                requester=int(nodes[9]), helpers=tuple(int(x) for x in nodes[1:9]),
                k=6, chunk_bytes=units.mib(1024),
            )
            completed &= res.completed
            seconds.setdefault(name, {})[mode] = res.seconds
    return Run({"every_repair_completed": completed}, {"seconds": seconds})


#: The watchdog matrix: a fault (the ``ClusterSystem`` call that injects
#: it and its arguments after the node) at half the clean repair, each
#: run timeout-only and with a ``DivergenceMonitor`` informing the watchdog.
WATCHDOG_FAULTS = {
    "clean": None,
    "hub_crash": ("fail_node",),
    "helper_straggler": ("set_rate_cap", 1.0),
    "requester_stall": ("stall_node", 10.0),
}
WATCHDOG_ARMS = ("timeout_only", "detector")
#: The drift rows' re-planning policies; ``detect`` re-plans on a
#: plan-divergence alarm, with a 15 s staleness bound (5x ``interval``).
DRIFT_POLICIES = {
    "never": {},
    "oracle": {"replan_interval_s": 1.0},
    "interval": {"replan_interval_s": 3.0},
    "detect": {"replan_on": "detect", "replan_interval_s": 15.0},
}


def _watchdog_run(fault: str, node: int, at_s: float, detector: bool,
                  build: dict) -> tuple[dict, float]:
    """One repair of the matrix and when its fault was mitigated: the first
    intervention, or without one, the end of the repair."""
    tracer, metrics = Tracer(), MetricsRegistry()
    system = _build_system(tracer=tracer, metrics=metrics, **build)
    if detector:
        system.divergence = DivergenceMonitor.standard(tracer=tracer, metrics=metrics)
        system.divergence.clock = lambda: system.events.now
    # heartbeats keep the master's bandwidth picture live, so a re-plan
    # after an abort can route around the fault
    system.enable_heartbeats(period_s=0.005)
    if WATCHDOG_FAULTS[fault]:
        method, *args = WATCHDOG_FAULTS[fault]
        system.events.schedule(at_s, lambda: getattr(system, method)(node, *args))
    outcome = system.repair("s1", 3, requester=15, store=False, on_failure="outcome")
    fires = [(ev.time, ev.name) for span in tracer.spans() for ev in span.events
             if ev.name in ("watchdog.fire", "detect.abort")]
    first = min(fires, key=lambda fire: fire[0]) if fires else None
    return {
        "status": outcome.status, "elapsed_s": outcome.elapsed_seconds,
        "retries": outcome.retries, "first_intervention": first[1] if first else "none",
        "detect_aborts": sum(name == "detect.abort" for _, name in fires),
    }, first[0] if first else outcome.elapsed_seconds


def _drift_run(trace: Trace, **kwargs):
    return simulate_under_drift(
        get_algorithm("fullrepair"), trace, start_instant=0, requester=9,
        helpers=tuple(range(6)), k=4, chunk_bytes=units.mib(4096), interval_s=1.0,
        **kwargs,
    )


def _detect(scale: dict) -> Run:
    build = dict(
        n=14, k=10, num_nodes=16, chunk_bytes=units.kib(64), failed_node=3, seed=SEED,
        snapshot=make_trace("tpcds", num_nodes=16, num_snapshots=60, seed=4).snapshot(30),
    )
    # an uninstrumented clean repair sizes the fault time and names the
    # plan's hub and a helper feeding the requester (node 15) directly
    clean = _build_system(**build).repair("s1", 3, requester=15, store=False)
    at_s = 0.5 * clean.elapsed_seconds
    nodes = {
        "clean": None, "hub_crash": _find_hub(clean.plan, 15),
        "helper_straggler": next(
            e.child for p in clean.plan.pipelines for e in p.edges if e.parent == 15
        ),
        "requester_stall": 15,
    }
    runs: dict = {}
    mitigation: dict = {}
    for fault, node in nodes.items():
        for arm in WATCHDOG_ARMS:
            row, mitigated_at = _watchdog_run(fault, node, at_s, arm == "detector", build)
            runs.setdefault(fault, {})[arm] = row
            if fault != "clean":
                mitigation.setdefault(fault, {})[arm] = mitigated_at - at_s
    mitigation["mean"] = {
        arm: statistics.fmean(row[arm] for row in mitigation.values())
        for arm in WATCHDOG_ARMS
    }

    trace = make_trace("swim", num_nodes=10, num_snapshots=400, seed=3)
    cases = {"drifting": {}, "dead_helper": {"dead_from": {2: 5.0}},
             "straggler": {"node_rate_caps": {2: 40.0}}}
    drift = {
        case: {policy: _drift_run(trace, stall_deadline_s=120.0, **faults, **knobs)
               for policy, knobs in DRIFT_POLICIES.items()}
        for case, faults in cases.items()
    }
    flat_mbps = np.full((400, 10), 400.0)
    flat = _drift_run(Trace(workload="flat", capacity_mbps=1000.0, uplink=flat_mbps,
                            downlink=flat_mbps), replan_on="detect")

    def by_policy(field: str) -> dict:
        return {case: {policy: getattr(r, field) for policy, r in row.items()}
                for case, row in drift.items()}

    return Run(
        {"fault_at_s": at_s, "watchdog": runs, "time_to_mitigation_s": mitigation},
        {"drift_s": by_policy("seconds"), "replans": by_policy("replans"),
         "completed": by_policy("completed"),
         "flat_trace": {"seconds": flat.seconds, "alarms": flat.alarms,
                        "replans": flat.replans}},
    )


FULLNODE_STRIPES = 10


def _fullnode_makespans(algorithms: tuple, strategies: tuple) -> dict:
    """Seconds to recover a failed node's 10 x 64 MiB chunks on 16 nodes."""
    trace = make_trace("tpcds", num_nodes=16, num_snapshots=600, seed=SEED)
    snap = trace.snapshot(int(trace.congested_instants()[0]))
    rng = np.random.default_rng(SEED)
    specs = []
    for i in range(FULLNODE_STRIPES):
        nodes = rng.permutation(16)
        specs.append(StripeRepairSpec(
            stripe_id=f"s{i}", requester=int(nodes[0]),
            helpers=tuple(int(x) for x in nodes[1:9]), chunk_bytes=units.mib(64),
        ))
    makespans: dict = {}
    for name in algorithms:
        for strategy in strategies:
            plan = plan_full_node_repair(
                specs, snap, k=6, algorithm=name, strategy=strategy
            )
            plan.validate()
            makespans.setdefault(name, {})[strategy] = plan.makespan_seconds
    return makespans


def _fullnode(scale: dict) -> Run:
    return Run({"makespan_s": _fullnode_makespans(
        ("pivotrepair", "fullrepair"), ("sequential", "batched")
    )})


def _heterogeneity(scale: dict) -> Run:
    points = analysis.heterogeneity_sweep(
        cv_targets=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5), samples_per_point=15, seed=SEED
    )
    rates = {f"{p.target_cv:.1f}": dict(p.rates) for p in points}
    return Run({
        "rate_mbps": rates,
        "fullrepair_over_rp": {
            cv: row["fullrepair"] / row["rp"] for cv, row in rates.items()
        },
    })


def _lifetime_schedulers(scale: dict) -> Run:
    """Each scheduler's batched full-node makespan, scaled from that 640 MiB
    node to a 10 TB one, as the mean of the per-chunk rebuild clock of one
    simulated year of a 16-disk fleet, on identical failure streams — the
    scheduler is the only thing that varies.  Rows in makespan order."""
    to_10tb = (10 * 1024**4) / (FULLNODE_STRIPES * units.mib(64))
    makespans = _fullnode_makespans(("rp", "pivotrepair", "fullrepair"), ("batched",))
    seconds = {name: row["batched"] * to_10tb for name, row in makespans.items()}
    rows = {}
    for name in sorted(seconds, key=seconds.get):
        mc = run_monte_carlo(LifetimeConfig(
            n=9, k=6, num_stripes=64, placement_groups=64, years=1.0, seed=SEED,
            dcs=1, racks_per_dc=1, machines_per_rack=16, disks_per_machine=1,
            spread_level="disk", repair="process",
            disk_process=ExponentialProcess(mttf_s=60 * 86_400.0, mttr_s=seconds[name]),
        ), trials=scale["lifetime_trials"], workers=1)
        rows[name] = {
            "rebuild_hours": seconds[name] / 3600.0,
            # share of simulated lifetimes with at least one data-loss event
            "p_loss": sum(1 for ev in mc.per_trial_loss_events if ev) / mc.trials,
            "loss_events": mc.loss_events,
            # mean stripe-hours per lifetime spent with a chunk missing
            "exposed_stripe_hours": float(mc.exposure_digest.sum) / 3600.0 / mc.trials,
        }
    return Run({"scheduler": rows})


def _racks(scale: dict) -> Run:
    fr, samples, rates = FullRepair(), 8, {}
    tree = DomainTree.uniform(racks_per_dc=3, machines_per_rack=4, disks_per_machine=1)
    for ratio in (1.0, 2.0, 4.0, 8.0):
        trunks = (4 * 1000.0 / ratio,) * tree.num_racks
        free = aware = scaled = 0.0
        for i in range(samples):
            rng = np.random.default_rng(SEED + i)
            snap = BandwidthSnapshot(
                uplink=rng.uniform(400, 1000, 12), downlink=rng.uniform(400, 1000, 12)
            )
            ids = rng.permutation(12)
            ctx = RepairContext(snapshot=snap, requester=int(ids[0]),
                                helpers=tuple(int(x) for x in ids[1:10]), k=6)
            free += lp_max_throughput(ctx)
            aware += lp_max_throughput(ctx, tree, trunks)
            scaled += fr.schedule(rack_scaled_context(ctx, tree, trunks)).total_rate
        rates[f"{ratio:g}:1"] = {
            "no_trunks": free / samples, "rack_aware_lp": aware / samples,
            "scaled_fullrepair": scaled / samples,
        }
    return Run({"rate_mbps": rates})


def _sensitivity(scale: dict) -> Run:
    points = analysis.sensitivity_sweep(seed=SEED, algorithm_kwargs=_ppt(scale))
    margin: dict = {}
    for p in points:
        row = margin.setdefault(f"{p.slice_overhead_s * 1e6:.0f} us", {})
        row[f"{p.compute_s_per_byte:g} s/B"] = p.fullrepair_margin
    return Run({
        "fullrepair_margin": margin, "grid_points": len(points),
        "ordering_holds_at": sum(p.ordering_holds for p in points),
    })


# ---- the table

_MAGNITUDES = (
    "Orderings match the paper; magnitudes are smaller because our tree and "
    "chain baselines are provably optimal rather than heuristic, and because "
    "per-slice protocol overhead (200 us per slice per hop, ~0.2 s of a ~1.1 s "
    "repair at 64 MiB / 64 KiB) compresses ratios.  That overhead, not pipeline "
    "fill, is FullRepair's whole gap to t_max: see `t_max_gap`."
)
_HOST_SWEEP = (
    "Each value is simulated transfer time plus that plan's measured calculation "
    "time (under 0.1 % of it), hence host-timed."
)
_GRID = "64 MiB chunk, 64 KiB slices, (n,k) in " + " ".join(
    f"({n},{k})" for n, k in CODES
)
BIG, SMALL = "(14,10)", "(6,4)"

CLAIMS: dict[str, Claim] = {c.id: c for c in (
    Claim(
        "table1", "Table I", "bandwidth-resource distribution by C_v bucket", _table1,
        {
            "some_cv_bucket_is_populated": lambda m: bool(m["share"]),
            "rp_utilisation_falls_from_most_even_to_most_uneven_bucket": lambda m: (
                len(m["share"]) < 2
                or list(m["share"].values())[0]["rp"]["selected_used"]
                > list(m["share"].values())[-1]["rp"]["selected_used"]
            ),
        },
        "(14,10), three workloads pooled, snapshots // 5 instants per workload",
        "PPT and PivotRepair select identical trees (the paper merges their rows), "
        "so PivotRepair stands for both; the FullRepair rows are not in the paper's "
        "table and show the head-room the design captures.",
        {"summary": "single-pipeline schemes use ~76.5 % of the available repair "
         "bandwidth at C_v < 0.1 with ~19 % idle on unselected nodes; utilisation "
         "collapses to 29-40 % at C_v in [0.4, 0.5) with ~50-60 % stranded on "
         "selected nodes"},
    ),
    Claim(
        "table2", "Table II", "Algorithm 1 on the Fig. 2 worked example",
        lambda scale: _worked_example()[0], _as_in_the_paper(TABLE2),
        "the paper's Fig. 2 bandwidths, (5,3)",
        "N3's uplink is adjusted 960 -> 900; downlinks are unchanged.", TABLE2,
    ),
    Claim(
        "table3", "Table III", "Algorithm 2 on the Fig. 2 worked example",
        lambda scale: _worked_example()[1], _as_in_the_paper(TABLE3),
        "the paper's Fig. 2 bandwidths, (5,3)",
        "Task 4 splits into 4a [400,600) (senders N2+N5) and 4b [600,900) (senders "
        "N4+N5): five pipelines; each segment lists its hub and senders.", TABLE3,
    ),
    Claim(
        "fig4", "Fig. 4", "overall single-chunk repair time (Experiment 1)", _fig4,
        {"fullrepair_overall_lowest_in_every_cell_within_2pct":
            _lowest("overall_s", 1.02)},
        _GRID,
        _MAGNITUDES + "  PPT's calculation time is budget-capped here, so the paper's "
        "62.93 % case (calculation-time driven) does not arise.  `overall_s` is "
        "`transfer_s` (simulated, exact) plus the planner's measured calculation time.",
        {"reduction_pct": {
            "rp": {"max": 45.4, "at": "(9,6)"},
            "ppt": {"max": 62.93, "at": "(14,10), PPT's calculation time"},
            "pivotrepair": {"max": 33.19, "at": "tpcds (14,10)"}},
         "summary": "FullRepair lowest for every workload and (n,k)"},
    ),
    Claim(
        "fig5", "Fig. 5", "scheduling calculation time (Experiment 2)", _fig5,
        {
            "ppt_slower_than_rp_at_14_10": _slower((BIG, "ppt"), (BIG, "rp")),
            "ppt_slower_than_fullrepair_at_14_10":
                _slower((BIG, "ppt"), (BIG, "fullrepair")),
            "rp_grows_from_6_4_to_14_10": _slower((BIG, "rp"), (SMALL, "rp")),
            "fullrepair_faster_than_rp_at_14_10":
                _slower((BIG, "rp"), (BIG, "fullrepair")),
        },
        "fixed uneven snapshot per (n,k); median of timing_rounds `schedule` calls; "
        f"PPT budget {SCALES['full']['ppt_budget']}",
        "Python, where the paper's implementations are C++: absolute values are "
        "inflated, orderings and growth are the claim, and every number is "
        "host-timed.  Every timed plan also passes `RepairPlan.validate()`.",
        {"summary": "PPT far above everything (brute-force emulation); RP grows "
         "17.75 us -> 12.7 ms from n=6 to n=14; PivotRepair and FullRepair flat at "
         "tens of us, FullRepair slightly the slower of the two"},
    ),
    Claim(
        "fig6", "Fig. 6", "data transfer time (Experiment 3)", _fig6,
        {
            "ppt_matches_pivotrepair_within_5pct": lambda m: all(
                abs(c["ppt"] - c["pivotrepair"]) <= 0.05 * c["pivotrepair"]
                for c in m["transfer_s"].values()
            ),
            "fullrepair_transfer_lowest_in_every_cell_within_1pct":
                _lowest("transfer_s", 1.01),
        },
        _GRID + f"; seed {SEED + 1}", _MAGNITUDES,
        {"reduction_pct": {
            "rp": {"max": 45.28, "at": "(9,6)"}, "ppt": {"max": 40.6, "at": "(9,6)"},
            "pivotrepair": {"max": 40.09, "at": "(9,6)"}},
         "summary": "RP longest everywhere; PPT ~ PivotRepair; FullRepair shortest"},
    ),
    Claim(
        "t_max_gap", "Figs. 4 / 6", "where FullRepair's gap to t_max goes",
        _t_max_gap,
        {
            "terms_sum_exactly_to_the_gap": lambda m: m["terms_sum_exactly"],
            "overhead_carries_95pct_of_the_mean_gap":
                lambda m: m["overhead_share_of_gap"] >= 0.95,
            "fill_plus_compute_within_1pct_of_T":
                lambda m: m["fill_plus_compute_max_share_of_T"] <= 0.01,
        },
        _GRID + "; FullRepair plans of `analysis.sample_contexts` per cell",
        "Not in the paper: each plan's simulated transfer time T against the ideal "
        "chunk / t_max, re-run with no per-slice overhead (T_o) and with neither "
        "overhead nor GF compute (T_oc).  Overhead is (T - T_o) / T, compute "
        "(T_o - T_oc) / T, and fill the remainder of the gap 1 - ideal / T, so "
        "the three sum to it exactly.  Every window of the repair-wide window "
        "count pays the overhead on every hop, so short pipelines pay as many "
        "of them as long ones.",
    ),
    Claim(
        "fig7", "Fig. 7", "impact of slice size (Experiment 4)", _fig7,
        {
            "strictly_decreasing_in_slice_size_through_256_kib":
                _stepwise("overall_s", lambda a, b: a > b, slice(0, 8)),
            "flat_tail_never_rises_more_than_2pct":
                _stepwise("overall_s", lambda a, b: b <= a * 1.02, slice(7, None)),
            "fullrepair_lowest_at_every_slice_size_within_1pct":
                _lowest("overall_s", 1.01),
        },
        "(6,4), 64 MiB chunk, fixed uneven snapshot, 1 ms per slice per hop",
        _HOST_SWEEP,
        {"summary": "repair time decreases as the slice grows from 2 KiB to "
         "1024 KiB for all methods; FullRepair lowest at every size"},
    ),
    Claim(
        "fig8", "Fig. 8", "impact of chunk size (Experiment 5)", _fig8,
        {
            "strictly_increasing_in_chunk_size":
                _stepwise("overall_s", lambda a, b: a < b),
            "grows_16x_within_25pct_over_the_16x_chunk_range": lambda m: all(
                abs(g - 16) <= 0.25 * 16 for g in m["last_over_first"].values()
            ),
            "fullrepair_lowest_at_every_chunk_size_within_1pct":
                _lowest("overall_s", 1.01),
        },
        "(6,4), 64 KiB slices, fixed uneven snapshot", _HOST_SWEEP,
        {"summary": "repair time grows linearly in chunk size (4 -> 64 MiB) for "
         "all methods; FullRepair's line lowest with the smallest slope"},
    ),
    Claim(
        "ablation_multi_vs_single", "Ablation 1",
        "multi-pipeline throughput gain over the best single tree", _ablation_multi,
        {
            "never_below_the_best_single_tree":
                lambda m: m["gain"]["min"] >= 1.0 - 1e-9,
            "mean_gain_above_1_1x": lambda m: m["gain"]["mean"] > 1.1,
        },
        "(14,10), 40 congested SWIM instants",
        "Not in the paper: how much of the gain comes from running many pipelines "
        "rather than picking the best single tree (PivotRepair) — the head-room "
        "Table I motivates.",
    ),
    Claim(
        "ablation_requester_task", "Ablation 2", "requester own-task contribution",
        _ablation_requester,
        {
            "some_instance_has_leftover_throughput":
                lambda m: m["instances_with_leftover"] > 0,
            "requester_pipeline_adds_throughput": lambda m: m["mean_gain"] > 1.0,
        },
        "10 nodes, k = 4, helper downlinks 30-220 Mbps, 60 instances",
        "Not in the paper: scheduling with `use_requester_task=False` where thin "
        "helper downlinks leave throughput over; every ablated plan validates.",
    ),
    Claim(
        "ablation_greedy_vs_flow", "Ablation 3", "greedy alone vs max-flow completion",
        _ablation_greedy,
        {"more_than_30_instances_schedulable": lambda m: m["instances"] > 30},
        "(14,10), 60 congested SWIM instants",
        "Not in the paper: the completion never changes t_max — it only finishes "
        "the sender fill the paper's pairwise task exchange would.",
    ),
    Claim(
        "drift", "Extension",
        "repair under bandwidth drift: one plan vs re-planning every 3 s", _drift,
        {
            "every_repair_completes": lambda m: m["every_repair_completed"],
            "replanning_never_loses_more_than_5pct": lambda m: all(
                row["adaptive"] <= row["static"] * 1.05 for row in m["seconds"].values()
            ),
            "fullrepair_with_replanning_is_fastest": lambda m: min(
                (t, name, mode)
                for name, row in m["seconds"].items()
                for mode, t in row.items()
            )[1:] == ("fullrepair", "adaptive"),
        },
        "1 GiB payload, SWIM trace, k = 6 of 8 helpers",
        "Re-planning is affordable because scheduling is us-ms (Fig. 5); its "
        "measured calculation time advances the simulated clock, hence host-timed.",
    ),
    Claim(
        "detect", "Extension",
        "divergence detection: watchdog early aborts and alarm-driven re-planning",
        _detect,
        {
            "detector_mitigates_sooner_than_timeout_only_on_mean": lambda m: (
                m["time_to_mitigation_s"]["mean"]["detector"]
                < m["time_to_mitigation_s"]["mean"]["timeout_only"]
            ),
            "zero_detector_aborts_on_clean":
                lambda m: m["watchdog"]["clean"]["detector"]["detect_aborts"] == 0,
            "no_missed_detection": lambda m: all(
                arms["detector"]["first_intervention"] != "none"
                for fault, arms in m["watchdog"].items() if fault != "clean"
            ),
            "detect_beats_never_on_every_drift_case": lambda m: all(
                row["detect"] < row["never"] for row in m["drift_s"].values()
            ),
            "zero_alarms_on_the_flat_trace": lambda m: m["flat_trace"]["alarms"] == 0,
        },
        "watchdog: (14,10), 16 nodes, 64 KiB chunk, each fault at half the clean "
        "repair; drift: FullRepair, k = 4 of 6 helpers, 4 GiB chunk, SWIM trace at "
        "1 s per instant, helper 2 dead from 5 s or capped at 40 Mbps, 120 s stall "
        "deadline",
        "The watchdog matrix is simulated time.  Time to mitigation is the first "
        "`watchdog.fire` or `detect.abort` after the fault, or the rest of the repair "
        "without one; the detector arm's lower mean is not a faster repair "
        "everywhere: on `helper_straggler` it completes later than timeout-only "
        "(0.0368 vs 0.0318 s), because its abort and re-plan cost more than letting "
        "the capped helper trickle on.  The drift rows are re-planning policies of "
        "the fluid drift model, with each plan's measured calculation time on the "
        "clock, hence host-timed.  `detect` beats `never` on every case (`never` "
        "on `dead_helper` stalls out), but it is slower than the fixed 3 s "
        "`interval` policy on all three (e.g. 65.5 vs 54.6 s, drifting): the claim "
        "is that detection beats never re-planning, not that it beats a fixed period.",
    ),
    Claim(
        "fullnode", "Extension", "full-node repair, sequential vs batched", _fullnode,
        {
            "batching_never_slower": lambda m: all(
                row["batched"] <= row["sequential"] * 1.001
                for row in m["makespan_s"].values()
            ),
            "fullrepair_is_the_fastest_configuration": lambda m: min(
                (t, name) for name, row in m["makespan_s"].items() for t in row.values()
            )[1] == "fullrepair",
        },
        f"{FULLNODE_STRIPES} x 64 MiB chunks, 16 nodes, k = 6, one congested instant",
        "Every full-node plan validates.",
    ),
    Claim(
        "heterogeneity", "Extension", "repair throughput at exactly controlled C_v",
        _heterogeneity,
        {
            "single_pipeline_degrades_with_cv":
                lambda m: m["rate_mbps"]["0.0"]["rp"] > m["rate_mbps"]["0.5"]["rp"],
            "multi_pipeline_gap_widens_with_cv": lambda m: (
                max(list(m["fullrepair_over_rp"].values())[2:])
                > m["fullrepair_over_rp"]["0.0"]
            ),
            "advantage_exceeds_20pct_somewhere":
                lambda m: max(m["fullrepair_over_rp"].values()) > 1.2,
        },
        "(14,10), 16 nodes, 15 role assignments per C_v",
        "The throughput side of Table I's utilisation collapse; where the ratio "
        "peaks depends on where the requester's downlink lands.",
    ),
    Claim(
        "lifetime_schedulers", "Extension", "what a faster scheduler buys in nines",
        _lifetime_schedulers,
        {
            "fullrepair_has_the_shortest_makespan":
                lambda m: next(iter(m["scheduler"])) == "fullrepair",
            "exposure_tracks_repair_speed_within_2pct": lambda m: all(
                a <= b * 1.02 for a, b in _by_makespan(m, "exposed_stripe_hours")
            ),
            "loss_probability_monotone_within_0_05": lambda m: all(
                a <= b + 0.05 for a, b in _by_makespan(m, "p_loss")
            ),
            "fullrepair_loses_data_less_often_than_rp": lambda m: (
                m["scheduler"]["fullrepair"]["p_loss"] < m["scheduler"]["rp"]["p_loss"]
            ),
            "fullrepair_less_exposed_than_rp": lambda m: (
                m["scheduler"]["fullrepair"]["exposed_stripe_hours"]
                < m["scheduler"]["rp"]["exposed_stripe_hours"]
            ),
        },
        "full-node makespans scaled to a 10 TB node; 16 disks, (9,6), 64 stripes, "
        "60-day MTTF, one-year lifetimes, `repair=\"process\"`",
        "The accelerated MTTF keeps loss counts off zero; loss probability scales "
        "with repair window : MTTF, so the relative comparison carries to realistic "
        "MTTFs.  Rows are in makespan order; the slack is because a lost group "
        "stops accruing exposure.",
    ),
    Claim(
        "racks", "Extension", "repair throughput under rack oversubscription", _racks,
        {
            "scaled_le_rack_aware_le_unconstrained": lambda m: all(
                row["scaled_fullrepair"] <= row["rack_aware_lp"] + 1e-6
                and row["rack_aware_lp"] + 1e-6 <= row["no_trunks"] + 1e-5
                for row in m["rate_mbps"].values()
            ),
            "rack_aware_keeps_85pct_at_2_to_1": lambda m: (
                m["rate_mbps"]["2:1"]["rack_aware_lp"]
                > 0.85 * m["rate_mbps"]["2:1"]["no_trunks"]
            ),
            "scaling_pays_at_least_25pct_at_2_to_1": lambda m: (
                m["rate_mbps"]["2:1"]["scaled_fullrepair"]
                < 0.75 * m["rate_mbps"]["2:1"]["rack_aware_lp"]
            ),
        },
        "12 nodes in racks of 4, k = 6 of 9 helpers, 8 contexts per ratio",
        "The rack-aware LP routes through same-rack hubs; the conservative per-node "
        "scaling a rack-oblivious scheduler needs pays the full ratio — the "
        "head-room of a rack-aware FullRepair variant (future work).",
    ),
    Claim(
        "sensitivity", "Extension", "robustness to the execution-model constants",
        _sensitivity,
        {
            "ordering_holds_at_every_grid_point":
                lambda m: m["ordering_holds_at"] == m["grid_points"],
            "fullrepair_margin_above_1_everywhere": lambda m: min(
                v for row in m["fullrepair_margin"].values() for v in row.values()
            ) > 1.0,
        },
        "(6,4), 64 MiB chunk; per-slice overhead x per-byte GF cost grid",
        "Ordering = FullRepair fastest, RP slowest.  Overheads, paid equally by "
        "all schemes, compress ratios — the same effect seen in Figs. 4 / 6.",
    ),
)}


# ---- records, comparison, document


def evaluate(claim: Claim, run: Run) -> dict[str, bool]:
    """Every predicate's verdict on one measurement."""
    values = {**run.measured, **run.host}
    return {name: bool(holds(values)) for name, holds in claim.predicates.items()}


def record(claim: Claim, run: Run) -> dict:
    """The JSON form of one claim: the table's text beside one measurement."""
    rec = {
        "id": claim.id, "artefact": claim.artefact, "title": claim.title,
        "inputs": claim.inputs, "paper": claim.paper, "measured": run.measured,
        "host": run.host, "predicates": evaluate(claim, run), "note": claim.note,
    }
    return json.loads(json.dumps(rec))  # as --check will read it back


def differences(committed, fresh, path: str) -> list[str]:
    """Where a committed record and a fresh one differ: numbers by more
    than :data:`REL_TOL`, anything else at all — under ``host``, only keys."""
    if isinstance(committed, dict) and isinstance(fresh, dict):
        if list(committed) != list(fresh):
            return [f"{path}: keys {list(committed)} became {list(fresh)}"]
        return [d for key in committed
                for d in differences(committed[key], fresh[key], f"{path}.{key}")]
    if ".host." in path:
        return []
    if isinstance(committed, float) and isinstance(fresh, float):
        same = abs(committed - fresh) <= REL_TOL * max(abs(committed), abs(fresh))
    else:
        same = committed == fresh
    return [] if same else [f"{path}: committed {committed!r}, now {fresh!r}"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"
    return "; ".join(map(_fmt, value)) if isinstance(value, list) else str(value)


def _rows(value: dict, path: tuple = ()):
    """Flatten nested dicts to ``(row label, {column: scalar})`` pairs."""
    if any(isinstance(v, dict) for v in value.values()):
        for key, sub in value.items():
            yield from _rows(sub, path + (key,))
    else:
        yield " ".join(path), value


def _markdown(name: str, value, paper=None) -> list[str]:
    """One measured quantity, the paper's value beside it where it has one."""
    if not isinstance(value, dict):
        beside = "" if paper is None else f" (paper: {_fmt(paper)})"
        return [f"- `{name}`: {_fmt(value)}{beside}"]
    rows = list(_rows(value))
    if paper is not None:
        rows = [(f"{label} measured".strip(), row) for label, row in rows]
        rows += [(f"{label} paper".strip(), row) for label, row in _rows(paper)]
    columns = list(dict.fromkeys(c for _, row in rows for c in row))
    lines = ["", " | ".join(["", f"`{name}`", *columns, ""]).strip(),
             "|---" * (len(columns) + 1) + "|"]
    for label, row in rows:
        cells = [_fmt(row[c]) if c in row else "" for c in columns]
        lines.append(" | ".join(["", label, *cells, ""]).strip())
    return lines + [""]


def render_record(rec: dict) -> str:
    """One artefact's section of EXPERIMENTS.md, from its JSON record alone."""
    lines = [f"## {rec['artefact']} — {rec['title']} (`{rec['id']}`)", ""]
    if "summary" in rec["paper"]:
        lines += [f"**Paper:** {rec['paper']['summary']}.", ""]
    lines += [f"**Inputs:** {rec['inputs']}.", ""]
    for kind, heading in (("measured", "Measured"), ("host", "Host-timed")):
        if rec[kind]:
            lines.append(f"**{heading}:**")
            for name, value in rec[kind].items():
                lines += _markdown(name, value, rec["paper"].get(name))
            lines.append("")
    lines.append("**Claim:**")
    lines += [f"- [{'x' if ok else ' '}] {name.replace('_', ' ')}"
              for name, ok in rec["predicates"].items()]
    lines += ["", rec["note"]]
    return "\n".join(lines).replace("\n\n\n", "\n\n") + "\n"


def render_document(doc: dict) -> str:
    """The generated block of EXPERIMENTS.md (markers included)."""
    scale = "; ".join(f"{k} {v}" for k, v in doc["scale"].items())
    sections = [render_record(rec) for rec in doc["claims"]]
    head = f"Seed {doc['seed']}; scale: {scale}."
    return "\n".join([BEGIN, "", head, "", *sections, END])


def splice(text: str, block: str) -> str:
    """``text`` with everything from marker to marker replaced by ``block``."""
    head, begin, rest = text.partition(BEGIN)
    _, end, tail = rest.partition(END)
    if not (begin and end):
        raise ValueError(f"{DOC_PATH.name} has lost its reproduction markers")
    return head + block + tail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="fail unless REPRODUCTION.json is reproduced")
    mode.add_argument("--write", action="store_true",
                      help="store the run in REPRODUCTION.json and EXPERIMENTS.md")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("claims", nargs="*", metavar="CLAIM",
                        help=f"default: all of {' '.join(CLAIMS)}")
    args = parser.parse_args(argv)
    if unknown := [c for c in args.claims if c not in CLAIMS]:
        parser.error(f"unknown claim(s) {unknown}; choose from {' '.join(CLAIMS)}")
    reduced = bool(args.claims) or args.scale != "full"
    if args.write and reduced or args.check and args.scale != "full":
        parser.error("REPRODUCTION.json holds every claim at the full scale")

    scale = {"name": args.scale, **SCALES[args.scale]}
    doc = {"seed": SEED, "scale": scale, "claims": []}
    problems = []
    for claim_id in args.claims or CLAIMS:
        rec = record(CLAIMS[claim_id], CLAIMS[claim_id].run(SCALES[args.scale]))
        doc["claims"].append(rec)
        print(render_record(rec))
        problems += [f"{claim_id}: predicate {name} is false"
                     for name, ok in rec["predicates"].items() if not ok]
    if args.check:
        committed = json.loads(JSON_PATH.read_text())
        by_id = {rec["id"]: rec for rec in committed["claims"]}
        problems += differences(committed["scale"], doc["scale"], "scale")
        for rec in doc["claims"]:
            problems += differences(by_id.get(rec["id"], {}), rec, rec["id"])
    if args.write and not problems:
        JSON_PATH.write_text(json.dumps(doc, indent=1) + "\n")
        DOC_PATH.write_text(splice(DOC_PATH.read_text(), render_document(doc)))
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
