"""Experiment runners shared by the benchmark harness and examples.

Each paper artefact (Tables I-III, Figures 4-8) has a runner here that
produces plain data structures; :mod:`repro.analysis.reporting` renders
them in the paper's layout.  Runners are deterministic under their seed.

Scale note: the paper samples 100 congested bandwidth sets per workload
and averages; these runners default to smaller sample counts so the whole
harness finishes in minutes under Python — pass ``num_samples``/
``num_snapshots`` to match the paper's scale exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..net import units
from ..net.bandwidth import BandwidthSnapshot, RepairContext
from ..repair.base import get_algorithm
from ..sim.transfer import TransferParams, execute
from ..workloads import Trace, bucket_index, make_trace
from .utilization import UtilizationBreakdown, mean_breakdown, plan_utilization

#: The paper's four RS parameterisations (§V-B).
PAPER_CODES: tuple[tuple[int, int], ...] = ((6, 4), (9, 6), (12, 8), (14, 10))

#: Algorithms compared in Experiments 1-3.
PAPER_ALGORITHMS: tuple[str, ...] = ("rp", "ppt", "pivotrepair", "fullrepair")

#: 64 MiB chunks (§V-B, following GFS).
DEFAULT_CHUNK_BYTES = 64 * units.MIB
DEFAULT_SLICE_BYTES = 64 * units.KIB


@dataclass(frozen=True)
class RepairTiming:
    """One algorithm's timing on one repair instance (seconds)."""

    calc: float
    transfer: float

    @property
    def overall(self) -> float:
        return self.calc + self.transfer


@dataclass
class ComparisonResult:
    """Experiment 1-3 data: per-algorithm timings over sampled instances."""

    workload: str
    n: int
    k: int
    timings: dict[str, list[RepairTiming]] = field(default_factory=dict)

    def mean_overall(self, name: str) -> float:
        return float(np.mean([t.overall for t in self.timings[name]]))

    def mean_calc(self, name: str) -> float:
        return float(np.mean([t.calc for t in self.timings[name]]))

    def mean_transfer(self, name: str) -> float:
        return float(np.mean([t.transfer for t in self.timings[name]]))

    def reduction_vs(self, name: str, baseline: str, metric: str = "overall") -> float:
        """Fractional reduction of ``name`` vs ``baseline`` (paper's %s)."""
        getter = {
            "overall": self.mean_overall,
            "calc": self.mean_calc,
            "transfer": self.mean_transfer,
        }[metric]
        base = getter(baseline)
        if base <= 0:
            raise ValueError(f"baseline {baseline} has non-positive {metric}")
        return 1.0 - getter(name) / base


def sample_contexts(
    trace: Trace,
    n: int,
    k: int,
    num_samples: int,
    *,
    seed: int = 0,
) -> list[RepairContext]:
    """Draw repair instances from a trace.

    Each instance places a stripe on ``n`` random nodes, fails one of
    them, and picks the requester among the remaining nodes (the
    replacement node rebuilding the chunk); the other ``n - 1`` stripe
    nodes are the helper candidates.  Only instants with at least one
    congested node are sampled, matching §V-B.
    """
    if trace.num_nodes < n + 1:
        raise ValueError(
            f"trace has {trace.num_nodes} nodes; need at least n+1={n + 1}"
        )
    rng = np.random.default_rng(seed)
    instants = trace.congested_instants().tolist()
    if not instants:
        raise ValueError("trace has no congested instants to sample")
    count, num_nodes = len(instants), trace.num_nodes
    contexts = []
    for _ in range(num_samples):
        # the draw ``rng.choice(instants)`` makes, without its overhead
        t = instants[rng.integers(count)]
        # nodes[0] fails; the other stripe nodes help; nodes[n] rebuilds
        nodes = rng.permutation(num_nodes).tolist()
        helpers = tuple(nodes[1:n])
        contexts.append(
            RepairContext(
                snapshot=trace.snapshot(t),
                requester=nodes[n],
                helpers=helpers,
                k=k,
                chunk_index=dict(zip(helpers, range(1, n))),
            )
        )
    return contexts


def compare_algorithms(
    contexts: list[RepairContext],
    *,
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS,
    params: TransferParams | None = None,
    algorithm_kwargs: dict[str, dict] | None = None,
) -> dict[str, list[RepairTiming]]:
    """Schedule + execute every algorithm on every context."""
    params = params or TransferParams(
        chunk_bytes=DEFAULT_CHUNK_BYTES, slice_bytes=DEFAULT_SLICE_BYTES
    )
    kwargs = algorithm_kwargs or {}
    algos = {name: get_algorithm(name, **kwargs.get(name, {})) for name in algorithms}
    out: dict[str, list[RepairTiming]] = {name: [] for name in algorithms}
    for ctx in contexts:
        for name, algo in algos.items():
            plan = algo.plan(ctx)
            result = execute(plan, params)
            out[name].append(
                RepairTiming(calc=plan.calc_seconds, transfer=result.transfer_seconds)
            )
    return out


def repair_time_experiment(
    *,
    workload: str,
    n: int,
    k: int,
    num_samples: int = 20,
    num_snapshots: int = 2000,
    seed: int = 0,
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS,
    params: TransferParams | None = None,
    algorithm_kwargs: dict[str, dict] | None = None,
) -> ComparisonResult:
    """Experiments 1-3 core: one (workload, n, k) cell of Figs. 4-6."""
    trace = make_trace(
        workload, num_nodes=max(16, n + 1), num_snapshots=num_snapshots, seed=seed
    )
    contexts = sample_contexts(trace, n, k, num_samples, seed=seed + 1)
    timings = compare_algorithms(
        contexts,
        algorithms=algorithms,
        params=params,
        algorithm_kwargs=algorithm_kwargs,
    )
    return ComparisonResult(workload=workload, n=n, k=k, timings=timings)


# --------------------------------------------------------------------- #
# Table I                                                               #
# --------------------------------------------------------------------- #


@dataclass
class UtilizationTable:
    """Table I data: bucket -> algorithm -> mean breakdown (+ counts)."""

    cells: dict[int, dict[str, UtilizationBreakdown]]
    counts: dict[int, int]


def utilization_experiment(
    *,
    workloads: tuple[str, ...] = ("tpcds", "tpch", "swim"),
    n: int = 14,
    k: int = 10,
    num_snapshots: int = 2000,
    samples_per_workload: int = 600,
    seed: int = 0,
    algorithms: tuple[str, ...] = ("rp", "pivotrepair", "fullrepair"),
    algorithm_kwargs: dict[str, dict] | None = None,
) -> UtilizationTable:
    """Reproduce Table I: bandwidth-resource distribution by C_v bucket.

    PPT and PivotRepair select identical trees (the paper merges their
    rows), so the default algorithm set runs PivotRepair for both;
    FullRepair is added to quantify the multi-pipeline utilisation gain
    the paper motivates.
    """
    kwargs = algorithm_kwargs or {}
    algos = {name: get_algorithm(name, **kwargs.get(name, {})) for name in algorithms}
    rng = np.random.default_rng(seed)
    per_bucket: dict[int, dict[str, list[UtilizationBreakdown]]] = {}
    counts: dict[int, int] = {}
    for w, workload in enumerate(workloads):
        trace = make_trace(
            workload, num_nodes=max(16, n + 1), num_snapshots=num_snapshots,
            seed=seed + w,
        )
        instants = rng.choice(
            len(trace), size=min(samples_per_workload, len(trace)), replace=False
        )
        for t in instants.tolist():
            snap = trace.snapshot(t)
            cv = snap.cv(direction="mean")
            bucket = bucket_index(cv)
            if bucket is None:
                continue
            nodes = rng.permutation(trace.num_nodes).tolist()
            ctx = RepairContext(
                snapshot=snap, requester=nodes[n], helpers=tuple(nodes[1:n]), k=k
            )
            for name, algo in algos.items():
                try:
                    plan = algo.schedule(ctx)
                except ValueError:
                    continue  # dead links can defeat single-pipeline schemes
                bkd = plan_utilization(plan)
                per_bucket.setdefault(bucket, {}).setdefault(name, []).append(bkd)
            counts[bucket] = counts.get(bucket, 0) + 1
    cells = {
        b: {name: mean_breakdown(lst) for name, lst in algs.items() if lst}
        for b, algs in per_bucket.items()
    }
    return UtilizationTable(cells=cells, counts=counts)


# --------------------------------------------------------------------- #
# Experiments 4 and 5 (Figs. 7-8)                                       #
# --------------------------------------------------------------------- #


def fixed_uneven_snapshot(
    num_nodes: int = 16, *, capacity: float = 1000.0, seed: int = 11
) -> BandwidthSnapshot:
    """A deterministic uneven snapshot for the fixed-bandwidth sweeps.

    Follows the paper's Fig.-2 pattern scaled out: most nodes have
    moderate uplinks but congested downlinks (foreground ingest), a
    quarter are uncongested relays with fat downlinks, and node 0 keeps
    full capacity.  Single-pipeline schemes bottleneck on the congested
    downlinks while the aggregate uplink pool stays rich — the regime
    Experiments 4-5 probe at fixed bandwidth.
    """
    rng = np.random.default_rng(seed)
    up = rng.uniform(0.55, 0.75, num_nodes) * capacity
    down = rng.uniform(0.25, 0.35, num_nodes) * capacity
    relays = np.arange(num_nodes) % 4 == 1
    up[relays] = rng.uniform(0.85, 1.0, relays.sum()) * capacity
    down[relays] = rng.uniform(0.9, 1.0, relays.sum()) * capacity
    up[0] = capacity
    down[0] = capacity
    return BandwidthSnapshot(uplink=up, downlink=down)


def make_fixed_context(
    n: int, k: int, *, num_nodes: int = 16, seed: int = 11
) -> RepairContext:
    """Repair context over the fixed uneven snapshot.

    Node 0 (the full-capacity node, like Fig. 2's R) requests; the failed
    chunk lived on node n, and nodes 1..n-1 hold the surviving chunks.
    """
    snap = fixed_uneven_snapshot(num_nodes, seed=seed)
    return RepairContext(
        snapshot=snap,
        requester=0,
        helpers=tuple(range(1, n)),
        k=k,
    )


def slice_size_sweep(
    *,
    slice_sizes_bytes: tuple[int, ...] = tuple(
        2**i * units.KIB for i in range(1, 11)
    ),
    n: int = 6,
    k: int = 4,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    slice_overhead_s: float = 1e-3,
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS,
    seed: int = 11,
    algorithm_kwargs: dict[str, dict] | None = None,
) -> dict[str, dict[int, float]]:
    """Experiment 4: repair time vs slice size (2 KiB .. 1024 KiB).

    Returns algorithm -> {slice_bytes: overall seconds}.  Plans are
    computed once per algorithm (the schedule is slice-size independent);
    only the execution is swept.  The per-slice overhead defaults to 1 ms
    — the request/acknowledge protocol round the slice size amortises,
    which is the effect Experiment 4 isolates.
    """
    ctx = make_fixed_context(n, k, seed=seed)
    kwargs = algorithm_kwargs or {}
    out: dict[str, dict[int, float]] = {}
    for name in algorithms:
        plan = get_algorithm(name, **kwargs.get(name, {})).plan(ctx)
        series = {}
        for sb in slice_sizes_bytes:
            params = TransferParams(
                chunk_bytes=chunk_bytes,
                slice_bytes=sb,
                slice_overhead_s=slice_overhead_s,
            )
            series[sb] = plan.calc_seconds + execute(plan, params).transfer_seconds
        out[name] = series
    return out


def chunk_size_sweep(
    *,
    chunk_sizes_bytes: tuple[int, ...] = tuple(
        units.mib(m) for m in (4, 8, 16, 32, 64)
    ),
    n: int = 6,
    k: int = 4,
    slice_bytes: int = DEFAULT_SLICE_BYTES,
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS,
    seed: int = 11,
    algorithm_kwargs: dict[str, dict] | None = None,
) -> dict[str, dict[int, float]]:
    """Experiment 5: repair time vs chunk size (4 MiB .. 64 MiB)."""
    ctx = make_fixed_context(n, k, seed=seed)
    kwargs = algorithm_kwargs or {}
    out: dict[str, dict[int, float]] = {}
    for name in algorithms:
        plan = get_algorithm(name, **kwargs.get(name, {})).plan(ctx)
        series = {}
        for cb in chunk_sizes_bytes:
            params = TransferParams(chunk_bytes=cb, slice_bytes=slice_bytes)
            series[cb] = plan.calc_seconds + execute(plan, params).transfer_seconds
        out[name] = series
    return out
