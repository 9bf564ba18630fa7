"""Controlled network-unevenness sweep: throughput vs C_v.

Table I shows the single-pipeline schemes' bandwidth *utilisation*
collapsing as C_v grows; this module sweeps the other side of that coin —
the achievable repair *throughput* — under bandwidth vectors with an
exactly controlled coefficient of variation, isolating unevenness from
every other trace property.

Snapshots are synthesised by a mean-preserving spread: starting from a
uniform vector at ``mean_mbps``, node bandwidths are pushed apart with a
deterministic alternating pattern scaled to hit the target C_v, then
clipped to a physical range (clipping slightly dampens extreme targets;
the achieved C_v is reported alongside).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..net.bandwidth import BandwidthSnapshot, RepairContext
from ..repair.base import get_algorithm
from ..workloads.cv import coefficient_of_variation


def controlled_cv_snapshot(
    num_nodes: int,
    target_cv: float,
    *,
    mean_mbps: float = 500.0,
    capacity_mbps: float = 1000.0,
    seed: int = 0,
) -> BandwidthSnapshot:
    """A snapshot whose per-node mean bandwidth has ~``target_cv``.

    Raises ``ValueError`` for negative targets; targets beyond what the
    [small floor, capacity] range permits are clipped (check with
    :func:`achieved_cv`).
    """
    if target_cv < 0:
        raise ValueError("target_cv must be non-negative")
    rng = np.random.default_rng(seed)
    base = np.full(num_nodes, mean_mbps)
    # deterministic alternating spread direction + random magnitude shape
    direction = np.where(np.arange(num_nodes) % 2 == 0, 1.0, -1.0)
    shape = rng.uniform(0.6, 1.4, num_nodes)
    spread = direction * shape
    spread -= spread.mean()  # mean-preserving
    denom = np.std(spread)
    if denom > 0 and target_cv > 0:
        spread *= (target_cv * mean_mbps) / denom
    else:
        spread[:] = 0.0
    values = np.clip(base + spread, 10.0, capacity_mbps)
    jitter = rng.uniform(0.97, 1.03, (2, num_nodes))
    return BandwidthSnapshot(
        uplink=np.clip(values * jitter[0], 10.0, capacity_mbps),
        downlink=np.clip(values * jitter[1], 10.0, capacity_mbps),
    )


def achieved_cv(snapshot: BandwidthSnapshot) -> float:
    """C_v of the snapshot's per-node mean bandwidth."""
    return coefficient_of_variation((snapshot.uplink + snapshot.downlink) / 2.0)


@dataclass
class HeterogeneityPoint:
    """One sweep point: throughputs at one unevenness level."""

    target_cv: float
    achieved_cv: float
    rates: dict[str, float]


def heterogeneity_sweep(
    *,
    cv_targets: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    num_nodes: int = 16,
    n: int = 14,
    k: int = 10,
    algorithms: tuple[str, ...] = ("rp", "pivotrepair", "fullrepair"),
    samples_per_point: int = 10,
    seed: int = 0,
    algorithm_kwargs: dict[str, dict] | None = None,
) -> list[HeterogeneityPoint]:
    """Mean repair throughput of each algorithm per target C_v.

    Each point averages ``samples_per_point`` random role assignments
    over freshly synthesised snapshots at that unevenness.
    """
    kwargs = algorithm_kwargs or {}
    algos = {a: get_algorithm(a, **kwargs.get(a, {})) for a in algorithms}
    rng = np.random.default_rng(seed)
    points: list[HeterogeneityPoint] = []
    for target in cv_targets:
        sums = {a: 0.0 for a in algorithms}
        counts = {a: 0 for a in algorithms}
        achieved = []
        for s in range(samples_per_point):
            snap = controlled_cv_snapshot(
                num_nodes, target, seed=seed * 1000 + s
            )
            achieved.append(achieved_cv(snap))
            nodes = rng.permutation(num_nodes)
            ctx = RepairContext(
                snapshot=snap,
                requester=int(nodes[n]),
                helpers=tuple(int(x) for x in nodes[1:n]),
                k=k,
            )
            for a, algo in algos.items():
                try:
                    sums[a] += algo.schedule(ctx).total_rate
                    counts[a] += 1
                except ValueError:
                    continue
        points.append(
            HeterogeneityPoint(
                target_cv=target,
                achieved_cv=float(np.mean(achieved)),
                rates={
                    a: (sums[a] / counts[a]) if counts[a] else 0.0
                    for a in algorithms
                },
            )
        )
    return points
