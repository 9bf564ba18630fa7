"""Full-node repair: scheduling many single-chunk repairs together.

The paper optimises one chunk's repair; when a whole node dies, every
stripe it held needs one (§VI discusses RepairBoost for this regime).
This module extends FullRepair to the full-node problem by packing
single-chunk repair plans into *concurrent batches* under the cluster's
shared bandwidth:

* plans inside a batch are computed against the **residual** bandwidth
  left by the batch's earlier plans, so their simultaneous execution is
  feasible by construction (validated);
* a stripe joins a batch only while its residual-bandwidth throughput
  stays above ``min_rate_fraction`` of its solo throughput (prevents
  starving a late stripe with crumbs);
* batches run sequentially; the makespan estimate is the sum of batch
  makespans, each the slowest member's transfer time.

Strategies::

    "sequential"  one stripe at a time, full bandwidth each (batch=1)
    "batched"     greedy batches under the starvation threshold (default)

The planner is algorithm-agnostic: packing PivotRepair or RP plans shows
how much worse single-pipeline schemes parallelise across stripes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..net.bandwidth import BandwidthSnapshot, RepairContext
from ..net.flows import check_node_capacity
from ..repair.base import get_algorithm
from ..repair.plan import RepairPlan, planned_usage
from ..sim.transfer import TransferParams, execute


@dataclass(frozen=True)
class StripeRepairSpec:
    """One failed chunk to rebuild.

    ``helpers`` are the stripe's surviving nodes; ``requester`` is where
    the chunk is rebuilt; ``chunk_bytes`` its size.
    """

    stripe_id: str
    requester: int
    helpers: tuple[int, ...]
    chunk_bytes: int

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")


@dataclass
class FullNodeRepairPlan:
    """Output of the full-node planner."""

    plans: dict[str, RepairPlan]
    batches: list[list[str]]
    batch_seconds: list[float]
    strategy: str

    @property
    def makespan_seconds(self) -> float:
        return float(sum(self.batch_seconds))

    def validate(self) -> None:
        """Each batch's plans must be *simultaneously* feasible."""
        for batch in self.batches:
            if not batch:
                raise ValueError("empty batch")
            snapshot = self.plans[batch[0]].context.snapshot
            up, down = planned_usage(snapshot, [self.plans[sid] for sid in batch])
            check_node_capacity(snapshot, up, down)


def _residual_snapshot(
    snapshot: BandwidthSnapshot, plans: list[RepairPlan]
) -> BandwidthSnapshot:
    """Snapshot minus the bandwidth the given plans consume."""
    up, down = planned_usage(snapshot, plans)
    return BandwidthSnapshot(
        uplink=np.maximum(snapshot.uplink - up, 0.0),
        downlink=np.maximum(snapshot.downlink - down, 0.0),
    )


def plan_full_node_repair(
    specs: list[StripeRepairSpec],
    snapshot: BandwidthSnapshot,
    k: int,
    *,
    algorithm: str = "fullrepair",
    strategy: str = "batched",
    min_rate_fraction: float = 0.35,
) -> FullNodeRepairPlan:
    """Pack the given chunk repairs into concurrent batches.

    Parameters
    ----------
    specs:
        The failed chunks (typically one per stripe of the dead node).
    snapshot:
        Cluster bandwidth available for the whole repair session.
    k:
        The code's k (shared by all stripes).
    strategy:
        ``"sequential"`` or ``"batched"`` (see module docstring).
    min_rate_fraction:
        Batched mode: a stripe only joins the current batch if its
        residual-bandwidth throughput is at least this fraction of what
        it would get alone.
    """
    if strategy not in ("sequential", "batched"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if not specs:
        raise ValueError("no stripes to repair")
    make_plan = get_algorithm(algorithm).plan

    # largest chunks first: they dominate batch makespans, so packing
    # them early lets small repairs ride along in the same batches
    pending = sorted(specs, key=lambda s: (-s.chunk_bytes, s.stripe_id))
    plans: dict[str, RepairPlan] = {}
    batches: list[list[str]] = []
    batch_seconds: list[float] = []

    solo_rate: dict[str, float] = {}
    for spec in pending:
        ctx = RepairContext(
            snapshot=snapshot, requester=spec.requester, helpers=spec.helpers, k=k
        )
        solo_rate[spec.stripe_id] = make_plan(ctx).total_rate

    while pending:
        batch: list[str] = []
        batch_plans: list[RepairPlan] = []
        leftovers: list[StripeRepairSpec] = []
        for spec in pending:
            if strategy == "sequential" and batch:
                leftovers.append(spec)
                continue
            residual = _residual_snapshot(snapshot, batch_plans)
            try:
                ctx = RepairContext(
                    snapshot=residual,
                    requester=spec.requester,
                    helpers=spec.helpers,
                    k=k,
                )
                plan = make_plan(ctx)
            except (ValueError, RuntimeError):
                leftovers.append(spec)
                continue
            if (
                batch
                and plan.total_rate < min_rate_fraction * solo_rate[spec.stripe_id]
            ):
                leftovers.append(spec)
                continue
            plans[spec.stripe_id] = plan
            batch.append(spec.stripe_id)
            batch_plans.append(plan)
        if not batch:
            raise RuntimeError(
                "no stripe is repairable under the current bandwidth: "
                f"{[s.stripe_id for s in pending]}"
            )
        spec_of = {s.stripe_id: s for s in specs}
        # makespans are estimated at 64 KiB slices with standard overheads
        batch_seconds.append(
            max(
                execute(
                    plans[sid], TransferParams(chunk_bytes=spec_of[sid].chunk_bytes)
                ).transfer_seconds
                for sid in batch
            )
        )
        batches.append(batch)
        pending = leftovers

    result = FullNodeRepairPlan(
        plans=plans, batches=batches, batch_seconds=batch_seconds,
        strategy=strategy,
    )
    result.validate()
    return result
