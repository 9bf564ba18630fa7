"""Repair-plan representation shared by every algorithm.

A :class:`RepairPlan` is a set of :class:`Pipeline` objects.  Each pipeline
repairs one contiguous *fraction* of the failed chunk (its ``segment``,
expressed in normalised ``[0, 1)`` chunk units) through a tree of transfer
edges rooted at the requester:

* data flows child -> parent along every edge;
* every edge carries exactly the pipeline's segment worth of bytes — a GF
  partial combination is the same size as the raw slice (paper §II-B), so
  relays do not inflate traffic;
* every helper participating in a pipeline contributes its own chunk's
  slice range, hence a pipeline must contain exactly ``k`` distinct
  helpers (the MDS decoding requirement).

This single representation expresses all five evaluated schemes:

==============  ==========================================================
conventional    one pipeline over the whole chunk; star tree (k helper
                leaves directly under the requester)
RP              one pipeline; chain (path) tree
PPT/PivotRepair one pipeline; general tree
PPR             one pipeline; balanced binary tree (log-depth rounds)
FullRepair      many pipelines over disjoint segments; each a depth <= 2
                tree (hub under the requester, k-1 senders under the hub)
                or a star under the requester for leftover throughput
==============  ==========================================================
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..ec.slicing import Segment
from ..net.bandwidth import BandwidthSnapshot, RepairContext
from ..net.flows import RATE_TOL, Flow, check_node_capacity

#: Tolerance for segment tiling / rate bookkeeping checks.
PLAN_TOL = 1e-6


class Edge(namedtuple("Edge", "child parent rate")):
    """A transfer hop: ``child`` streams its partial result to ``parent``.

    ``rate`` is the planned rate in Mbps.  The payload carried over the
    edge is the owning pipeline's segment (scaled to bytes at execution).

    An immutable tuple-backed record: a plan holds hundreds of edges, so
    an instance is one allocation with no per-instance ``__dict__``.
    """

    __slots__ = ()

    def __new__(cls, child: int, parent: int, rate: float) -> "Edge":
        if child == parent:
            raise ValueError("edge endpoints must differ")
        if rate <= 0:
            raise ValueError(f"edge rate must be positive, got {rate}")
        return tuple.__new__(cls, (child, parent, rate))


#: ``Edge._unchecked((child, parent, rate))`` skips the constructor's
#: validation, for the segment layout, whose edges are valid by
#: construction.  The instance is indistinguishable from a checked one.
Edge._unchecked = partial(tuple.__new__, Edge)


def _check_tree(
    task_id: int, edges: list[Edge], requester: int, helpers: frozenset[int], k: int
) -> None:
    """One pipeline's structural checks: tree shape, root, k distinct helpers.

    O(edges): a node's walk to the requester stops at the first node
    already known to reach it, so chains are not re-walked per hop.
    """
    if not edges:
        raise ValueError(f"pipeline {task_id} has no edges")
    parents = {child: parent for child, parent, _ in edges}
    if len(parents) != len(edges):
        raise ValueError(f"pipeline {task_id}: node with two parents (not a tree)")
    if requester in parents:
        raise ValueError(f"pipeline {task_id}: requester must be the root")
    if requester not in parents.values():
        raise ValueError(f"pipeline {task_id}: requester not reached by any edge")
    reaches = {requester}
    for node, cur in parents.items():
        if cur in reaches:
            reaches.add(node)
            continue
        path = [node]
        while cur not in reaches:
            if cur not in parents or len(path) > len(edges):
                raise ValueError(
                    f"pipeline {task_id}: node {node} does not reach "
                    "the requester (disconnected or cyclic)"
                )
            path.append(cur)
            cur = parents[cur]
        reaches.update(path)
    if not parents.keys() <= helpers:
        raise ValueError(
            f"pipeline {task_id}: non-helper nodes upload: "
            f"{sorted(parents.keys() - helpers)}"
        )
    if len(parents) != k:
        raise ValueError(
            f"pipeline {task_id}: needs exactly k={k} distinct "
            f"helpers, got {len(parents)}"
        )


@dataclass(slots=True)
class Pipeline:
    """One repair pipeline: a rooted transfer tree over a chunk segment.

    Attributes
    ----------
    task_id:
        Stable identifier (FullRepair's task number; 0 for single-pipeline
        schemes).
    segment:
        Normalised ``[0, 1)`` chunk fraction repaired by this pipeline.
    edges:
        Transfer tree; every node with an outgoing edge sends to its unique
        parent, and the requester is the root (has no outgoing edge).
    """

    task_id: int
    segment: Segment
    edges: list[Edge]

    @property
    def participants(self) -> tuple[int, ...]:
        """All nodes that upload in this pipeline (i.e. the helpers)."""
        return tuple(sorted({e.child for e in self.edges}))

    @property
    def rate(self) -> float:
        """The pipeline's end-to-end rate: the minimum edge rate."""
        return min(e.rate for e in self.edges)

    def parent_of(self, node: int) -> int | None:
        for e in self.edges:
            if e.child == node:
                return e.parent
        return None

    def children_of(self, node: int) -> list[int]:
        return [e.child for e in self.edges if e.parent == node]

    def depth(self) -> int:
        """Number of hops on the longest leaf-to-root path."""
        parents = {e.child: e.parent for e in self.edges}
        best = 0
        for node in parents:
            d, cur = 0, node
            while cur in parents:
                cur = parents[cur]
                d += 1
                if d > len(parents):
                    raise ValueError("cycle in pipeline edges")
            best = max(best, d)
        return best

    def validate(self, context: RepairContext) -> None:
        """Structural checks: tree shape, root, k distinct helpers."""
        _check_tree(
            self.task_id, self.edges, context.requester,
            frozenset(context.helpers), context.k,
        )


@dataclass(frozen=True)
class NodeRates:
    """One node's planned transfer rates under a plan (Mbps)."""

    uplink_mbps: float
    downlink_mbps: float


@dataclass
class RepairPlan:
    """A complete schedule for one single-chunk repair.

    Attributes
    ----------
    algorithm:
        Name of the producing algorithm (registry key).
    context:
        The repair instance this plan was computed for.
    pipelines:
        The pipelines; their segments must tile ``[0, 1)``.
    calc_seconds:
        Wall-clock scheduling time measured by the algorithm wrapper
        (Experiment 2's metric); ``None`` if not measured.
    meta:
        Free-form diagnostic payload (e.g. FullRepair's t_max).
    """

    algorithm: str
    context: RepairContext
    pipelines: list[Pipeline]
    calc_seconds: float | None = None
    meta: dict = field(default_factory=dict)

    # -------------------------------------------------------------- #
    # derived quantities                                             #
    # -------------------------------------------------------------- #

    def flows(self) -> tuple[list[Flow], np.ndarray]:
        """All plan edges as concurrent flows with their planned rates."""
        flows: list[Flow] = []
        rates: list[float] = []
        for p in self.pipelines:
            for e in p.edges:
                flows.append(Flow(src=e.child, dst=e.parent))
                rates.append(e.rate)
        return flows, np.array(rates)

    @property
    def total_rate(self) -> float:
        """Aggregate repair throughput in Mbps.

        The chunk is finished when its slowest pipeline finishes, so the
        effective throughput is ``min_j rate_j / fraction_j`` — for a plan
        whose segments are proportional to rates this equals the sum of
        pipeline rates (FullRepair's ``t_max``).
        """
        worst = np.inf
        for p in self.pipelines:
            if p.segment.length <= 0:
                continue
            worst = min(worst, p.rate / p.segment.length)
        return float(worst) if np.isfinite(worst) else 0.0

    def num_pipelines(self) -> int:
        return sum(1 for p in self.pipelines if p.segment.length > 0)

    def add_usage(self, up, down) -> None:
        """Add every edge's rate to ``up[child]`` and ``down[parent]``.

        The single source of truth for "how much of each node's uplink
        and downlink does this plan consume": ``up`` / ``down`` are
        per-node accumulators (dense lists over the snapshot's nodes, or
        ``defaultdict(float)``), summed in edge order.  Usage is only
        meaningful for non-negative rates, so a negative one raises.
        """
        floor = -RATE_TOL
        for p in self.pipelines:
            for child, parent, rate in p.edges:
                if rate < floor:
                    raise ValueError("rates must be non-negative")
                up[child] += rate
                down[parent] += rate

    def node_rates(self) -> dict[int, "NodeRates"]:
        """Planned per-node, per-constraint rates (Mbps), summed over pipelines.

        Shared by the Table-I utilisation decomposition
        (:mod:`repro.analysis.utilization`) and the bottleneck-attribution
        replay (:mod:`repro.obs.attr`).
        """
        up: dict[int, float] = defaultdict(float)
        down: dict[int, float] = defaultdict(float)
        self.add_usage(up, down)
        return {
            node: NodeRates(
                uplink_mbps=up.get(node, 0.0), downlink_mbps=down.get(node, 0.0)
            )
            for node in sorted(up.keys() | down.keys())
        }

    # -------------------------------------------------------------- #
    # validation                                                     #
    # -------------------------------------------------------------- #

    def validate(self, *, check_rates: bool = True) -> None:
        """Full feasibility check.

        * every pipeline is a well-formed k-helper tree rooted at the
          requester;
        * segments are disjoint and cover ``[0, 1)``;
        * (optionally) the simultaneous edge rates respect every node's
          uplink and downlink capacity in the snapshot.

        Raises ``ValueError`` describing the first violation.
        """
        if not self.pipelines:
            raise ValueError("plan has no pipelines")
        context = self.context
        requester, helpers, k = context.requester, frozenset(context.helpers), context.k
        spans = []
        for p in self.pipelines:
            _check_tree(p.task_id, p.edges, requester, helpers, k)
            start, stop = segment = p.segment
            if stop - start > PLAN_TOL:
                spans.append(segment)
        spans.sort()
        pos = 0.0
        for start, stop in spans:
            if start < pos - PLAN_TOL:
                raise ValueError(
                    f"pipeline segments overlap near position {start:.6f}"
                )
            if start > pos + PLAN_TOL:
                raise ValueError(
                    f"chunk range [{pos:.6f}, {start:.6f}) repaired by no pipeline"
                )
            pos = max(pos, stop)
        if abs(pos - 1.0) > PLAN_TOL:
            raise ValueError(f"pipeline segments cover [0, {pos:.6f}) != [0, 1)")
        if check_rates:
            # every endpoint is a helper or the requester (the tree checks
            # passed), so the dense per-node lists are safely indexed
            up, down = planned_usage(context.snapshot, [self])
            check_node_capacity(context.snapshot, up, down)


def planned_usage(
    snapshot: BandwidthSnapshot, plans: list[RepairPlan]
) -> tuple[list[float], list[float]]:
    """Per-node uplink / downlink rates (Mbps) the plans consume together.

    Dense lists over the snapshot's nodes; the plans' endpoints must lie
    inside it (true of any validated plan over a context of ``snapshot``).
    """
    up = [0.0] * snapshot.num_nodes
    down = [0.0] * snapshot.num_nodes
    for plan in plans:
        plan.add_usage(up, down)
    return up, down
