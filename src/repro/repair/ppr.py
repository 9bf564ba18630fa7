"""PPR — Partial-Parallel Repair (Mitra et al., EuroSys'16) baseline.

PPR splits the repair combination across ``ceil(log2(k+1))`` rounds of
pairwise partial aggregation: helpers form a balanced binary in-tree
rooted at the requester, each interior helper XOR-combining its
children's partials with its own scaled chunk.  Unlike RP/PPT it was not
designed around per-link available bandwidth, so the classic construction
is topology-first: pick the k best helpers, then lay the balanced tree
over them with the higher-downlink helpers placed at interior positions.

Included here as the §VI-related-work baseline that *parallelises* the
combination without *pipelining* slices adaptively — it slots naturally
into the shared plan representation as a single balanced-tree pipeline,
letting the evaluation quantify what bandwidth-aware construction (PPT /
PivotRepair) and multi-pipelining (FullRepair) add on top.
"""

from __future__ import annotations

from ..net.bandwidth import RepairContext
from .base import RepairAlgorithm
from .plan import Edge, Pipeline, RepairPlan, Segment


def balanced_tree_parents(nodes: list[int], root: int) -> dict[int, int]:
    """Parent map of a balanced binary in-tree over ``nodes`` under ``root``.

    ``nodes[0]`` becomes the root's child; node ``i`` parents nodes
    ``2i+1`` and ``2i+2`` (heap layout), giving depth
    ``ceil(log2(len(nodes)+1))``.
    """
    parents: dict[int, int] = {}
    for i, node in enumerate(nodes):
        parents[node] = root if i == 0 else nodes[(i - 1) // 2]
    return parents


class PartialParallelRepair(RepairAlgorithm):
    """Balanced-binary-tree repair (log-depth partial aggregation)."""

    name = "ppr"

    def schedule(self, context: RepairContext) -> RepairPlan:
        k = context.k
        # helper selection: strongest min(uplink, downlink) first — PPR
        # assumes roughly uniform links, so this is the natural ranking
        ranked = sorted(
            context.helpers,
            key=lambda h: (-min(context.uplink(h), context.downlink(h)), h),
        )
        chosen = ranked[:k]
        # interior (high fan-in) positions get the fattest downlinks
        chosen.sort(key=lambda h: (-context.downlink(h), h))
        parents = balanced_tree_parents(chosen, context.requester)
        # uniform pipeline rate limited by every upload and shared download
        child_count: dict[int, int] = {}
        for p in parents.values():
            child_count[p] = child_count.get(p, 0) + 1
        rate = min(context.uplink(h) for h in chosen)
        for node, c in child_count.items():
            rate = min(rate, context.downlink(node) / c)
        if rate <= 0:
            raise ValueError("no feasible PPR tree (dead link among helpers)")
        edges = [Edge(child=c, parent=p, rate=rate) for c, p in sorted(parents.items())]
        pipeline = Pipeline(task_id=0, segment=Segment(0.0, 1.0), edges=edges)
        return RepairPlan(
            algorithm=self.name,
            context=context,
            pipelines=[pipeline],
            meta={"rate": rate, "rounds": pipeline.depth()},
        )
