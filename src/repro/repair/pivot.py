"""PivotRepair (Yao et al., ICDCS'22) baseline — fast optimal tree.

PivotRepair reaches (essentially) PPT's tree quality without PPT's
emulation cost by constructing the tree directly: uncongested nodes
("pivots") are inserted as relays to bypass congested downlinks, with
heap-ordered candidate selection giving an O(n log n) construction.  In
this reproduction the same observable behaviour — near-PPT transfer time
at microsecond-scale calculation time (paper Figs. 5-6) — is delivered by
the polynomial-time optimal-tree computation in
:mod:`repro.repair.treeopt`: a descending candidate-rate search with
greedy capacity packing, where high-downlink helpers naturally take the
pivot role (many children).
"""

from __future__ import annotations

from ..net.bandwidth import RepairContext
from .base import RepairAlgorithm
from .plan import Edge, Pipeline, RepairPlan, Segment
from .treeopt import optimal_tree


class PivotRepair(RepairAlgorithm):
    """Fast tree-pipelined repair (single pipeline, k helpers)."""

    name = "pivotrepair"

    def schedule(self, context: RepairContext) -> RepairPlan:
        tree = optimal_tree(context)
        edges = [
            Edge(child=c, parent=p, rate=tree.rate)
            for c, p in sorted(tree.parents.items())
        ]
        pipeline = Pipeline(task_id=0, segment=Segment(0.0, 1.0), edges=edges)
        # pivots: interior helpers relaying more than one child
        child_count: dict[int, int] = {}
        for p in tree.parents.values():
            child_count[p] = child_count.get(p, 0) + 1
        pivots = tuple(
            sorted(h for h, c in child_count.items() if h != context.requester and c >= 1)
        )
        return RepairPlan(
            algorithm=self.name,
            context=context,
            pipelines=[pipeline],
            meta={"rate": tree.rate, "pivots": pivots},
        )
