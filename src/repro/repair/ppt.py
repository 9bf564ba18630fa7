"""PPT — Parallel Pipeline Tree (Bai et al., ICPP'19) baseline.

PPT "emulates all possible pipeline trees and selects the optimal one"
(paper §II-B).  This implementation is faithful to that brute-force
character: it enumerates helper k-subsets exhaustively and, within each
subset, enumerates rooted trees as parent vectors (each node picks the
requester or an earlier node under a descending-downlink ordering — an
ordering that always contains an optimal tree, since optimal child counts
can be taken monotone in downlink).  Every emulated tree is rated
``min(min U, min_v D_v / c_v)`` and the best is kept.

Because the emulation count explodes combinatorially (the reason PPT's
calculation time dominates Fig. 5 and its overall repair time collapses at
(14, 10) in Fig. 4), the enumeration carries a configurable budget.  When
the budget truncates the search, the result is still exact: the search is
seeded with :func:`repro.repair.treeopt.optimal_tree`, so truncation can
only cost emulation *time*, never solution quality — mirroring the real
PPT, whose exhaustive search also finds the optimum, just slowly.
"""

from __future__ import annotations

from itertools import combinations

from ..net.bandwidth import RepairContext
from .base import RepairAlgorithm
from .plan import Edge, Pipeline, RepairPlan, Segment
from .treeopt import optimal_tree


def _rate_of_tree(
    context: RepairContext, nodes: list[int], parents: list[int]
) -> float:
    """Pipeline rate of a parent-vector tree (parents[-1] slot = requester)."""
    child_count: dict[int, int] = {}
    for p in parents:
        child_count[p] = child_count.get(p, 0) + 1
    rate = min(context.uplink(h) for h in nodes)
    for node, c in child_count.items():
        rate = min(rate, context.downlink(node) / c)
    return rate


class ParallelPipelineTree(RepairAlgorithm):
    """Brute-force tree emulation with an emulation budget.

    Parameters
    ----------
    max_emulations:
        Total number of tree evaluations across all subsets before the
        enumeration stops early (default 20_000 keeps Experiment-scale
        sweeps tractable; raise it to observe the full blow-up in the
        Fig. 5 benchmark).
    """

    name = "ppt"

    def __init__(self, *, max_emulations: int | None = 20_000) -> None:
        self.max_emulations = max_emulations

    def schedule(self, context: RepairContext) -> RepairPlan:
        k = context.k
        ranked = sorted(
            context.helpers,
            key=lambda h: (-min(context.uplink(h), context.downlink(h)), h),
        )
        best_rate = 0.0
        best: tuple[list[int], list[int]] | None = None
        budget = self.max_emulations
        emulated = 0
        exhausted = False
        for subset in combinations(ranked, k):
            nodes = sorted(subset, key=lambda h: (-context.downlink(h), h))
            # enumerate parent vectors: node i attaches to the requester or
            # any of nodes[0..i-1]
            stack: list[list[int]] = [[]]
            while stack:
                prefix = stack.pop()
                i = len(prefix)
                if i == k:
                    emulated += 1
                    rate = _rate_of_tree(context, nodes, prefix)
                    if rate > best_rate:
                        best_rate = rate
                        best = (nodes, list(prefix))
                    if budget is not None and emulated >= budget:
                        exhausted = True
                        break
                    continue
                choices = [context.requester] + nodes[:i]
                for parent in choices:
                    stack.append(prefix + [parent])
            if exhausted:
                break

        # seed with the polynomial oracle so a truncated search still
        # returns PPT's (optimal) answer
        oracle = optimal_tree(context)
        if oracle.rate > best_rate or best is None:
            parents_map = dict(oracle.parents)
            nodes = list(parents_map)
            parent_vec = [parents_map[h] for h in nodes]
            best_rate, best = oracle.rate, (nodes, parent_vec)

        if best is None or best_rate <= 0:
            raise ValueError("no feasible repair tree")
        nodes, parents = best
        edges = [
            Edge(child=c, parent=p, rate=best_rate)
            for c, p in zip(nodes, parents)
        ]
        pipeline = Pipeline(task_id=0, segment=Segment(0.0, 1.0), edges=edges)
        return RepairPlan(
            algorithm=self.name,
            context=context,
            pipelines=[pipeline],
            meta={
                "rate": best_rate,
                "emulated_trees": emulated,
                "budget_exhausted": exhausted,
            },
        )
