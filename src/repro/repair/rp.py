"""RP — Repair Pipelining (Li et al., USENIX ATC'17), chain baseline.

RP splits the chunk into slices and streams partial sums through a single
chain of k helpers ending at the requester, so every link carries exactly
one chunk's worth of data.  Under heterogeneous bandwidth the chain's
throughput is its bottleneck link, so helper selection matters: following
the paper's characterisation ("the iterative algorithm used in RP needs to
constantly try pipeline combinations", §V Experiment 2), this
implementation enumerates candidate k-subsets of helpers exhaustively and
evaluates each subset's best chain — which is why its calculation time
grows combinatorially with n while remaining exact.

For a fixed helper subset S the best chain is analytic: every member needs
uplink >= b; every member except the chain head also needs downlink >= b;
the requester needs downlink >= b.  Hence the optimal head is the member
with the smallest downlink, and the bottleneck is
``min(min U_S, second-smallest D_S..., D_R)`` — evaluated in O(k).
"""

from __future__ import annotations

from itertools import combinations

from ..net.bandwidth import RepairContext
from .base import RepairAlgorithm
from .plan import Edge, Pipeline, RepairPlan, Segment


def best_chain_for_subset(
    context: RepairContext, subset: tuple[int, ...]
) -> tuple[float, list[int]]:
    """(bottleneck rate, chain order ending nearest the requester).

    The chain is ``order[0] -> order[1] -> ... -> order[-1] -> requester``.
    """
    d_r = context.downlink(context.requester)
    ups = [context.uplink(h) for h in subset]
    head = min(subset, key=lambda h: (context.downlink(h), h))
    rest = [h for h in subset if h != head]
    rate = min(
        min(ups),
        min((context.downlink(h) for h in rest), default=float("inf")),
        d_r,
    )
    # order the tail by descending downlink so the most constrained
    # non-head nodes sit early (cosmetic: bottleneck is order-independent)
    rest.sort(key=lambda h: (-context.downlink(h), h))
    return rate, [head, *rest]


class RepairPipelining(RepairAlgorithm):
    """Chain-pipelined repair with exhaustive helper-subset search.

    Parameters
    ----------
    max_subsets:
        Upper bound on enumerated subsets (safety valve for very large
        n choose k; ``None`` = unbounded).  Subsets are enumerated over
        helpers pre-sorted by descending bandwidth so truncation keeps the
        strongest candidates.
    """

    name = "rp"

    def __init__(self, *, max_subsets: int | None = None) -> None:
        self.max_subsets = max_subsets

    def schedule(self, context: RepairContext) -> RepairPlan:
        k = context.k
        ranked = sorted(
            context.helpers,
            key=lambda h: (-min(context.uplink(h), context.downlink(h)), h),
        )
        best_rate, best_chain = -1.0, None
        for count, subset in enumerate(combinations(ranked, k)):
            if self.max_subsets is not None and count >= self.max_subsets:
                break
            rate, chain = best_chain_for_subset(context, subset)
            if rate > best_rate:
                best_rate, best_chain = rate, chain
        if best_chain is None or best_rate <= 0:
            raise ValueError("no feasible repair chain (a required link is dead)")
        edges = [
            Edge(child=a, parent=b, rate=best_rate)
            for a, b in zip(best_chain, best_chain[1:])
        ]
        edges.append(
            Edge(child=best_chain[-1], parent=context.requester, rate=best_rate)
        )
        pipeline = Pipeline(task_id=0, segment=Segment(0.0, 1.0), edges=edges)
        return RepairPlan(
            algorithm=self.name,
            context=context,
            pipelines=[pipeline],
            meta={"chain": tuple(best_chain), "bottleneck": best_rate},
        )
