"""Conventional (star) repair — the no-pipelining baseline of Fig. 1(a).

The requester downloads one whole chunk from each of k helpers and decodes
locally.  Its downlink carries k chunks, so it is k times more congested
than any helper uplink (the repair penalty the pipelining literature
attacks).  Helper selection greedily prefers the highest-uplink helpers;
rates are the max-min fair allocation of the k parallel flows.
"""

from __future__ import annotations

from ..net.bandwidth import RepairContext
from ..net.flows import Flow, max_min_rates
from .base import RepairAlgorithm
from .plan import Edge, Pipeline, RepairPlan, Segment


class ConventionalRepair(RepairAlgorithm):
    """Star repair: k direct whole-chunk downloads into the requester."""

    name = "conventional"

    def schedule(self, context: RepairContext) -> RepairPlan:
        k = context.k
        ranked = sorted(
            context.helpers, key=lambda h: (-context.uplink(h), h)
        )
        chosen = ranked[:k]
        if any(context.uplink(h) <= 0 for h in chosen):
            raise ValueError(
                "conventional repair needs k helpers with positive uplink"
            )
        flows = [Flow(src=h, dst=context.requester) for h in chosen]
        rates = max_min_rates(context.snapshot, flows)
        if min(rates) <= 0:
            raise ValueError(
                "requester downlink exhausted: star repair infeasible"
            )
        edges = [
            Edge(child=h, parent=context.requester, rate=float(r))
            for h, r in zip(chosen, rates)
        ]
        pipeline = Pipeline(task_id=0, segment=Segment(0.0, 1.0), edges=edges)
        return RepairPlan(
            algorithm=self.name,
            context=context,
            pipelines=[pipeline],
            meta={"helpers": tuple(chosen)},
        )
