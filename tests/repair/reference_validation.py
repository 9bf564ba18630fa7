"""Test-only oracle: plan validation as three separate steps.

This is the composition ``RepairPlan.validate`` was before it became one
plan-granular pass: ``Pipeline.validate`` per pipeline (rebuilding its
containers and walking every child to the root), then the segment
tiling, then ``flows()`` + a NumPy ``validate_rates``.  It is kept as
it was — same checks, same order, same messages, same bincount sums;
only the ``Flow`` wrappers are gone, the endpoints are read off the
edges — so the fused implementation can be compared against it on valid
and broken plans alike (``test_validation_equivalence.py``).  Nothing in
``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.net.flows import RATE_TOL
from repro.repair.plan import PLAN_TOL


def reference_pipeline_validate(pipeline, context) -> None:
    edges, task_id = pipeline.edges, pipeline.task_id
    if not edges:
        raise ValueError(f"pipeline {task_id} has no edges")
    children = [e.child for e in edges]
    if len(set(children)) != len(children):
        raise ValueError(f"pipeline {task_id}: node with two parents (not a tree)")
    parents = {e.child: e.parent for e in edges}
    if context.requester in parents:
        raise ValueError(f"pipeline {task_id}: requester must be the root")
    nodes = set(children) | {e.parent for e in edges}
    if context.requester not in nodes:
        raise ValueError(f"pipeline {task_id}: requester not reached by any edge")
    for node in children:
        cur, hops = node, 0
        while cur != context.requester:
            if cur not in parents or hops > len(edges):
                raise ValueError(
                    f"pipeline {task_id}: node {node} does not reach "
                    "the requester (disconnected or cyclic)"
                )
            cur = parents[cur]
            hops += 1
    helper_set = set(context.helpers)
    uploaders = set(children)
    if not uploaders <= helper_set:
        raise ValueError(
            f"pipeline {task_id}: non-helper nodes upload: "
            f"{sorted(uploaders - helper_set)}"
        )
    if len(uploaders) != context.k:
        raise ValueError(
            f"pipeline {task_id}: needs exactly k={context.k} distinct "
            f"helpers, got {len(uploaders)}"
        )


def reference_validate_rates(snapshot, srcs, dsts, rates, *, tol=RATE_TOL) -> None:
    rates = np.asarray(rates, dtype=np.float64)
    if np.any(rates < -tol):
        raise ValueError("rates must be non-negative")
    n = snapshot.num_nodes
    up_used = np.bincount(np.array(srcs, dtype=np.intp), weights=rates, minlength=n)
    down_used = np.bincount(np.array(dsts, dtype=np.intp), weights=rates, minlength=n)
    for node in range(n):
        slack = max(tol * snapshot.uplink[node], 1e-5)
        if up_used[node] > snapshot.uplink[node] + slack:
            raise ValueError(
                f"uplink of node {node} oversubscribed: "
                f"{up_used[node]:.6f} > {snapshot.uplink[node]:.6f} Mbps"
            )
        slack = max(tol * snapshot.downlink[node], 1e-5)
        if down_used[node] > snapshot.downlink[node] + slack:
            raise ValueError(
                f"downlink of node {node} oversubscribed: "
                f"{down_used[node]:.6f} > {snapshot.downlink[node]:.6f} Mbps"
            )


def reference_validate(plan, *, check_rates: bool = True) -> None:
    if not plan.pipelines:
        raise ValueError("plan has no pipelines")
    for p in plan.pipelines:
        reference_pipeline_validate(p, plan.context)
    live = [p for p in plan.pipelines if p.segment.length > PLAN_TOL]
    spans = sorted((p.segment.start, p.segment.stop) for p in live)
    pos = 0.0
    for start, stop in spans:
        if start < pos - PLAN_TOL:
            raise ValueError(f"pipeline segments overlap near position {start:.6f}")
        if start > pos + PLAN_TOL:
            raise ValueError(
                f"chunk range [{pos:.6f}, {start:.6f}) repaired by no pipeline"
            )
        pos = max(pos, stop)
    if abs(pos - 1.0) > PLAN_TOL:
        raise ValueError(f"pipeline segments cover [0, {pos:.6f}) != [0, 1)")
    if check_rates:
        edges = [e for p in plan.pipelines for e in p.edges]
        reference_validate_rates(
            plan.context.snapshot,
            [e.child for e in edges],
            [e.parent for e in edges],
            [e.rate for e in edges],
        )
