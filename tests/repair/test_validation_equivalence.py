"""Fused plan validation ≡ the three-step composition it replaced.

``RepairPlan.validate`` checks a plan in one plan-granular pass;
``reference_validation`` is the per-pipeline / tiling / NumPy-rates
composition it used to be.  On plans from every registered algorithm,
intact or broken by any stack of the mutations below, both must give
the same verdict with the same message — and an ill-formed plan is
always a ``ValueError``, never an ``IndexError`` / ``KeyError``.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import sample_contexts
from repro.net import BandwidthSnapshot, RepairContext
from repro.repair import algorithm_names, get_algorithm
from repro.repair.plan import Edge, Pipeline, RepairPlan, Segment
from repro.workloads import make_trace

from tests.repair.reference_validation import (
    reference_pipeline_validate,
    reference_validate,
)

ALGORITHMS = tuple(algorithm_names())
CODES = ((6, 4), (9, 6), (12, 8), (14, 10))
PER_CODE = 5


@lru_cache(maxsize=None)
def contexts() -> tuple[RepairContext, ...]:
    trace = make_trace("tpcds", num_nodes=16, num_snapshots=200, seed=11)
    return tuple(
        ctx for n, k in CODES for ctx in sample_contexts(trace, n, k, PER_CODE, seed=11)
    )


@lru_cache(maxsize=None)
def valid_plan(name: str, index: int) -> RepairPlan:
    kwargs = {"max_emulations": 50} if name == "ppt" else {}
    return get_algorithm(name, **kwargs).schedule(contexts()[index])


def verdict(check, *args, **kwargs) -> str | None:
    """``None`` when ``check`` accepts, else the ``ValueError`` text.

    Any other exception type propagates and fails the test.
    """
    try:
        check(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return None


def assert_same_verdict(plan: RepairPlan) -> str | None:
    expected = verdict(reference_validate, plan)
    assert verdict(plan.validate) == expected
    assert verdict(plan.validate, check_rates=False) == verdict(
        reference_validate, plan, check_rates=False
    )
    for p in plan.pipelines:
        assert verdict(p.validate, plan.context) == verdict(
            reference_pipeline_validate, p, plan.context
        )
    return expected


# --------------------------------------------------------------------- #
# mutations: each returns the pipelines of a (usually) broken plan      #
# --------------------------------------------------------------------- #

raw_edge = Edge._unchecked  # no constructor checks: the validator's job


def _pick(rng, plan):
    """A random (pipeline index, edge index) of the plan."""
    pi = rng.randrange(len(plan.pipelines))
    return pi, rng.randrange(len(plan.pipelines[pi].edges))


def _with_edges(plan, pi, edges):
    p = plan.pipelines[pi]
    out = list(plan.pipelines)
    out[pi] = Pipeline(p.task_id, p.segment, list(edges))
    return out


def _with_edge(plan, pi, ei, edge):
    edges = list(plan.pipelines[pi].edges)
    edges[ei] = edge
    return _with_edges(plan, pi, edges)


def drop_edge(rng, plan):
    pi, ei = _pick(rng, plan)
    edges = plan.pipelines[pi].edges
    return _with_edges(plan, pi, edges[:ei] + edges[ei + 1 :])


def duplicate_edge(rng, plan):
    pi, ei = _pick(rng, plan)
    edges = plan.pipelines[pi].edges
    return _with_edges(plan, pi, edges + [edges[ei]])


def reparent_edge(rng, plan):
    pi, ei = _pick(rng, plan)
    e = plan.pipelines[pi].edges[ei]
    # any node, in or out of the snapshot: cycles, dead ends, or a legal tree
    parent = rng.randrange(-1, plan.context.snapshot.num_nodes + 2)
    return _with_edge(plan, pi, ei, raw_edge((e.child, parent, e.rate)))


def swap_in_non_helper(rng, plan):
    pi, ei = _pick(rng, plan)
    e = plan.pipelines[pi].edges[ei]
    n = plan.context.snapshot.num_nodes
    outsiders = sorted(set(range(-1, n + 3)) - set(plan.context.helpers))
    outsider = rng.choice(outsiders)
    return _with_edge(plan, pi, ei, raw_edge((outsider, e.parent, e.rate)))


def add_uploader(rng, plan):
    """A (k+1)-th uploader: a spare helper if there is one."""
    pi, ei = _pick(rng, plan)
    p = plan.pipelines[pi]
    spare = sorted(set(plan.context.helpers) - {e.child for e in p.edges})
    child = rng.choice(spare) if spare else plan.context.snapshot.num_nodes
    extra = raw_edge((child, plan.context.requester, p.edges[ei].rate))
    return _with_edges(plan, pi, p.edges + [extra])


def move_segment(rng, plan):
    pi = rng.randrange(len(plan.pipelines))
    p = plan.pipelines[pi]
    delta = rng.choice((-0.05, 0.05, 1e-7))
    start, stop = p.segment
    if rng.random() < 0.5:  # shift
        segment = Segment(start + delta, stop + delta)
    else:  # shrink
        segment = Segment(start, max(start, stop - abs(delta)))
    out = list(plan.pipelines)
    out[pi] = Pipeline(p.task_id, segment, p.edges)
    return out


def oversubscribe(rng, plan):
    pi, ei = _pick(rng, plan)
    e = plan.pipelines[pi].edges[ei]
    snapshot = plan.context.snapshot
    # an earlier mutation of the stack may have planted an endpoint that
    # is not a node of the snapshot; oversubscribe a link that exists
    n = snapshot.num_nodes
    caps = [snapshot.uplink[e.child]] if 0 <= e.child < n else []
    caps += [snapshot.downlink[e.parent]] if 0 <= e.parent < n else []
    cap = rng.choice(caps or [snapshot.uplink.max()])
    rate = float(cap) * rng.choice((1.0 + 1e-9, 1.01, 3.0)) + 1e-5
    return _with_edge(plan, pi, ei, raw_edge((e.child, e.parent, rate)))


def negate_rate(rng, plan):
    pi, ei = _pick(rng, plan)
    e = plan.pipelines[pi].edges[ei]
    rate = rng.choice((-e.rate, -1e-3, -1e-7))
    return _with_edge(plan, pi, ei, raw_edge((e.child, e.parent, rate)))


def splice_self_edge(rng, plan):
    pi, ei = _pick(rng, plan)
    p = plan.pipelines[pi]
    e = p.edges[ei]
    loop = raw_edge((e.child, e.child, e.rate))
    if rng.random() < 0.5:
        return _with_edge(plan, pi, ei, loop)
    return _with_edges(plan, pi, p.edges + [loop])


MUTATIONS = (
    drop_edge, duplicate_edge, reparent_edge, swap_in_non_helper, add_uploader,
    move_segment, oversubscribe, negate_rate, splice_self_edge,
)


def mutated(plan: RepairPlan, mutation, rng) -> RepairPlan:
    return RepairPlan(plan.algorithm, plan.context, mutation(rng, plan))


# --------------------------------------------------------------------- #
# equivalence                                                           #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", ALGORITHMS)
def test_intact_plans_pass_both(name):
    for index in range(len(contexts())):
        assert assert_same_verdict(valid_plan(name, index)) is None


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", ALGORITHMS)
def test_one_defect_same_message(name, mutation):
    rejected = 0
    for index in range(len(contexts())):
        for seed in range(6):
            plan = mutated(valid_plan(name, index), mutation, random.Random(seed))
            rejected += assert_same_verdict(plan) is not None
    assert rejected  # the mutation class has teeth on this algorithm


@pytest.mark.parametrize("name", ALGORITHMS)
@given(
    index=st.integers(0, len(CODES) * PER_CODE - 1),
    stack=st.lists(st.sampled_from(MUTATIONS), min_size=0, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# stacks whose earlier mutation plants an out-of-snapshot endpoint on the
# edge `oversubscribe` then picks (the helper once indexed the snapshot
# with it)
@example(index=10, stack=[reparent_edge, swap_in_non_helper, oversubscribe], seed=0)
@example(index=0, stack=[reparent_edge, drop_edge, oversubscribe], seed=35638)
def test_any_stack_of_defects_same_verdict(name, index, stack, seed):
    rng = random.Random(seed)
    plan = valid_plan(name, index)
    for mutation in stack:
        if not plan.pipelines or not all(p.edges for p in plan.pipelines):
            break  # nothing left to pick from
        plan = mutated(plan, mutation, rng)
    assert_same_verdict(plan)


# --------------------------------------------------------------------- #
# ill-formed plans raise ValueError — never IndexError / KeyError       #
# --------------------------------------------------------------------- #


@pytest.fixture
def ctx():
    snap = BandwidthSnapshot.uniform(6, 1000.0)
    return RepairContext(snapshot=snap, requester=0, helpers=(1, 2, 3, 4, 5), k=3)


def star(ctx, children, rate=100.0):
    edges = [raw_edge((c, ctx.requester, rate)) for c in children]
    return RepairPlan("t", ctx, [Pipeline(0, Segment(0.0, 1.0), edges)])


class TestIllFormedPlansRaiseValueError:
    @pytest.mark.parametrize("outsider", (6, 99, -1, -7))
    def test_uploader_outside_the_snapshot(self, ctx, outsider):
        # a list-indexed usage accumulator must not see this id first
        with pytest.raises(ValueError, match="non-helper nodes upload"):
            star(ctx, (1, 2, outsider)).validate()

    def test_parent_outside_the_snapshot(self, ctx):
        plan = star(ctx, (1, 2))
        plan.pipelines[0].edges.append(raw_edge((3, 42, 100.0)))
        with pytest.raises(ValueError, match="node 3 does not reach"):
            plan.validate()

    def test_negative_rate(self, ctx):
        plan = star(ctx, (1, 2, 3))
        plan.pipelines[0].edges[1] = raw_edge((2, 0, -5.0))
        with pytest.raises(ValueError, match="rates must be non-negative"):
            plan.validate()
        with pytest.raises(ValueError, match="rates must be non-negative"):
            plan.node_rates()

    def test_self_edge_is_reported_as_cyclic(self, ctx):
        plan = star(ctx, (1, 2))
        plan.pipelines[0].edges.append(raw_edge((3, 3, 100.0)))
        with pytest.raises(ValueError, match="node 3 .*disconnected or cyclic"):
            plan.validate()

    def test_cycle_among_helpers(self, ctx):
        plan = star(ctx, (1,))
        plan.pipelines[0].edges += [raw_edge((2, 3, 100.0)), raw_edge((3, 2, 100.0))]
        with pytest.raises(ValueError, match="node 2 .*disconnected or cyclic"):
            plan.validate()

    def test_long_chain_is_walked_once(self):
        # RP-style chain far deeper than any code's k: the memoised walk
        # must neither recurse nor mistake depth for a cycle
        n = 400
        snap = BandwidthSnapshot.uniform(n, 1000.0)
        chain_ctx = RepairContext(
            snapshot=snap, requester=0, helpers=tuple(range(1, n)), k=n - 1
        )
        edges = [Edge(c, c - 1, 10.0) for c in range(n - 1, 0, -1)]
        RepairPlan("t", chain_ctx, [Pipeline(0, Segment(0.0, 1.0), edges)]).validate()

    def test_check_rates_false_skips_only_capacity_and_sign(self, ctx):
        over = star(ctx, (1, 2, 3), rate=5000.0)
        with pytest.raises(ValueError, match="oversubscribed"):
            over.validate()
        over.validate(check_rates=False)
        negative = star(ctx, (1, 2, 3), rate=-1.0)
        negative.validate(check_rates=False)
        # ... but structure and tiling are still enforced
        with pytest.raises(ValueError, match="k=3"):
            star(ctx, (1, 2), rate=5000.0).validate(check_rates=False)
        short = star(ctx, (1, 2, 3), rate=5000.0)
        short.pipelines[0].segment = Segment(0.0, 0.5)
        with pytest.raises(ValueError, match="cover"):
            short.validate(check_rates=False)
