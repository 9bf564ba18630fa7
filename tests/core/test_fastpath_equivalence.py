"""Fast planning path vs the frozen seed reference planner.

:mod:`tests.core.reference_planner` preserves the original
(pre-optimisation) Algorithm 1 + Algorithm 2 implementation verbatim.
These tests pin the optimised path to it:

* on the paper's worked example (Fig. 2 / Table III) and a broad sweep
  of randomised contexts, the plans must be structurally identical with
  rates/segments far inside ``AMOUNT_TOL``;
* when the flow-completion step fires, Dinic and networkx may split the
  (equal-value) max-flow differently, so those few contexts are compared
  on throughput and validated rather than edge-by-edge;
* Algorithm 1 alone is pinned to the seed loop on wide helper sets too
  (47-200 helpers), far past any width a repair plans over;
* networkx must never be imported by planning (it is a test oracle only).
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.fullrepair import FullRepair
from repro.core.throughput import max_pipelined_throughput
from repro.net import BandwidthSnapshot, RepairContext

from tests.conftest import random_context
from tests.core.reference_planner import (
    seed_max_pipelined_throughput,
    seed_schedule,
)

#: Structural comparisons allow only float-ulp noise — two orders of
#: magnitude inside the scheduler's AMOUNT_TOL (1e-7).
TOL = 1e-9


def _assert_plans_equivalent(fast, seed):
    assert fast.meta["t_max"] == pytest.approx(seed.meta["t_max"], abs=TOL)
    assert fast.meta["picked"] == seed.meta["picked"]
    assert fast.meta["flow_completion_used"] == seed.meta["flow_completion_used"]
    if fast.meta["flow_completion_used"]:
        # equal max-flow value, possibly different (equally valid) splits
        assert fast.total_rate == pytest.approx(seed.total_rate, rel=1e-6)
        fast.validate()
        seed.validate()
        return
    assert len(fast.pipelines) == len(seed.pipelines)
    for pf, ps in zip(fast.pipelines, seed.pipelines):
        assert pf.task_id == ps.task_id
        assert pf.segment.start == pytest.approx(ps.segment.start, abs=TOL)
        assert pf.segment.stop == pytest.approx(ps.segment.stop, abs=TOL)
        assert [(e.child, e.parent) for e in pf.edges] == [
            (e.child, e.parent) for e in ps.edges
        ]
        for ef, es in zip(pf.edges, ps.edges):
            assert ef.rate == pytest.approx(es.rate, abs=TOL)


class TestPlanEquivalence:
    def test_worked_example(self, fig2_context):
        fast = FullRepair().schedule(fig2_context)
        seed = seed_schedule(fig2_context)
        _assert_plans_equivalent(fast, seed)

    def test_worked_example_without_requester_task(self, fig2_context):
        fast = FullRepair(use_requester_task=False).schedule(fig2_context)
        seed = seed_schedule(fig2_context, use_requester_task=False)
        _assert_plans_equivalent(fast, seed)

    @pytest.mark.parametrize("seed", range(60))
    def test_randomised_contexts(self, seed):
        rng = np.random.default_rng(seed)
        ctx = random_context(rng)
        fast = FullRepair().schedule(ctx)
        ref = seed_schedule(ctx)
        _assert_plans_equivalent(fast, ref)

    @pytest.mark.parametrize("seed", range(8))
    def test_homogeneous_contexts(self, seed):
        """Uniform bandwidth exercises the tie-breaking rules heavily."""
        rng = np.random.default_rng(1000 + seed)
        n_nodes = int(rng.integers(8, 16))
        k = int(rng.integers(2, 7))
        snap = BandwidthSnapshot.uniform(n_nodes, 500.0)
        ids = rng.permutation(n_nodes)
        ctx = RepairContext(
            snapshot=snap,
            requester=int(ids[0]),
            helpers=tuple(int(x) for x in ids[1 : n_nodes - 1]),
            k=k,
        )
        _assert_plans_equivalent(FullRepair().schedule(ctx), seed_schedule(ctx))

    @pytest.mark.parametrize("num_helpers", (47, 48, 64, 96, 200))
    def test_wide_contexts_algorithm1(self, num_helpers):
        """Helper sets wider than any repair plans over: the closed form
        is the only production solver, so it must hold there as well."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n_nodes = num_helpers + 1
            snap = BandwidthSnapshot(
                uplink=rng.uniform(1.0, 1000.0, n_nodes),
                downlink=rng.uniform(1.0, 1000.0, n_nodes),
            )
            ids = rng.permutation(n_nodes)
            ctx = RepairContext(
                snapshot=snap,
                requester=int(ids[0]),
                helpers=tuple(int(x) for x in ids[1:]),
                k=int(rng.integers(2, 12)),
            )
            fast = max_pipelined_throughput(ctx)
            ref = seed_max_pipelined_throughput(ctx)
            assert fast.t_max == pytest.approx(ref.t_max, abs=TOL)
            assert fast.picked == ref.picked
            assert fast.uplink == pytest.approx(ref.uplink, abs=TOL)
            assert fast.downlink == pytest.approx(ref.downlink, abs=TOL)


class TestHotPathImports:
    def test_networkx_not_imported_by_planning(self):
        """Planning a repair must not pull networkx into the process."""
        code = (
            "import sys\n"
            "from repro.analysis import make_fixed_context\n"
            "from repro.repair import get_algorithm\n"
            "plan = get_algorithm('fullrepair').plan("
            "make_fixed_context(14, 10, seed=2023))\n"
            "plan.validate()\n"
            "assert 'networkx' not in sys.modules, 'networkx on hot path'\n"
        )
        subprocess.run(
            [sys.executable, "-c", code], check=True, env=dict(os.environ)
        )
