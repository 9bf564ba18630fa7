"""Rebuild targets on a cluster: the mask picker equals the list rule.

The orchestrator's requester picker works in node bit masks with
domain caps; on a :class:`~repro.cluster.system.ClusterSystem` there is
no domain tree, every node is its own domain, and the picks must equal
the list rule it replaced: the live (alive and not master-dead) nodes
outside the placement, ascending, round-robin from the cursor.  The
degraded-read reader draws from the same list.  Hypothesis programs
draw crashed and master-dead nodes, placement, lost chunks and the
cursor; a cluster whose ``live`` forgets the master's dead set must
fail the property.
"""

from __future__ import annotations

import inspect
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.system as cluster_system
from repro.ec import RSCode
from repro.recovery import ForegroundTraffic, RecoveryOrchestrator

pytestmark = pytest.mark.recovery


def list_rule(system, stripe_id, num_lost, rr):
    """The list rule the mask picker replaced: ``(candidates, picks)``."""
    placement = set(system.master.stripe(stripe_id).placement)
    candidates = [
        r
        for r in range(system.num_nodes)
        if system.is_alive(r)
        and r not in placement
        and not system.master.is_node_dead(r)
    ]
    if len(candidates) < num_lost:
        return candidates, None
    return candidates, [candidates[(rr + i) % len(candidates)] for i in range(num_lost)]


@st.composite
def programs(draw):
    num_nodes = draw(st.integers(5, 16))
    n = draw(st.integers(3, min(9, num_nodes - 1)))  # a spare at least
    k = draw(st.integers(2, n - 1))
    placement = draw(st.permutations(range(num_nodes)))[:n]
    nodes = st.sampled_from(range(num_nodes))
    return {
        "num_nodes": num_nodes,
        "code": (n, k),
        "placement": placement,
        "crashed": sorted(draw(st.sets(nodes, max_size=num_nodes // 2))),
        "dead": sorted(draw(st.sets(nodes, max_size=num_nodes // 2))),
        "lost": draw(st.lists(st.sampled_from(placement), min_size=1,
                              max_size=n - k, unique=True)),
        "rr": draw(st.integers(0, 10_000)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def check_program(program, system_cls):
    n, k = program["code"]
    system = system_cls(program["num_nodes"], RSCode(n, k), slice_bytes=64)
    data = np.zeros((k, 64), dtype=np.uint8)
    system.write_stripe("s0", data, placement=tuple(program["placement"]))
    for node in program["crashed"]:
        system.fail_node(node)
    for node in program["dead"]:
        system.master.mark_node_dead(node)
    lost = tuple(program["lost"])
    rr = program["rr"]
    candidates, expected = list_rule(system, "s0", len(lost), rr)

    orch = RecoveryOrchestrator(system)
    orch._rr = rr
    picks = orch._pick_requesters("s0", lost)
    if expected is None:
        assert picks is None
        assert orch._rr == rr
    else:
        assert picks == dict(zip(lost, expected))
        assert list(picks) == list(lost)
        assert orch._rr == rr + len(lost)
    assert orch.spread_fallbacks == 0

    reader = ForegroundTraffic(system, ["s0"], seed=program["seed"])._pick_reader("s0")
    rng = np.random.default_rng(program["seed"])
    assert reader == (candidates[int(rng.integers(len(candidates)))]
                      if candidates else None)


def run_property(system_cls):
    @settings(max_examples=300, deadline=None)
    @given(programs())
    def prop(program):
        check_program(program, system_cls)

    prop()


def test_cluster_picks_equal_the_list_rule():
    run_property(cluster_system.ClusterSystem)


def test_a_cluster_that_ignores_the_master_dead_set_fails(monkeypatch):
    line = "~(self.down | self.master.dead)"
    source = inspect.getsource(cluster_system)
    assert source.count(line) == 1
    module = types.ModuleType("system_mutant")
    module.__package__ = cluster_system.__package__
    monkeypatch.setitem(sys.modules, module.__name__, module)  # for @dataclass
    exec(compile(source.replace(line, "~self.down"), "<mutant>", "exec"),
         module.__dict__)
    with pytest.raises(AssertionError):
        run_property(module.ClusterSystem)
