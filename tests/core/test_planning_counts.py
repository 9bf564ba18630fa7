"""Count gate: planning and validating a plan allocates per edge, once.

One (14,10) FullRepair context is planned and validated below.  A plan
is the unit of validation and of allocation: ``validate`` reads the
edges it is given — no ``Flow`` wrapper per edge, no NumPy array built
from Python lists — and the layout builds each emitted ``Edge`` exactly
once, as a record with no per-instance ``__dict__``.  Counts, unlike
timings, are the same on every machine: a change that quietly returns
to an object per edge per check trips this gate by a factor of the
edge count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import sample_contexts
from repro.core.fullrepair import FullRepair
from repro.net.flows import Flow
from repro.repair.plan import Edge
from repro.workloads import make_trace

N, K = 14, 10


@pytest.fixture
def counted(monkeypatch):
    """Call counters on ``Flow``, ``Edge`` and two NumPy constructors."""
    counts = {"Flow": 0, "Edge": 0, "np.array": 0, "np.bincount": 0}

    def counting(owner, attr, key, wrap=lambda f: f):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrap(wrapper))

    counting(Flow, "__post_init__", "Flow")
    counting(Edge, "__new__", "Edge", staticmethod)  # the checking constructor
    counting(Edge, "_unchecked", "Edge", staticmethod)  # the layout's direct one
    counting(np, "array", "np.array")
    counting(np, "bincount", "np.bincount")
    return counts


@pytest.fixture(scope="module")
def context():
    trace = make_trace("tpcds", num_nodes=16, num_snapshots=200, seed=5)
    return sample_contexts(trace, N, K, 1, seed=5)[0]


def test_planning_builds_each_edge_once(counted, context):
    plan = FullRepair().plan(context)
    edges = sum(len(p.edges) for p in plan.pipelines)
    assert len(plan.pipelines) > 1 and edges >= K * len(plan.pipelines)  # teeth
    assert counted["Edge"] == edges  # no throw-away edges
    assert counted["Flow"] == 0


def test_validation_builds_no_flow_and_no_array(counted, context):
    plan = FullRepair().plan(context)
    for key in counted:
        counted[key] = 0
    plan.validate()
    assert counted == {"Flow": 0, "Edge": 0, "np.array": 0, "np.bincount": 0}


def test_plan_records_have_no_instance_dict(context):
    plan = FullRepair().plan(context)
    for p in plan.pipelines:
        assert not hasattr(p.segment, "__dict__")
        assert not any(hasattr(e, "__dict__") for e in p.edges)
    # still immutable, hashable, equal by fields, checked when built by hand
    edge = plan.pipelines[0].edges[0]
    assert edge == Edge(edge.child, edge.parent, edge.rate)
    assert hash(edge) == hash(Edge(edge.child, edge.parent, edge.rate))
    with pytest.raises(AttributeError):
        edge.rate = 1.0
    with pytest.raises(AttributeError):
        plan.pipelines[0].segment.start = 0.5
