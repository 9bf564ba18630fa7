"""Golden layouts: the pipelines Algorithm 2 emits, bit for bit.

The fast-path tests pin the planner to :mod:`tests.core.reference_planner`
within float-ulp noise; this fixture pins it to *itself*: a digest of
every emitted ``(task_id, segment, edges)`` — floats by their hex form,
so one moved ulp or one re-ordered edge changes it — for 240 contexts
drawn over the paper's four codes and three traces.  A change to how
the layout is computed (cut columns, tick quantisation, record types)
must reproduce it exactly.  The contexts reach every layout path — a
full-row task, a task cut twice or more, the residual-tick
distribution and a flow-completion plan — and mutants of the layout
and of TASKASSIGN's priority order must each fail the fixture.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import pathlib
import sys
import types
from collections import Counter

import pytest

import repro.core.fullrepair as fullrepair
import repro.core.scheduling as scheduling
from repro.analysis.experiments import sample_contexts
from repro.repair.base import get_algorithm
from repro.workloads import make_trace

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_layouts.json")
CODES = ((6, 4), (9, 6), (12, 8), (14, 10))
TRACES = ("tpcds", "tpch", "swim")
DRAWS = 20
#: not the benchmark's seed: the fixture is a second, independent sample
SEED = 77


def layout_fingerprint(plans) -> dict:
    digest = hashlib.sha256()
    pipelines = edges = 0
    for plan in plans:
        for p in plan.pipelines:
            pipelines += 1
            edges += len(p.edges)
            record = (
                p.task_id,
                float(p.segment.start).hex(),
                float(p.segment.stop).hex(),
                [(e.child, e.parent, float(e.rate).hex()) for e in p.edges],
            )
            digest.update(repr(record).encode())
    return {
        "contexts": len(plans),
        "pipelines": pipelines,
        "edges": edges,
        "sha256": digest.hexdigest(),
    }


def golden_plans(workload: str, n: int, k: int) -> list:
    trace = make_trace(workload, num_nodes=16, num_snapshots=400, seed=SEED)
    algorithm = get_algorithm("fullrepair")
    return [
        algorithm.plan(ctx) for ctx in sample_contexts(trace, n, k, DRAWS, seed=SEED)
    ]


def capture_golden() -> dict:
    """``{"<trace>-<n>-<k>": fingerprint}`` — what the fixture holds.

    The committed fixture was captured at the parent of the PR that made
    ``Edge`` / ``Segment`` tuple-backed and the cut columns incremental;
    regenerate it (``python -m tests.core.test_layout_golden``) only for
    a change that is *meant* to move emitted plans.
    """
    return {
        f"{workload}-{n}-{k}": layout_fingerprint(golden_plans(workload, n, k))
        for workload in TRACES
        for n, k in CODES
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_the_papers_codes(golden):
    assert sorted(golden) == sorted(
        f"{workload}-{n}-{k}" for workload in TRACES for n, k in CODES
    )
    assert sum(g["contexts"] for g in golden.values()) >= 200
    # only worth pinning if the wrap-around layout actually cut rows:
    # more pipelines than one per task means interior cut columns ran
    assert all(g["pipelines"] > 2 * g["contexts"] for g in golden.values())


@pytest.mark.parametrize("workload", TRACES)
@pytest.mark.parametrize("code", CODES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_layout_matches_fixture_bit_for_bit(golden, workload, code):
    n, k = code
    plans = golden_plans(workload, n, k)
    assert layout_fingerprint(plans) == golden[f"{workload}-{n}-{k}"]


# --------------------------------------------------------------------- #
# the fixture reaches every layout path, and mutants of them fail it     #
# --------------------------------------------------------------------- #


def test_fixture_reaches_every_layout_path(monkeypatch):
    """Full-row tasks, >= 2 cuts, residual ticks and flow completion."""
    results = []
    residual = []

    def recording(*args, **kwargs):
        result = real_schedule(*args, **kwargs)
        results.append(result)
        return result

    def counting(task, ticks):
        residual.append(task.task_id)
        return real_quantize(task, ticks)

    real_schedule = scheduling.schedule_tasks
    real_quantize = scheduling._quantize_amounts
    monkeypatch.setattr(fullrepair, "schedule_tasks", recording)
    monkeypatch.setattr(scheduling, "_quantize_amounts", counting)
    for workload in TRACES:
        for n, k in CODES:
            golden_plans(workload, n, k)
    assert len(results) == len(TRACES) * len(CODES) * DRAWS
    full_row = [
        t
        for r in results
        for t in r.tasks
        if len(t.amounts) == t.slots and all(a == t.speed for a in t.amounts.values())
    ]
    two_cuts = [
        tid
        for r in results
        for tid, count in Counter(p.task_id for p in r.pipelines).items()
        if count >= 3
    ]
    assert full_row and two_cuts and residual
    assert any(r.flow_completion_used for r in results)


#: each mutant is a (production text, mutated text) replacement
MUTANTS = {
    # the full-row column in ascending node order, not first-contribution
    "full_row_ascending": (
        "column = list(amounts)  # full rows",
        "column = sorted(amounts)  # full rows",
    ),
    # each cut column takes the hand-overs of its right-hand cut instead
    # of its own (the column is carried left to right, so an off-by-one
    # cut shifts every later column)
    "handover_one_cut_late": (
        "for row, u in takeovers[lo]:",
        "for row, u in takeovers.get(hi, ()):",
    ),
    # TASKASSIGN keeps the standing order after a node's picks
    "no_resort_after_picks": (
        "keys[j] = (complete - parts[j], 0, tid[j])\n                stale = True",
        "keys[j] = (complete - parts[j], 0, tid[j])",
    ),
}


def _mutant(name: str, monkeypatch) -> types.ModuleType:
    old, new = MUTANTS[name]
    source = inspect.getsource(scheduling)
    assert source.count(old) == 1
    module = types.ModuleType("scheduling_mutant")
    module.__package__ = scheduling.__package__
    monkeypatch.setitem(sys.modules, module.__name__, module)  # for @dataclass
    exec(compile(source.replace(old, new), "<mutant>", "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_mutant_layout_fails_the_fixture(name, golden, monkeypatch):
    monkeypatch.setattr(
        fullrepair, "schedule_tasks", _mutant(name, monkeypatch).schedule_tasks
    )
    for workload in TRACES:
        for n, k in CODES:
            key = f"{workload}-{n}-{k}"
            if layout_fingerprint(golden_plans(workload, n, k)) != golden[key]:
                return
    pytest.fail(f"mutant {name} reproduced every fingerprint")


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture_golden(), indent=1) + "\n")
