"""Golden layouts: the pipelines Algorithm 2 emits, bit for bit.

The fast-path tests pin the planner to :mod:`tests.core.reference_planner`
within float-ulp noise; this fixture pins it to *itself*: a digest of
every emitted ``(task_id, segment, edges)`` — floats by their hex form,
so one moved ulp or one re-ordered edge changes it — for 240 contexts
drawn over the paper's four codes and three traces.  A change to how
the layout is computed (cut columns, tick quantisation, record types)
must reproduce it exactly.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

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


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture_golden(), indent=1) + "\n")
