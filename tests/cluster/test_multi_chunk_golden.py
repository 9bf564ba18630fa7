"""Golden multi-chunk repairs: every unwatched entry point, field for field.

``repair_multi``, ``repair_node`` (both strategies) and
``repair_multi_async`` (with and without a deadline) each run on a
14-node RS(9, 6) cluster under six fault scenarios and two algorithms.
A case records every outcome field, whether the rebuilt bytes equal the
lost chunk, the event-queue counters, the span count, the assemblies
left registered and the final placement of every stripe — or the
exception the call raised.  A change to how these entry points dispatch,
settle or close their chunks must reproduce the fixture exactly.

Regenerate (``python -m tests.cluster.test_multi_chunk_golden``) only
for a change that is *meant* to move a multi-chunk outcome.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.cluster import ClusterSystem
from repro.ec import RSCode
from repro.net import BandwidthSnapshot
from repro.obs import Tracer

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_multi_chunk.json")
NUM_NODES = 14
N, K = 9, 6
CHUNK = 16 * 1024
#: stripe -> placement; node 1 holds a chunk of every stripe
STRIPES = {
    "s0": tuple(range(N)),
    "s1": (1, 2, 3, 9, 10, 11, 12, 13, 0),
    "s2": (5, 6, 7, 8, 9, 10, 11, 12, 1),
}
#: the multi-chunk entries rebuild chunks 1 and 4 of ``s0``
MULTI_LOST = (1, 4)
MULTI_REQUESTERS = {1: 12, 4: 13}
#: the full-node entries rebuild every chunk node 1 held
NODE_LOST = 1
DEADLINE_S = 0.01
ENTRIES = (
    "repair_multi",
    "repair_node-batched",
    "repair_node-sequential",
    "repair_multi_async",
    "repair_multi_async-deadline",
)
FAULTS = (
    "clean",
    "helper-crash",
    "rot-outside-plan",
    "silent-rot",
    "wire-corruption",
    "deadline-expiry",
)
ALGORITHMS = ("fullrepair", "conventional")


def build(algorithm: str):
    """The cluster with every stripe written and the entry's nodes still up.

    Returns ``(system, tracer, originals)``; ``originals`` maps
    ``(stripe, chunk index)`` to the stored payload.
    """
    tracer = Tracer()
    system = ClusterSystem(
        NUM_NODES, RSCode(N, K), slice_bytes=4096, algorithm=algorithm,
        tracer=tracer,
    )
    rng = np.random.default_rng(5)
    system.set_bandwidth(
        BandwidthSnapshot(
            uplink=rng.uniform(300.0, 1000.0, NUM_NODES),
            downlink=rng.uniform(300.0, 1000.0, NUM_NODES),
        )
    )
    originals = {}
    for sid, placement in STRIPES.items():
        data = rng.integers(0, 256, (K, CHUNK), dtype=np.uint8)
        system.write_stripe(sid, data, placement=placement)
        for ci, node in enumerate(placement):
            originals[(sid, ci)] = system.nodes[node].store.get(sid, ci)
    return system, tracer, originals


def fail(system, entry: str) -> None:
    for node in MULTI_LOST if entry.startswith("repair_multi") else (NODE_LOST,):
        system.fail_node(node)


def run_entry(system, entry: str):
    """Outcomes keyed as the entry keys them; ``None`` when an async
    call never reported."""
    if entry == "repair_multi":
        return system.repair_multi("s0", MULTI_LOST, MULTI_REQUESTERS)
    if entry.startswith("repair_node"):
        return system.repair_node(NODE_LOST, strategy=entry.split("-")[1])
    done = []
    system.repair_multi_async(
        "s0", MULTI_LOST, MULTI_REQUESTERS, on_done=done.append,
        deadline_s=DEADLINE_S if entry.endswith("deadline") else None,
    )
    system.events.run()
    return done[0] if done else None


def probe(algorithm: str, entry: str):
    """A clean run of the entry: its first plan's helpers and its span."""
    system, _, _ = build(algorithm)
    fail(system, entry)
    outcomes = run_entry(system, entry)
    first = next(iter(outcomes.values()))
    helpers = sorted({e.child for p in first.plan.pipelines for e in p.edges})
    sid = "s0" if entry.startswith("repair_multi") else next(iter(outcomes))
    elapsed = max(o.elapsed_seconds for o in outcomes.values())
    return sid, helpers, elapsed


def arm(system, fault: str, sid: str, helpers, elapsed: float) -> None:
    """Apply one fault scenario, aimed at the first plan's first helper."""
    loc = system.master.stripe(sid)
    victim = helpers[0]
    if fault == "helper-crash":
        system.events.schedule(0.5 * elapsed, lambda: system.fail_node(victim))
    elif fault == "rot-outside-plan":
        # a live survivor the plan does not read (the first helper when
        # the plan reads every survivor)
        spare = [
            n for n in loc.placement
            if system.is_alive(n) and n not in helpers
        ]
        node = spare[0] if spare else victim
        assert system.corrupt_chunk(node, sid, loc.chunk_on(node))
    elif fault == "silent-rot":
        assert system.corrupt_chunk(
            victim, sid, loc.chunk_on(victim), fix_digest=True
        )
    elif fault == "wire-corruption":
        system.events.schedule(
            0.25 * elapsed,
            lambda: system.corrupt_wire(victim, 0.5 * elapsed, seed=1),
        )
    elif fault == "deadline-expiry":
        # slow enough that the deadline entry misses DEADLINE_S
        system.set_rate_cap(victim, 0.5)


def outcome_record(outcome, original) -> dict:
    return {
        "status": outcome.status,
        "verified": outcome.verified,
        "attempts": outcome.attempts,
        "retries": outcome.retries,
        "replans": outcome.replans,
        "elapsed_seconds": outcome.elapsed_seconds,
        "bytes_received": outcome.bytes_received,
        "bytes_retransferred": outcome.bytes_retransferred,
        "failure_reason": outcome.failure_reason,
        "corruption_detected": outcome.corruption_detected,
        "quarantined_chunks": list(outcome.quarantined_chunks),
        "rebuilt_equal": (
            None if outcome.rebuilt is None
            else bool(np.array_equal(outcome.rebuilt, original))
        ),
    }


def run_case(algorithm: str, entry: str, fault: str) -> dict:
    sid, helpers, elapsed = probe(algorithm, entry)
    system, tracer, originals = build(algorithm)
    fail(system, entry)
    arm(system, fault, sid, helpers, elapsed)
    record: dict = {}
    try:
        outcomes = run_entry(system, entry)
    except RuntimeError as exc:
        record["raises"] = f"RuntimeError: {exc}"
    else:
        if outcomes is None:
            record["outcomes"] = None
        else:
            record["outcomes"] = {
                str(key): outcome_record(
                    o,
                    originals[("s0", STRIPES["s0"].index(key))]
                    if entry.startswith("repair_multi")
                    else originals[(key, STRIPES[key].index(NODE_LOST))],
                )
                for key, o in outcomes.items()
            }
    record.update(
        executed=system.events.executed,
        peak_pending=system.events.peak_pending,
        spans=sum(1 for _ in tracer.spans()),
        open_assemblies=len(system._assemblies),
        placement={
            s: list(system.master.stripe(s).placement) for s in STRIPES
        },
    )
    return record


def case_ids():
    return [
        f"{algorithm}/{entry}/{fault}"
        for algorithm in ALGORITHMS
        for entry in ENTRIES
        for fault in FAULTS
    ]


def capture_golden() -> dict:
    """``{"<algorithm>/<entry>/<fault>": record}`` — what the fixture holds."""
    # through JSON, so tuples and ints compare as the fixture holds them
    return {
        case: json.loads(json.dumps(run_case(*case.split("/"))))
        for case in case_ids()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(case_ids())


@pytest.mark.parametrize("case", case_ids())
def test_case_matches_fixture(golden, case):
    actual = json.loads(json.dumps(run_case(*case.split("/"))))
    assert actual == golden[case]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture_golden(), indent=1) + "\n")
