"""Recorded requester picks: the domain-aware picker, program by program.

``RecoveryOrchestrator._pick_requesters`` chooses rebuild targets:
live disks outside the placement, round-robin from the orchestrator's
cursor, skipping disks whose ``spread_level`` domain already holds
``max_per_domain`` chunks of the stripe, and falling back to the plain
round-robin (counted in ``spread_fallbacks``) when no compliant disk is
left.  ``golden_picks.json`` holds a fixed set of programs — fleet
shape, spread level, cap, placement, down disks, lost chunks, cursor —
and what the picker answered for each.  The picker must reproduce every
row exactly, and two mutants of it must not.
"""

from __future__ import annotations

import inspect
import json
import pathlib
import sys
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.recovery.orchestrator as orchestrator
from repro.lifetime import RepairModel, StripeTable, StripeTableSystem
from repro.net.topology import DomainTree
from repro.sim.events import EventQueue

pytestmark = pytest.mark.lifetime

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_picks.json")

#: (racks, machines per rack, disks per machine) of the fleets drawn from
SHAPES = ((2, 2, 2), (3, 2, 2), (2, 4, 2), (4, 2, 4), (4, 4, 4))


def draw_programs(count: int = 400, seed: int = 33) -> list[dict]:
    """``count`` picker inputs, from tight fleets (fallbacks, no spare
    at all) to the benchmark's 64-disk shape."""
    rng = np.random.default_rng(seed)
    programs = []
    for _ in range(count):
        shape = SHAPES[rng.integers(len(SHAPES))]
        disks = shape[0] * shape[1] * shape[2]
        n = int(rng.integers(3, min(disks - 1, 14) + 1))
        placement = rng.choice(disks, n, replace=False).tolist()
        lost = rng.choice(placement, int(rng.integers(1, min(n, 4) + 1)),
                          replace=False).tolist()
        p_down = (0.0, 0.1, 0.3, 0.6)[rng.integers(4)]
        programs.append({
            "shape": list(shape),
            "level": ("machine", "rack")[rng.integers(2)],
            "cap": int(rng.integers(1, 3)),
            "placement": placement,
            "down": np.flatnonzero(rng.random(disks) < p_down).tolist(),
            "lost": lost,
            "rr": int(rng.integers(10_000)),
        })
    return programs


def one_group_fleet(tree, placement, down_disks):
    """``(table, system)``: one placement group on ``tree``'s disks."""
    down = [False] * tree.num_disks
    for d in down_disks:
        down[d] = True
    table = StripeTable(1, np.array([placement]), k=1)
    system = StripeTableSystem(
        table, tree, EventQueue(), down, repair_model=RepairModel()
    )
    return table, system


def run_program(program: dict, orchestrator_cls) -> dict:
    """One ``_pick_requesters`` call on a one-group fleet."""
    racks, machines, disks = program["shape"]
    tree = DomainTree.uniform(
        racks_per_dc=racks, machines_per_rack=machines,
        disks_per_machine=disks,
    )
    table, system = one_group_fleet(tree, program["placement"], program["down"])
    orch = orchestrator_cls(
        system, tree=tree, spread_level=program["level"],
        max_per_domain=program["cap"],
    )
    orch._rr = program["rr"]
    picks = orch._pick_requesters(table.group_ids[0], tuple(program["lost"]))
    return {
        "picks": None if picks is None else [[f, d] for f, d in picks.items()],
        "fallbacks": orch.spread_fallbacks,
        "rr": orch._rr,
    }


def capture_golden() -> list[dict]:
    """``[{"program": …, "answer": …}]`` — what the fixture holds.

    The committed fixture was captured with the picker that walked the
    live-disk list in a generator, before the picker moved to disk
    masks; regenerate it (``python -m tests.lifetime.test_requester_picks``)
    only for a change that is *meant* to move rebuild placement.
    """
    return [
        {"program": p, "answer": run_program(p, orchestrator.RecoveryOrchestrator)}
        for p in draw_programs()
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_the_hard_paths(golden):
    answers = [row["answer"] for row in golden]
    programs = [row["program"] for row in golden]
    assert sum(a["picks"] is None for a in answers) >= 5  # width < lost
    assert sum(a["fallbacks"] > 0 for a in answers) >= 20
    assert sum(a["fallbacks"] == 0 and bool(a["picks"]) for a in answers) >= 100
    assert {(p["level"], p["cap"]) for p in programs} == {
        (level, cap) for level in ("machine", "rack") for cap in (1, 2)
    }
    assert max(len(p["lost"]) for p in programs) == 4


def test_picker_matches_fixture_exactly(golden):
    for i, row in enumerate(golden):
        answer = run_program(row["program"], orchestrator.RecoveryOrchestrator)
        assert answer == row["answer"], f"program {i}: {row['program']}"


# --------------------------------------------------------------------- #
# the fixture has teeth: mutants of the picker must fail it              #
# --------------------------------------------------------------------- #

#: name -> (source line, its mutant, occurrences in the picker)
MUTANTS = {
    "start_one_candidate_late": (
        "j = (self._rr + i) % width", "j = (self._rr + i + 1) % width", 1
    ),
    "cap_as_strict_greater": (".bit_count() >= cap:", ".bit_count() > cap:", 1),
    # the full-domain rule, read from the whole placement mask: a lost
    # node's domain stays marked full
    "full_counts_lost_chunks": ("count = kept\n", "count = mask\n", 1),
    # one clearing round short: a cap-2 domain holding one chunk is full
    "full_one_round_short": ("range(cap - 1)", "range(cap - 2)", 1),
    # a field holding only its highest bit reads empty
    "full_misses_top_node": (
        "| count) & tops\n", ") & tops\n", 2
    ),
}


def _mutant(name: str, monkeypatch) -> types.ModuleType:
    line, replacement, occurrences = MUTANTS[name]
    source = inspect.getsource(orchestrator)
    assert source.count(line) == occurrences
    module = types.ModuleType("orchestrator_mutant")
    module.__package__ = orchestrator.__package__
    monkeypatch.setitem(sys.modules, module.__name__, module)  # for @dataclass
    exec(compile(source.replace(line, replacement), "<mutant>", "exec"),
         module.__dict__)
    return module


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_mutant_picker_fails_the_fixture(name, golden, monkeypatch):
    mutant = _mutant(name, monkeypatch)
    for row in golden:
        if run_program(row["program"], mutant.RecoveryOrchestrator) != row["answer"]:
            return
    pytest.fail(f"mutant {name} reproduced every recorded pick")


if __name__ == "__main__":
    rows = (json.dumps(row) for row in capture_golden())
    GOLDEN_PATH.write_text("[\n" + ",\n".join(rows) + "\n]\n")


# --------------------------------------------------------------------- #
# the field-wise full-domain rule equals counting each domain            #
# --------------------------------------------------------------------- #


def slot_loop_picks(tree, level, cap, live, placement, lost, rr):
    """``(picks, fallbacks)`` of the picker as it was before the
    placement mask was kept: the placement mask built slot by slot, and
    each slot's domain counted against ``cap`` (test-only)."""
    domain_of = tree.disk_domains(level).tolist()
    masks = [0] * (max(domain_of) + 1)
    for disk, dom in enumerate(domain_of):
        masks[dom] |= 1 << disk
    peers = [masks[dom] for dom in domain_of]
    live_mask = sum(1 << d for d in live)
    placement_mask = 0
    for d in placement:
        placement_mask |= 1 << d
    held = placement_mask & live_mask
    width = len(live) - held.bit_count()
    if width < len(lost):
        return None, 0
    free = live_mask & ~placement_mask
    kept = placement_mask
    for f in lost:
        kept &= ~(1 << f)
    full = 0
    for d in placement:
        if (kept & peers[d]).bit_count() >= cap:
            full |= peers[d]
    chosen, fallbacks = {}, 0
    for i, f in enumerate(lost):
        j = (rr + i) % width
        at = j
        while (nxt := j + (held & ((2 << live[at]) - 1)).bit_count()) != at:
            at = nxt
        below = (1 << live[at]) - 1
        pool = free & ~full
        if not pool:
            fallbacks += 1
            pool = free
        pool = (pool & ~below) or pool
        pick = (pool & -pool).bit_length() - 1
        free ^= 1 << pick
        kept |= 1 << pick
        chosen[f] = pick
        if (kept & peers[pick]).bit_count() >= cap:
            full |= peers[pick]
    return chosen, fallbacks


def ragged_racks(num_disks: int, per_rack: int) -> DomainTree:
    """One-disk machines in racks of ``per_rack``, the last one short."""
    return DomainTree(
        machine_of=tuple(range(num_disks)),
        rack_of=tuple(i // per_rack for i in range(num_disks)),
        dc_of=(0,) * -(-num_disks // per_rack),
    )


@st.composite
def fleets(draw):
    """A tree (uniform, or racks with a short last one), a level of it,
    a cap of 1-3, a placement with lost chunks, down disks, a cursor."""
    if draw(st.booleans()):
        tree = DomainTree.uniform(
            dcs=draw(st.integers(1, 2)), racks_per_dc=draw(st.integers(1, 4)),
            machines_per_rack=draw(st.integers(1, 4)),
            disks_per_machine=draw(st.integers(1, 4)),
        )
        level = draw(st.sampled_from(["disk", "machine", "rack", "dc"]))
    else:
        tree = ragged_racks(draw(st.integers(3, 40)), draw(st.integers(2, 7)))
        level = draw(st.sampled_from(["machine", "rack", "dc"]))
    disks = tree.num_disks
    assume(disks >= 3)
    placement = draw(st.permutations(range(disks)))[: draw(st.integers(2, min(disks - 1, 14)))]
    lost = draw(st.lists(st.sampled_from(placement), min_size=1,
                         max_size=min(len(placement), 4), unique=True))
    down = draw(st.sets(st.integers(0, disks - 1), max_size=disks // 2))
    return {
        "tree": tree, "level": level, "cap": draw(st.integers(1, 3)),
        "placement": placement, "lost": lost, "down": sorted(down),
        "rr": draw(st.integers(0, 10_000)),
    }


@settings(max_examples=400, deadline=None)
@given(fleets())
def test_field_rule_equals_counting_each_domain(fleet):
    tree = fleet["tree"]
    table, system = one_group_fleet(tree, fleet["placement"], fleet["down"])
    orch = orchestrator.RecoveryOrchestrator(
        system, tree=tree, spread_level=fleet["level"],
        max_per_domain=fleet["cap"],
    )
    orch._rr = fleet["rr"]
    picks = orch._pick_requesters(table.group_ids[0], tuple(fleet["lost"]))
    assert (picks, orch.spread_fallbacks) == slot_loop_picks(
        tree, fleet["level"], fleet["cap"], system.live, fleet["placement"],
        fleet["lost"], fleet["rr"],
    )


@pytest.mark.parametrize(
    "machine_of, rack_of",
    [
        ((0, 1, 0, 1), (0, 0)),  # interleaved machines
        ((0, 0, 0, 1, 1, 2, 2, 2), (0, 0, 0)),  # a short middle machine
        ((1, 1, 0, 0), (0, 0)),  # machines out of disk order
    ],
)
def test_domains_that_are_not_aligned_runs_are_refused(machine_of, rack_of):
    tree = DomainTree(machine_of=machine_of, rack_of=rack_of, dc_of=(0,))
    _, system = one_group_fleet(tree, [0, 1], [])
    with pytest.raises(ValueError, match="runs of one width"):
        orchestrator.RecoveryOrchestrator(system, tree=tree)
    # the rack level of the same tree is one run, and is accepted
    orchestrator.RecoveryOrchestrator(system, tree=tree, spread_level="rack")


def test_a_cap_below_one_is_refused():
    tree = DomainTree.uniform()
    _, system = one_group_fleet(tree, [0, 1, 2], [])
    with pytest.raises(ValueError, match="max_per_domain"):
        orchestrator.RecoveryOrchestrator(system, tree=tree, max_per_domain=0)
