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


def run_program(program: dict, orchestrator_cls) -> dict:
    """One ``_pick_requesters`` call on a one-group fleet."""
    racks, machines, disks = program["shape"]
    tree = DomainTree.uniform(
        racks_per_dc=racks, machines_per_rack=machines,
        disks_per_machine=disks,
    )
    down = [False] * tree.num_disks
    for d in program["down"]:
        down[d] = True
    table = StripeTable(1, np.array([program["placement"]]), k=1)
    system = StripeTableSystem(
        table, tree, EventQueue(), down, repair_model=RepairModel()
    )
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
    "cap_as_strict_greater": (".bit_count() >= cap:", ".bit_count() > cap:", 2),
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
