"""Correctness and determinism checks that sit outside the workloads.

Three tiers decide ``correct`` for a run:

1. per-op invariants, checked by the workload itself on every op of
   every round (byte-exact rebuilds, ``verified``, bytes sent = k x
   rebuilt on clean repairs, ...);
2. every round of the run — traced rounds included — reproduces round 0's
   records and public counters *bit for bit* (same process, same seed);
3. for the default seed (full and ``--smoke`` sizes each have an
   entry), round 0 equals ``expected.json``, committed from an earlier
   process: integers, strings and booleans exactly,
   floats to 1e-9 relative (another CPU may vectorise a reduction in
   another order; anything past the last few ulps is a change of
   behaviour).  Other seeds have no committed values and stop at 2.

``workload_claims`` holds the two properties a workload's stated reason
depends on: the chaos schedules land inside the repair, and FullRepair
beats PivotRepair on the sweep.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

FLOAT_REL_TOL = 1e-9
#: record lists longer than this are committed as column sums
SUMMARY_ABOVE = 64


def declared_metrics() -> dict:
    """``BENCHMARK.json`` as a dict (the one place names and units live)."""
    return json.loads(BENCHMARK_JSON.read_text())


def workload_claims(workload: str, counters: dict, model: dict) -> list[str]:
    problems = []
    if workload == "repair_chaos":
        share = counters["faults.fired_in_repair_share"]
        if share < 0.5:
            problems.append(
                f"only {share:.0%} of the fault schedule fired inside the repair"
            )
    if workload == "plan_sweep" and model["speedup_vs_pivot"] <= 1.0:
        problems.append(
            f"speedup_vs_pivot = {model['speedup_vs_pivot']:.4f}, not above 1"
        )
    return problems


def summarise(records: list[tuple]) -> list:
    """JSON form of a round's records (column sums when there are many)."""
    if len(records) <= SUMMARY_ABOVE:
        return [list(record) for record in records]
    columns = []
    for column in zip(*records):
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in column):
            floats = any(isinstance(v, float) for v in column)
            columns.append(math.fsum(column) if floats else sum(column))
        else:
            columns.append(sorted(set(map(str, column))))
    return [{"ops": len(records), "column_sums": columns}]


def snapshot(records: list[tuple], counters: dict, model: dict) -> dict:
    """What ``expected.json`` holds for one workload of one seed."""
    return {
        "records": summarise(records),
        "counters": dict(sorted(counters.items())),
        # host timings of the model phase are not outputs of the program
        "model": {k: v for k, v in sorted(model.items()) if not k.endswith("_us_p50")},
    }


def differences(expected, got, path: str = "") -> list[str]:
    """Where ``got`` departs from ``expected`` (floats within tolerance)."""
    if isinstance(expected, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(expected) | set(got)):
            if key not in expected or key not in got:
                out.append(f"{path}/{key}: present on one side only")
            else:
                out += differences(expected[key], got[key], f"{path}/{key}")
        return out
    if isinstance(expected, (list, tuple)) and isinstance(got, (list, tuple)):
        if len(expected) != len(got):
            return [f"{path}: {len(got)} entries, expected {len(expected)}"]
        return [
            d for i, (e, g) in enumerate(zip(expected, got))
            for d in differences(e, g, f"{path}[{i}]")
        ]
    numbers = all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in (expected, got)
    )
    if numbers and (isinstance(expected, float) or isinstance(got, float)):
        same = math.isclose(expected, got, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)
    else:
        same = expected == got
    if same:
        return []
    return [f"{path}: got {got!r}, expected {expected!r}"]


def expected_key(seed: int, smoke: bool) -> str:
    return f"{seed}-smoke" if smoke else str(seed)


def against_expected(
    workload: str, key: str, records, counters, model, path: Path
) -> list[str]:
    """Compare round 0 with the values committed under ``key``."""
    if not path.exists():
        return [f"{path.name} is missing"]
    committed = json.loads(path.read_text()).get(key, {}).get(workload)
    if committed is None:
        return [f"{path.name} has no entry for {key} / {workload}"]
    # through JSON once, so tuples and lists, ints and bools compare alike
    got = json.loads(json.dumps(snapshot(records, counters, model)))
    return [f"{path.name}{d}" for d in differences(committed, got)]


def regenerate(seed: int = 2023, path: Path = EXPECTED_PATH) -> None:
    """Rewrite ``expected.json`` for ``seed`` from one round of each workload.

    Only for a change that *means* to move a deterministic output; the
    diff of this file is then the statement of what moved.
    """
    from .harness import run_round
    from .workloads import WORKLOADS

    data = json.loads(path.read_text()) if path.exists() else {}
    for smoke in (False, True):
        entry = data[expected_key(seed, smoke)] = {}
        for name, cls in WORKLOADS.items():
            wl = cls(seed, smoke)
            rnd = run_round(wl)
            if rnd.problems:
                raise RuntimeError(f"{name}: {rnd.problems[:3]}")
            entry[name] = snapshot(rnd.records, rnd.counters, wl.model())
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
