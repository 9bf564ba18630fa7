"""Shared benchmark configuration.

Every benchmark regenerates one paper artefact (Table I, Figs. 4-8) and
writes the paper-style rendering to ``benchmarks/out/<name>.txt`` in
addition to the pytest-benchmark timing table.  The scale constants
below give a few minutes of total runtime; the paper-scale values are
noted next to each.
"""

from __future__ import annotations

import json
import pathlib

#: Where rendered tables/series land.
OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Repository root — machine-readable regression artefacts
#: (``BENCH_*.json``) land here so CI diffs them in one place.
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The paper's RS parameterisations (§V-B).
CODES = ((6, 4), (9, 6), (12, 8), (14, 10))

#: Workloads evaluated (§V-B).
WORKLOADS = ("tpcds", "tpch", "swim")

#: Repair instances sampled per (workload, n, k) cell.  Paper: 100.
NUM_SAMPLES = 12

#: Trace length to sample from.  Paper: 6000.
NUM_SNAPSHOTS = 1500

#: PPT emulation budget for experiment sweeps (exactness is preserved by
#: oracle seeding; this only bounds the brute-force emulation cost).
PPT_BUDGET = 3000

#: Master seed for every benchmark.
SEED = 2023

ALGO_KWARGS = {"ppt": {"max_emulations": PPT_BUDGET}}


def write_report(name: str, text: str) -> pathlib.Path:
    """Persist a rendered artefact and echo it to stdout."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")
    return path


def write_json_report(
    name: str, payload: dict, path: pathlib.Path | None = None
) -> pathlib.Path:
    """Persist a machine-readable artefact as ``BENCH_<name>.json``.

    Written at the repository root by default (stable keys, sorted,
    indented) so perf regressions show up as reviewable diffs; tests
    pass an explicit ``path`` to keep smoke output out of the tree.
    """
    if path is None:
        path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def quantile(samples, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample list.

    Matches ``numpy.percentile``'s default; implemented locally so the
    timing path stays free of array conversions for small sample sets.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac
