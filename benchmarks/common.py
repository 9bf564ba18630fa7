"""Constants and helpers shared by the ``bench_*`` harnesses and
:mod:`benchmarks.reproduction`.
"""

from __future__ import annotations

import json
import pathlib

#: Where ``bench_sim_engine``'s profiler artefacts land.
OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Repository root — machine-readable regression artefacts
#: (``BENCH_*.json``) land here so CI diffs them in one place.
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The paper's RS parameterisations (§V-B).
CODES = ((6, 4), (9, 6), (12, 8), (14, 10))

#: Master seed for every benchmark.
SEED = 2023


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
