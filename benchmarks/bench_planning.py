"""Planning fast-path perf harness — machine-readable regression gate.

Times the control-plane hot path end to end and writes
``BENCH_planning.json`` at the repository root:

* per-algorithm, per-(n, k) plan-construction latency (median / p99 /
  mean over individually-timed rounds);
* plan-cache behaviour: hit rate over a jittered-bandwidth request
  stream, hit/miss latency, and the resulting speedup.

GF(2^8) kernel throughput lives in ``BENCH_ec.json``
(:mod:`benchmarks.bench_ec_throughput`), per backend.

Run directly (``python -m benchmarks.bench_planning``), or with
``--smoke`` for a sub-30-second pass used by the test suite to validate
the report schema.  A plain script: its artefact is the JSON.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from time import perf_counter

import numpy as np

from benchmarks.common import CODES, REPO_ROOT, SEED, quantile, write_json_report
from repro.analysis import make_fixed_context
from repro.core.plancache import PlanCache
from repro.net.bandwidth import BandwidthSnapshot, RepairContext
from repro.repair import get_algorithm

SCHEMA_VERSION = 2  # 2: no fullrepair_seed row, no fullrepair_speedup_vs_seed

#: Algorithms timed per code.
ALGORITHMS = ("fullrepair", "pivotrepair", "rp")


def _time_rounds(fn, contexts, rounds: int) -> list[float]:
    """Per-call wall times (seconds) of ``fn`` cycling over ``contexts``."""
    fn(contexts[0])  # warm up: table builds, registry imports, JIT-less but fair
    samples = []
    for i in range(rounds):
        ctx = contexts[i % len(contexts)]
        start = perf_counter()
        fn(ctx)
        samples.append(perf_counter() - start)
    return samples


def _stats_us(samples: list[float]) -> dict:
    return {
        "median_us": quantile(samples, 0.5) * 1e6,
        "p99_us": quantile(samples, 0.99) * 1e6,
        "mean_us": sum(samples) / len(samples) * 1e6,
        "rounds": len(samples),
    }


def _bench_planning(codes, rounds: int, num_contexts: int) -> dict:
    out: dict[str, dict] = {}
    for n, k in codes:
        contexts = [
            make_fixed_context(n, k, seed=SEED + i) for i in range(num_contexts)
        ]
        out[f"n{n}_k{k}"] = {
            name: _stats_us(_time_rounds(get_algorithm(name).plan, contexts, rounds))
            for name in ALGORITHMS
        }
    return out


def _bench_plan_cache(rounds: int) -> dict:
    """Hit rate + latency over a jittered steady-state request stream.

    Models the master's steady state: bandwidth reports wobble well
    below the cache quantum between repair requests, so after the first
    request every lookup hits.
    """
    n, k = 14, 10
    base = make_fixed_context(n, k, seed=SEED)
    cache = PlanCache(max_entries=64)
    algo = get_algorithm("fullrepair")
    # bucket-aligned base so sub-quantum jitter stays inside one bucket
    up0 = np.floor(base.snapshot.uplink)
    down0 = np.floor(base.snapshot.downlink)
    rng = np.random.default_rng(SEED)
    hit_times, miss_times = [], []
    for i in range(rounds):
        jitter_up = rng.uniform(0.0, 0.99, up0.shape)
        jitter_down = rng.uniform(0.0, 0.99, down0.shape)
        ctx = RepairContext(
            snapshot=BandwidthSnapshot(up0 + jitter_up, down0 + jitter_down),
            requester=base.requester,
            helpers=base.helpers,
            k=base.k,
            chunk_index=dict(base.chunk_index),
        )
        start = perf_counter()
        plan = cache.get_or_compute(algo, ctx)
        elapsed = perf_counter() - start
        (hit_times if plan.meta["plan_cache"] == "hit" else miss_times).append(elapsed)
    result = {
        "lookups": cache.stats.lookups,
        "hit_rate": cache.stats.hit_rate,
        "hit_median_us": quantile(hit_times, 0.5) * 1e6 if hit_times else None,
        "miss_median_us": quantile(miss_times, 0.5) * 1e6 if miss_times else None,
    }
    if hit_times and miss_times:
        result["hit_speedup_vs_miss"] = (
            result["miss_median_us"] / result["hit_median_us"]
        )
    return result


def run(smoke: bool = False, out_path=None) -> dict:
    """Execute the harness and write ``BENCH_planning.json``; returns it.

    ``out_path`` overrides the default repo-root location (used by the
    schema test so a smoke pass never overwrites the full-run artefact).
    """
    if smoke:
        codes = ((6, 4), (14, 10))
        rounds, num_contexts = 40, 4
        cache_rounds = 60
    else:
        codes = CODES
        rounds, num_contexts = 300, 8
        cache_rounds = 400
    report = {
        "benchmark": "planning",
        "schema_version": SCHEMA_VERSION,
        "config": {
            "smoke": smoke,
            "seed": SEED,
            "rounds": rounds,
            "contexts_per_code": num_contexts,
        },
        "planning": _bench_planning(codes, rounds, num_contexts),
        "plan_cache": _bench_plan_cache(cache_rounds),
    }
    path = write_json_report("planning", report, path=out_path)
    print(f"wrote {path}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast (<30 s) pass with reduced rounds; same report schema",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="report path (default: BENCH_planning.json at the repo root; "
        "smoke runs default to BENCH_planning.smoke.json so they never "
        "overwrite the committed full-run artefact)",
    )
    args = parser.parse_args(argv)
    out_path = args.out
    if out_path is None and args.smoke:
        out_path = REPO_ROOT / "BENCH_planning.smoke.json"
    report = run(smoke=args.smoke, out_path=out_path)
    for code, cell in report["planning"].items():
        print(
            f"{code}: "
            + ", ".join(f"{a} {cell[a]['median_us']:.1f} us" for a in ALGORITHMS)
            + " (median)"
        )
    cache = report["plan_cache"]
    print(
        f"plan cache: hit rate {cache['hit_rate']:.3f}, "
        f"hit {cache['hit_median_us']:.1f} us vs miss {cache['miss_median_us']:.1f} us"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
