"""``python3 -m benchmarks.e2e`` — the benchmark's one command.

* ``--workload NAME`` runs that workload in this interpreter and prints
  the result object as the last line of standard output (what the
  driver calls, and what the modes below spawn).
* Without ``--workload`` every workload runs in a fresh interpreter,
  untraced; ``--trace`` adds a traced run of each.  The summary lands in
  ``out/summary.json`` and ends with ``"claim": null``: this command
  measures, it never claims.
* ``--noise N`` repeats the untraced set N times, seed ``--seed + i`` on
  repetition *i*, and prints each end-to-end metric's median, quartiles
  and spread against its bound in ``BENCHMARK.json``.

Exit status is non-zero when any check failed, any op failed, or (with
``--noise``) any spread exceeded its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
_SRC = _ROOT / "src"
if not (_SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"benchmarks.e2e: the program under test is missing ({_SRC / 'repro'})")
# the program is a pure-Python package: "building" it is putting src/ on the path
sys.path.insert(0, str(_SRC))
# the EC backend is pinned to the default for every run of the benchmark
os.environ.pop("REPRO_EC_BACKEND", None)

from . import check, harness  # noqa: E402
from .workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds one run measures (default: run_seconds "
                             "of BENCHMARK.json; 0.5 with --smoke)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--noise", type=int, default=0, metavar="N")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-tests (no committed values apply)")
    parser.add_argument("--out", default=str(harness.DEFAULT_OUT))
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(check.declared_metrics()["run_seconds"])
    return args


def spawn(workload: str, args, *, seed: int, trace: int) -> dict | None:
    """One workload in a fresh interpreter; its output is passed through."""
    command = [
        sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{args.seconds:g}",
        "--trace", str(trace), "--out", args.out,
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, cwd=_ROOT, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"   {workload}: no result (exit status {done.returncode})")
        return None


def run_set(args, *, seed: int, trace: bool) -> tuple[dict, bool]:
    results, ok = {}, True
    for workload in WORKLOADS:
        for traced in (0, 1) if trace else (0,):
            result = spawn(workload, args, seed=seed, trace=traced)
            ok &= bool(result and result["correct"] and not result["failed"])
            results.setdefault(workload, {})["traced" if traced else "untraced"] = result
    return results, ok


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's measure)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def noise(args) -> int:
    bounds = {m["name"]: m["bound"] for m in check.declared_metrics()["end_to_end"]}
    series: dict[tuple[str, str], list[float]] = {}
    ok = True
    for i in range(args.noise):
        results, set_ok = run_set(args, seed=args.seed + i, trace=False)
        ok &= set_ok
        for workload, runs in results.items():
            for name, metric in ((runs["untraced"] or {}).get("metrics") or {}).items():
                series.setdefault((workload, name), []).append(metric["value"])
    print(f"\nnoise over {args.noise} sets, seeds {args.seed}..{args.seed + args.noise - 1}")
    print(f"{'workload':<18} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for (workload, name), values in series.items():
        if len(values) < 2:
            continue
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        s = spread(values)
        # the driver exempts setup_s from the spread rule, not from the bound
        over = s > bounds[name] and name != "setup_s"
        ok &= not over
        print(f"{workload:<18} {name:<16} {statistics.median(values):12.6g} {q1:12.6g} "
              f"{q3:12.6g} {s:8.3f} {bounds[name]:6.2f}{'  OVER' if over else ''}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload:
        return harness.main_single(args)
    if args.noise:
        return noise(args)
    results, ok = run_set(args, seed=args.seed, trace=bool(args.trace))
    summary = {
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "results": results, "ok": ok, "claim": None,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nsummary -> {out_dir / 'summary.json'}")
    print(json.dumps({"ok": ok, "workloads": list(results), "claim": None}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
