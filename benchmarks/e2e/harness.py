"""Runs one workload in this interpreter: rounds, timing, checks, result.

Closed loop, one client, one thread: the next op starts when the
previous one returned.  A run repeats whole *rounds* — a fresh set-up
followed by the workload's fixed list of ops — until ``--seconds`` of
host time have gone by (two rounds at least).  Every round is built from
the same seed, so round *r* must reproduce round 0's outputs bit for
bit, and each op has one host-time sample per round:

* ``wall_s``          sum over the ops of a round of each op's median time
* ``op_wall_ms_p50``  median over the ops of each op's median time
* ``setup_s``         median set-up time of a round
* ``peak_rss_mib``    ``ru_maxrss`` when the run ends

Medians across rounds drop a round that a noisy neighbour slowed; sums
of per-op medians keep ``wall_s`` a statement about one whole round.
The three host times are drift-corrected (see ``drift.py``): raw wall
time on the shared reference box spreads wider than any bound allowed.

With ``trace`` the rounds alternate untraced / traced (wrappers from
``layers.targets()`` installed, no drift sampler), then one pass runs
under ``EngineProfiler``; the per-layer metrics come from those, raw,
and the traced rounds must reproduce the untraced outputs exactly.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from . import check
from .drift import DriftSampler
from .workloads import WORKLOADS, Workload

REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_OUT = Path(__file__).resolve().parent / "out"
DEFAULT_SEED = 2023


@dataclass
class Round:
    #: ``perf_counter_ns`` start and duration of the set-up (index 0)
    #: and of each op (index 1 + op)
    t0: list[int] = field(default_factory=list)
    ns: list[int] = field(default_factory=list)
    records: list[tuple] = field(default_factory=list)
    #: "op 3: rebuilt bytes differ ..." — one entry per violated check
    problems: list[str] = field(default_factory=list)
    failed_ops: set[int] = field(default_factory=set)
    counters: dict = field(default_factory=dict)

    @property
    def wall_ns(self) -> int:
        return sum(self.ns[1:])


def run_round(wl: Workload, tracer=None) -> Round:
    """One set-up plus every op of the workload, timed op by op.

    With a ``tracer`` (already installed) set-up and each op run inside
    a root span whose clock readings *are* the round's timings.
    """
    rnd = Round()
    if tracer is None:
        def begin(_sid):
            return perf_counter_ns()

        def end(t0):
            rnd.t0.append(t0)
            rnd.ns.append(perf_counter_ns() - t0)

        root = setup_sid = None
    else:
        from .tracing import ROOT, SETUP

        begin = tracer.begin

        def end(span):
            rnd.ns.append(tracer.end(span))
            rnd.t0.append(tracer.starts[span])

        root, setup_sid = tracer.sid(ROOT, "root"), tracer.sid(SETUP, "setup")
        snapshot = tracer.counters_snapshot()
    token = begin(setup_sid)
    try:
        state = wl.setup()
    finally:
        end(token)
    if tracer is not None:
        tracer.counters_restore(snapshot)
    for i in range(wl.num_ops):
        wl.prepare(state, i)
        result = error = None
        token = begin(root)
        try:
            result = wl.op(state, i)
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc(limit=4)
        finally:
            end(token)
        if error is not None:
            record, problems = ("raised",), [f"raised:\n{error}"]
        else:
            record, problems = wl.observe(state, i, result)
        del result
        # numpy scalars out, so records compare and serialise as plain values
        rnd.records.append(
            tuple(v.item() if isinstance(v, np.generic) else v for v in record)
        )
        if problems:
            rnd.failed_ops.add(i)
            rnd.problems += [f"op {i}: {p}" for p in problems]
    if not rnd.failed_ops:
        rnd.counters = wl.counters(state)
    del state
    gc.collect()
    return rnd


# --------------------------------------------------------------------- #
# host readings                                                         #
# --------------------------------------------------------------------- #


class HostMeter:
    """CPU seconds, GC pauses and page faults over a stretch of the run."""

    def __init__(self) -> None:
        self.pause_ns = 0
        self.collections = 0
        self._gc_t0 = 0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter_ns()
        else:
            self.pause_ns += perf_counter_ns() - self._gc_t0
            self.collections += 1

    def __enter__(self) -> "HostMeter":
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self._cpu0 = usage.ru_utime + usage.ru_stime
        self._faults0 = usage.ru_minflt
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.cpu_s = usage.ru_utime + usage.ru_stime - self._cpu0
        self.minor_faults = usage.ru_minflt - self._faults0


def peak_rss_mib() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def header(wl: Workload, seed: int, seconds: float, trace: bool) -> str:
    from repro.ec.backend import get_backend

    sha = "n/a"
    if (REPO_ROOT / ".git").exists():  # the driver's checkout is not a repository
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return (
        f"== {wl.name}  seed={seed} seconds={seconds:g} trace={int(trace)}"
        f"{' smoke' if wl.smoke else ''}\n"
        f"   op: {wl.op_text}  ({wl.num_ops} ops/round)\n"
        f"   host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} ec_backend={get_backend().name} "
        f"git={sha} gc={'on' if gc.isenabled() else 'off'} "
        "closed loop, 1 client, 1 thread"
    )


# --------------------------------------------------------------------- #
# one run                                                               #
# --------------------------------------------------------------------- #


def _timing_metrics(rounds: list[Round], sampler: DriftSampler | None = None) -> dict:
    """Host-time metrics of a set of rounds (drift-corrected with a sampler)."""
    times = np.array([
        sampler.corrected(rnd.t0, rnd.ns) if sampler is not None else rnd.ns
        for rnd in rounds
    ], dtype=np.float64)
    per_op = np.median(times[:, 1:], axis=0)
    return {
        "wall_s": float(per_op.sum()) / 1e9,
        "op_wall_ms_p50": float(np.median(per_op)) / 1e6,
        "setup_s": float(np.median(times[:, 0])) / 1e9,
    }


def _verify(wl: Workload, rounds: list[Round], untraced: int, seed, smoke, expected_path):
    """``(problems, failed op indices, model metrics)`` of a finished run."""
    first = rounds[0]
    problems = list(first.problems)
    failed_ops = set(first.failed_ops)
    for r, rnd in enumerate(rounds[1:], start=1):
        kind = "traced round" if r >= untraced else "round"
        for i, (a, b) in enumerate(zip(first.records, rnd.records)):
            if a != b:
                failed_ops.add(i)
                problems.append(f"op {i}: {kind} {r} gave {b}, round 0 gave {a}")
        if rnd.counters != first.counters:
            problems.append(f"{kind} {r}: public counters differ from round 0")
    if failed_ops:
        return problems, failed_ops, {}
    model = wl.model()
    problems += check.workload_claims(wl.name, first.counters, model)
    if seed == DEFAULT_SEED:
        problems += check.against_expected(
            wl.name, check.expected_key(seed, smoke), first.records,
            first.counters, model, expected_path or check.EXPECTED_PATH,
        )
    return problems, failed_ops, model


def _traced_values(wl, tracer, plain, traced, model, host, failed_share, out_dir, emit):
    """Per-layer metrics of a traced run; prints the layer ledger."""
    from . import layers

    timing = _timing_metrics(plain)
    counters = plain[0].counters
    extras = {
        # lap by lap: a traced round against the untraced round just before it
        "trace.overhead_ratio": float(np.median(
            [t.wall_ns / u.wall_ns for t, u in zip(traced, plain)]
        )),
        "failed_share": failed_share,
        "obs.enabled_overhead_ratio": wl.obs_enabled_ratio(),
        "sim.events.bare_us_per_event": layers.bare_queue_us_per_event(
            counters.get("sim.events.executed", 0)
        ),
        "untraced_wall_s": timing["wall_s"],
    }
    ops, everything = layers.op_ledger(tracer)
    values = layers.per_layer_metrics(
        tracer, ops, everything, len(traced), counters, model, host,
        wl.profiled(), extras,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"{wl.name}.spans.jsonl.gz"
    tracer.write(spans_path)
    rows = layers.ledger_rows(ops, len(traced))
    total = sum(ms for _layer, ms in rows)
    emit(f"   layer ledger, self ms per traced round (spans -> {spans_path.name}):")
    for layer, ms in rows:
        emit(f"     {layer:<20} {ms:12.3f} ms  {ms / total:6.1%}")
    traced_wall_ms = sum(r.wall_ns for r in traced) / len(traced) / 1e6
    emit(f"     {'= sum':<20} {total:12.3f} ms  traced op wall {traced_wall_ms:.3f} ms")
    problems = []
    if abs(total - traced_wall_ms) > 0.01 * traced_wall_ms:
        problems.append(
            f"layer self times sum to {total:.3f} ms, traced op wall is "
            f"{traced_wall_ms:.3f} ms"
        )
    return values, problems


def _rounds_until(seconds: float, lap) -> None:
    """Call ``lap()`` (one round, or one untraced + one traced) repeatedly.

    Whole laps only, two at least; another one starts while at least
    half of the previous one's duration is left before the deadline.
    """
    deadline = perf_counter() + seconds
    laps, last = 0, 0.0
    while laps < 2 or perf_counter() + last / 2 < deadline:
        start = perf_counter()
        lap()
        laps, last = laps + 1, perf_counter() - start


def run(
    workload: str,
    *,
    seed: int = DEFAULT_SEED,
    seconds: float = 10.0,
    trace: bool = False,
    smoke: bool = False,
    out_dir: Path = DEFAULT_OUT,
    expected_path: Path | None = None,
    emit=print,
) -> dict:
    """Run one workload; returns the result object the driver reads.

    ``emit`` receives the human-readable lines (every metric by name
    with its unit).  The caller prints the returned dict as the last
    line of standard output.
    """
    wl = WORKLOADS[workload](seed, smoke)
    emit(header(wl, seed, seconds, trace))
    declared = check.declared_metrics()
    sampler = DriftSampler()
    cal_before = sampler.slice_ms()

    plain: list[Round] = []
    traced: list[Round] = []
    if trace:
        from . import layers
        from .tracing import Tracer

        tracer, targets = Tracer(), layers.targets()
        host = {"cpu_s": 0.0, "gc_collections": 0.0, "gc_pause_ms": 0.0,
                "minor_faults": 0.0}

        def lap() -> None:
            with HostMeter() as meter:
                plain.append(run_round(wl))
            host["cpu_s"] += meter.cpu_s
            host["gc_collections"] += meter.collections
            host["gc_pause_ms"] += meter.pause_ns / 1e6
            host["minor_faults"] += meter.minor_faults
            tracer.install(targets)
            try:
                traced.append(run_round(wl, tracer))
            finally:
                tracer.uninstall()

        _rounds_until(seconds, lap)
    else:
        sampler.start()
        try:
            _rounds_until(seconds, lambda: plain.append(run_round(wl)))
        finally:
            sampler.stop()
    cal_after = sampler.slice_ms()

    rounds = plain + traced
    problems, failed_ops, model = _verify(
        wl, rounds, len(plain), seed, smoke, expected_path
    )
    attempted = sum(len(r.records) for r in rounds)
    failed = len(failed_ops) * len(rounds)
    failed_share = len(failed_ops) / wl.num_ops
    emit(
        f"   rounds: {len(plain)} untraced"
        + (f" + {len(traced)} traced" if trace else "")
        + f"; {attempted} ops attempted, {failed} failed; "
        f"calibration slice {cal_before:.3f} -> {cal_after:.3f} ms"
    )
    if trace:
        section = "per_layer"
        host = {name: total / len(plain) for name, total in host.items()}
        host["calibration_ms"] = (cal_before + cal_after) / 2
        values, ledger_problems = _traced_values(
            wl, tracer, plain, traced, model, host, failed_share, out_dir, emit
        )
        problems += ledger_problems
    else:
        section = "end_to_end"
        values = dict(_timing_metrics(plain, sampler), peak_rss_mib=peak_rss_mib())
        raw_wall_s = _timing_metrics(plain)["wall_s"]
        emit(
            f"   host drift: wall_s {raw_wall_s:.6g} s as measured, "
            f"x{values['wall_s'] / raw_wall_s:.3f} after correction "
            f"({len(sampler.t0)} calibration slices)"
        )
        for name in ("sim_s", "t_max_fraction", "traffic_amplification",
                     "speedup_vs_pivot"):
            if name in model:
                emit(f"   {name:<34} {model[name]:.9g}  (per-layer; deterministic)")
        emit(f"   {'failed_share':<34} {failed_share:.9g}  (per-layer)")

    names = [spec["name"] for spec in declared[section]]
    if set(names) != set(values):
        raise KeyError(
            "BENCHMARK.json and the harness disagree on metric names: "
            f"{sorted(set(names) ^ set(values))}"
        )
    metrics = {}
    for spec in declared[section]:
        name = spec["name"]
        metrics[name] = {"value": float(values[name]), "unit": spec["unit"]}
        note = f"  (n={len(plain)} rounds)" if name == "op_wall_ms_p50" else ""
        emit(f"   {name:<34} {values[name]:.9g} {spec['unit']}{note}")
    for line in problems[:20]:
        emit(f"   CHECK FAILED: {line}")
    emit(f"   checks: {'FAILED' if problems else 'ok'}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def result_line(result: dict) -> str:
    return json.dumps(result, separators=(", ", ": "))


def main_single(args) -> int:
    """``--workload`` mode: run it here, print the result object last."""
    result = run(
        args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), smoke=args.smoke, out_dir=Path(args.out),
    )
    sys.stdout.flush()
    print(result_line(result), flush=True)
    return 0 if result["correct"] and not result["failed"] else 1
