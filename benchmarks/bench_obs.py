"""Observability no-op overhead harness — the ``BENCH_obs.json`` gate.

The repair path is permanently instrumented (``repro.obs``): every
repair, planning request, and slice transfer makes calls against a
tracer and a metrics registry that default to process-wide no-op
singletons.  This harness bounds what that costs when observability is
*off* — the configuration every benchmark and production-style run uses:

1. ``null_primitives`` — per-call wall cost of each no-op primitive
   (``NULL_TRACER.event``, a start/end span pair, a
   ``NULL_METRICS.counter(...).inc()`` factory+inc round trip, a
   ``NULL_FLEET.observe`` fleet-aggregation point);
2. ``instrumentation_counts`` — how many such calls the *planning hot
   path* (``Master.plan_for_context`` + ``Master.compile_tasks``, the
   path ``bench_planning`` gates) actually makes, measured with
   counting no-op sinks so ``tracer.enabled`` guards are respected;
3. ``gate`` — the implied slowdown of the planning median
   (``calls x cost / median``), which must stay under
   ``MAX_OVERHEAD_PERCENT`` (3%); ``tests/test_bench_obs.py``
   (marker ``obs_overhead``) fails otherwise;
4. ``traced_e2e`` — informational only: wall-clock of one small
   event-driven repair with live tracing+metrics vs the no-op default,
   as medians over alternating (null, traced) pairs (live tracing is
   *expected* to cost more; it is opt-in).

Run directly (``python -m benchmarks.bench_obs``), or with ``--smoke``
for the sub-second pass the test suite uses to validate the schema.
"""

from __future__ import annotations

import argparse
import gc
import sys
from time import perf_counter

import numpy as np

from benchmarks.common import SEED, quantile, write_json_report
from repro.analysis import make_fixed_context
from repro.cluster import ClusterSystem
from repro.cluster.master import Master, StripeLocation
from repro.core.plancache import PlanCache
from repro.ec import RSCode
from repro.obs import (
    MetricsRegistry,
    NULL_COUNTER,
    NULL_FLEET,
    NULL_METRICS,
    NULL_SPAN,
    NULL_TRACER,
    NullMetricsRegistry,
    NullTracer,
    Tracer,
)
from repro.repair import get_algorithm
from repro.workloads import make_trace

SCHEMA_VERSION = 1

#: The gate: no-op instrumentation may not imply more than this slowdown
#: of the planning medians tracked by ``bench_planning``.
MAX_OVERHEAD_PERCENT = 3.0


# --------------------------------------------------------------------- #
# counting no-op sinks: same behaviour as the null singletons (enabled
# stays False, so guarded instrumentation is skipped exactly as in the
# default configuration), but every call is tallied


class CountingNullTracer(NullTracer):
    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def start_span(self, name, **kwargs):
        self.calls += 1
        return NULL_SPAN

    def end_span(self, span, t=None, **attrs):
        self.calls += 1
        return NULL_SPAN

    def record_span(self, name, start, end, **kwargs):
        self.calls += 1
        return NULL_SPAN

    def event(self, span, name, t=None, **attrs):
        self.calls += 1
        return super().event(span, name, t, **attrs)

    def set_attrs(self, span, **attrs) -> None:
        self.calls += 1


class _CountingNullCounter:
    __slots__ = ("owner",)

    def __init__(self, owner) -> None:
        self.owner = owner

    def inc(self, amount: float = 1.0) -> None:
        self.owner.calls += 1

    def set(self, value: float) -> None:
        self.owner.calls += 1

    def observe(self, value: float) -> None:
        self.owner.calls += 1


class CountingNullMetrics(NullMetricsRegistry):
    def __init__(self) -> None:
        super().__init__()
        self.calls = 0
        self._child = _CountingNullCounter(self)

    def counter(self, name, help="", **labels):
        self.calls += 1
        return self._child

    def gauge(self, name, help="", **labels):
        self.calls += 1
        return self._child

    def histogram(self, name, help="", buckets=(), **labels):
        self.calls += 1
        return self._child


# --------------------------------------------------------------------- #


def _per_call_ns(fn, calls: int) -> float:
    fn()  # warm up
    start = perf_counter()
    for _ in range(calls):
        fn()
    return (perf_counter() - start) / calls * 1e9


def _bench_null_primitives(calls: int) -> dict:
    return {
        "event_ns": _per_call_ns(
            lambda: NULL_TRACER.event(None, "x", a=1), calls
        ),
        "span_pair_ns": _per_call_ns(
            lambda: NULL_TRACER.end_span(NULL_TRACER.start_span("x", a=1)),
            calls,
        ),
        "counter_inc_ns": _per_call_ns(lambda: NULL_COUNTER.inc(), calls),
        "counter_factory_inc_ns": _per_call_ns(
            lambda: NULL_METRICS.counter("repro_x_total", "h", l="v").inc(),
            calls,
        ),
        "fleet_observe_ns": _per_call_ns(
            lambda: NULL_FLEET.observe("repro_x", 1.0, algorithm="a"), calls
        ),
        "enabled_check_ns": _per_call_ns(lambda: NULL_TRACER.enabled, calls),
    }


def _count_planning_calls() -> dict:
    """Instrumentation calls one planning request actually makes."""
    n, k = 14, 10
    tracer = CountingNullTracer()
    metrics = CountingNullMetrics()
    master = Master(RSCode(n, k), get_algorithm("fullrepair"), n + 2,
                    plan_cache=PlanCache(max_entries=16))
    master.tracer = tracer
    master.metrics = metrics
    # helpers 1..n-1 hold chunks 0..n-2, the lost chunk n-1 lived on node n
    master.register_stripe(
        StripeLocation(stripe_id="s0", placement=tuple(range(1, n + 1)))
    )
    ctx = make_fixed_context(n, k, seed=SEED)
    plan = master.plan_for_context(ctx)
    master.compile_tasks(
        plan, "s0", n - 1, chunk_bytes=1 << 20, num_slices=16,
        repair_id="s0/nX",
    )
    return {
        "tracer_calls": tracer.calls,
        "metrics_calls": metrics.calls,
        "total": tracer.calls + metrics.calls,
    }


def _planning_median_us(rounds: int) -> float:
    algo = get_algorithm("fullrepair")
    contexts = [make_fixed_context(14, 10, seed=SEED + i) for i in range(4)]
    algo.plan(contexts[0])
    samples = []
    for i in range(rounds):
        start = perf_counter()
        algo.plan(contexts[i % len(contexts)])
        samples.append(perf_counter() - start)
    return quantile(samples, 0.5) * 1e6


def _bench_traced_e2e(chunk_bytes: int, pairs: int) -> dict:
    """Wall-clock of one event-driven repair: no-op vs live obs sinks.

    ``pairs`` (null, traced) pairs, alternating which side runs first;
    the medians shed the first runs' warm-up, which a single pair in a
    fixed order charged to the null side alone.
    """

    def run_one(traced: bool) -> float:
        code = RSCode(9, 6)
        system = ClusterSystem(
            12, code, slice_bytes=16 * 1024,
            tracer=Tracer() if traced else None,
            metrics=MetricsRegistry() if traced else None,
        )
        rng = np.random.default_rng(SEED)
        data = rng.integers(0, 256, (code.k, chunk_bytes), dtype=np.uint8)
        system.write_stripe("s0", data, placement=tuple(range(code.n)))
        snap = make_trace("tpcds", num_nodes=12, num_snapshots=40,
                          seed=SEED).snapshot(20)
        system.set_bandwidth(snap)
        system.fail_node(3)
        # same collector state at every start: whether the previous
        # run's survivors tip a full collection into this one is not
        # what the ratio is about (GC stays on inside the timed region)
        gc.collect()
        start = perf_counter()
        outcome = system.repair("s0", 3, requester=10, store=False)
        elapsed = perf_counter() - start
        assert outcome.verified
        return elapsed

    walls = {False: [], True: []}
    for i in range(pairs):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            walls[traced].append(run_one(traced))
    ratios = [t / n for n, t in zip(walls[False], walls[True])]
    return {
        "chunk_bytes": chunk_bytes,
        "pairs": pairs,
        "null_wall_s": quantile(walls[False], 0.5),
        "traced_wall_s": quantile(walls[True], 0.5),
        "traced_over_null": quantile(ratios, 0.5),
        "note": "informational: live tracing is opt-in and expected to cost more",
    }


def run(smoke: bool = False, out_path=None) -> dict:
    """Execute the harness and write ``BENCH_obs.json``; returns it."""
    if smoke:
        prim_calls, plan_rounds, chunk_bytes, e2e_pairs = 20_000, 30, 64 * 1024, 3
    else:
        prim_calls, plan_rounds, chunk_bytes, e2e_pairs = 200_000, 200, 512 * 1024, 11
    primitives = _bench_null_primitives(prim_calls)
    counts = _count_planning_calls()
    median_us = _planning_median_us(plan_rounds)
    # charge every instrumentation call at the *most expensive* no-op
    # primitive observed — a deliberate overestimate
    worst_ns = max(
        primitives["event_ns"],
        primitives["span_pair_ns"],
        primitives["counter_factory_inc_ns"],
        primitives["fleet_observe_ns"],
    )
    overhead_us = counts["total"] * worst_ns / 1e3
    overhead_percent = 100.0 * overhead_us / median_us if median_us else 0.0
    report = {
        "benchmark": "obs",
        "schema_version": SCHEMA_VERSION,
        "config": {
            "smoke": smoke,
            "seed": SEED,
            "primitive_calls": prim_calls,
            "planning_rounds": plan_rounds,
        },
        "null_primitives": primitives,
        "instrumentation_counts": counts,
        "planning_median_us": median_us,
        "gate": {
            "max_overhead_percent": MAX_OVERHEAD_PERCENT,
            "overhead_us_per_request": overhead_us,
            "overhead_percent": overhead_percent,
            "pass": overhead_percent <= MAX_OVERHEAD_PERCENT,
        },
        "traced_e2e": _bench_traced_e2e(chunk_bytes, e2e_pairs),
    }
    path = write_json_report("obs", report, path=out_path)
    print(f"wrote {path}")
    return report


def main(argv=None) -> int:
    from benchmarks.common import REPO_ROOT

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast low-resolution pass (schema validation); writes "
             "BENCH_obs.smoke.json so the full-run artefact survives",
    )
    args = parser.parse_args(argv)
    out_path = REPO_ROOT / "BENCH_obs.smoke.json" if args.smoke else None
    report = run(smoke=args.smoke, out_path=out_path)
    gate = report["gate"]
    print(
        f"no-op overhead: {gate['overhead_percent']:.4f}% of the planning "
        f"median (gate: {gate['max_overhead_percent']}%) -> "
        f"{'PASS' if gate['pass'] else 'FAIL'}"
    )
    return 0 if gate["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
