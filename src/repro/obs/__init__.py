"""Observability: structured tracing, metrics, and exporters.

The measurement substrate for the whole repair path (see
``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.trace` — hierarchical spans keyed to simulated time
  (``repair -> attempt -> pipeline -> transfer``) with structured events
  for faults, watchdog fires, replans, ladder rungs and cache hits;
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms behind a Prometheus-style registry;
* :mod:`repro.obs.export` — JSONL span dumps, Chrome ``trace_event``
  JSON (Perfetto-loadable) and Prometheus text snapshots;
* :mod:`repro.obs.attr` — per-repair bottleneck attribution: replays a
  trace against the planner's model and decomposes the
  ``achieved/t_max`` gap into fault-recovery / plan-suboptimality /
  straggler / queueing buckets that sum to the gap exactly;
* :mod:`repro.obs.fleet` — fleet-scale aggregation: mergeable t-digest
  sketches, fixed-memory rolling windows, per-metric cardinality caps;
* :mod:`repro.obs.slo` — declarative SLO rules (``p99
  repro_repair_seconds < 0.5``) evaluated over the rolling windows,
  emitting ``slo.breach`` / ``slo.recover`` transitions;
* :mod:`repro.obs.prof` — engine self-observability: an opt-in
  :class:`EngineProfiler` attributing event wall-time/allocations to
  action sites plus a :class:`RunMonitor` heartbeating long runs
  (flamegraph/speedscope exporters live in :mod:`repro.obs.export`);
* :mod:`repro.obs.detect` — online divergence detection: streaming
  EWMA/CUSUM/Page–Hinkley change-point detectors over
  irregularly-sampled signals, and a :class:`DivergenceMonitor`
  routing plan-divergence / straggler / queue-growth / regression
  signals into ``detect.*`` events, ``repro_detect_*`` metrics, and
  control hooks (watchdog early abort, detector-triggered re-plans);
* :mod:`repro.obs.observer` — the one seam the repair path reports
  through: fixed points fanned out to the sinks above;
* :mod:`repro.obs.demo` — a canned traced repair with an injected hub
  crash (import it directly; it pulls in the cluster prototype).

Everything here is stdlib-only.  :func:`build_observer` makes the
observer from whichever sinks are given; with none live it returns
:data:`NULL_OBSERVER`, whose fixed points do nothing.  A planning request
makes two calls against it (counted in ``tests/obs/test_obs_counts.py``),
so instrumentation stays on everywhere.
"""

from .detect import (
    Alarm,
    Baseline,
    CUSUMDetector,
    Detector,
    DivergenceMonitor,
    EWMADetector,
    PageHinkleyDetector,
    SIGNALS,
    plan_divergence_detector,
    queue_growth_detector,
    regression_detector,
    straggler_detector,
)
from .attr import (
    BUCKETS,
    CONSTRAINTS,
    GapBuckets,
    NodeIdle,
    PipelineDiagnosis,
    RepairAttribution,
    attribute_repair,
    attribute_repairs,
)
from .fleet import (
    NULL_FLEET,
    FleetAggregator,
    NullFleetAggregator,
    RollingWindow,
    TDigest,
)
from .metrics import (
    DEFAULT_BUCKETS,
    exponential_buckets,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_METRICS,
    NullMetricsRegistry,
)
from .observer import NULL_OBSERVER, NullObserver, Observer, build_observer
from .prof import EngineProfiler, RunMonitor, SiteStats, site_of
from .slo import SLOEngine, SLORule, SLOStatus, parse_rule, parse_rules
from .trace import NULL_SPAN, NULL_TRACER, NullTracer, Span, SpanEvent, Tracer
from .export import (
    chrome_trace,
    chrome_trace_json,
    collapsed_stacks,
    prometheus_text,
    span_to_dict,
    spans_to_jsonl,
    speedscope_json,
    speedscope_json_str,
)

__all__ = [
    "Alarm",
    "BUCKETS",
    "Baseline",
    "CONSTRAINTS",
    "CUSUMDetector",
    "DEFAULT_BUCKETS",
    "Counter",
    "Detector",
    "DivergenceMonitor",
    "EWMADetector",
    "EngineProfiler",
    "FleetAggregator",
    "Gauge",
    "GapBuckets",
    "Histogram",
    "MetricsRegistry",
    "PageHinkleyDetector",
    "SIGNALS",
    "NodeIdle",
    "NullFleetAggregator",
    "NullMetricsRegistry",
    "NullObserver",
    "Observer",
    "NULL_COUNTER",
    "NULL_FLEET",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_METRICS",
    "NULL_OBSERVER",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "PipelineDiagnosis",
    "RepairAttribution",
    "RollingWindow",
    "RunMonitor",
    "SLOEngine",
    "SLORule",
    "SLOStatus",
    "SiteStats",
    "Span",
    "SpanEvent",
    "TDigest",
    "Tracer",
    "attribute_repair",
    "attribute_repairs",
    "build_observer",
    "exponential_buckets",
    "parse_rule",
    "parse_rules",
    "plan_divergence_detector",
    "queue_growth_detector",
    "regression_detector",
    "straggler_detector",
    "site_of",
    "chrome_trace",
    "chrome_trace_json",
    "collapsed_stacks",
    "prometheus_text",
    "span_to_dict",
    "spans_to_jsonl",
    "speedscope_json",
    "speedscope_json_str",
]
