"""Declarative SLOs over the fleet's rolling windows.

A rule is one line of text::

    p99 repro_repair_seconds < 0.5
    mean repro_throughput_ratio >= 0.9
    rate repro_repairs_failed <= 0.1
    burn_rate(0.01) repro_repairs_failed > 14.4

``<agg> <metric> <op> <threshold>`` where

* ``agg`` — ``p50`` / ``p90`` / ``p95`` / ``p99`` (windowed sketch
  quantiles), ``mean``, ``min``, ``max``, ``count``, ``rate``
  (observations per second), or ``burn_rate(<budget>)``: the metric is
  read as 0/1 failure indicators and the windowed failure ratio is
  divided by the error budget — the Google SRE burn-rate convention,
  where sustained ``> 1`` exhausts the budget within the SLO period
  and multi-hour alert policies trip at 14.4 / 6 / 1.
* ``metric`` — a fleet metric name (aggregated across all label sets).
* ``op`` — ``<``, ``<=``, ``>``, ``>=``.

Rules can also reference live *detector* state (:mod:`repro.obs.detect`)
when the engine is built with ``monitor=``::

    alarms repair.throughput_ratio <= 0
    alarm_rate node.busy_fraction < 0.1

``alarms`` counts the signal's divergence alarms inside the fleet's
rolling window (the metric field names the watched signal, dots
allowed); ``alarm_rate`` divides by the window length.  Both are
determinate on an empty window — zero alarms is a real answer.

The :class:`SLOEngine` evaluates rules against a
:class:`~repro.obs.fleet.FleetAggregator` and tracks per-rule state:
crossing into violation emits a structured ``slo.breach`` event into
the tracer plus ``repro_slo_breaches_total`` / ``repro_slo_ok`` in the
metrics registry; crossing back emits ``slo.recover``.  A value rule
over an empty window is *indeterminate* and keeps its previous state —
an empty window is not a recovery.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field

from .fleet import FleetAggregator
from .metrics import NULL_METRICS, MetricsRegistry
from .trace import NULL_TRACER, Tracer

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

_RULE_RE = re.compile(
    r"^\s*(?P<agg>p50|p90|p95|p99|mean|min|max|count|rate"
    r"|alarms|alarm_rate"
    r"|burn_rate\((?P<budget>[0-9.eE+-]+)\))"
    r"\s+(?P<metric>[A-Za-z_:][A-Za-z0-9_:.]*)"
    r"\s*(?P<op><=|>=|<|>)"
    r"\s*(?P<threshold>[0-9.eE+-]+)\s*$"
)

#: aggregates that read DivergenceMonitor state instead of the fleet
_DETECTOR_AGGS = ("alarms", "alarm_rate")

_QUANTILES = {"p50": 0.5, "p90": 0.9, "p95": 0.95, "p99": 0.99}


@dataclass(frozen=True)
class SLORule:
    """One parsed rule; ``text`` round-trips the source line."""

    name: str
    agg: str
    metric: str
    op: str
    threshold: float
    budget: float | None = None  # burn_rate only

    @property
    def text(self) -> str:
        agg = (
            f"burn_rate({self.budget:g})" if self.agg == "burn_rate" else self.agg
        )
        return f"{agg} {self.metric} {self.op} {self.threshold:g}"


def parse_rule(line: str, name: str | None = None) -> SLORule:
    """Parse one rule line; raises ``ValueError`` with the offending text."""
    m = _RULE_RE.match(line)
    if not m:
        raise ValueError(
            f"unparseable SLO rule {line!r} "
            "(expected '<agg> <metric> <op> <threshold>')"
        )
    agg = m.group("agg")
    budget = None
    if agg.startswith("burn_rate"):
        budget = float(m.group("budget"))
        if not 0.0 < budget <= 1.0:
            raise ValueError(f"error budget must be in (0, 1], got {budget}")
        agg = "burn_rate"
    return SLORule(
        name=name or m.group("metric"),
        agg=agg,
        metric=m.group("metric"),
        op=m.group("op"),
        threshold=float(m.group("threshold")),
        budget=budget,
    )


def parse_rules(lines) -> list[SLORule]:
    """Parse many lines, skipping blanks and ``#`` comments.

    Duplicate metric-derived names are disambiguated with ``#2``,
    ``#3``… so every rule keeps distinct breach/recover state.
    """
    rules: list[SLORule] = []
    seen: dict[str, int] = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rule = parse_rule(line)
        n = seen.get(rule.name, 0) + 1
        seen[rule.name] = n
        if n > 1:
            rule = SLORule(
                name=f"{rule.name}#{n}",
                agg=rule.agg,
                metric=rule.metric,
                op=rule.op,
                threshold=rule.threshold,
                budget=rule.budget,
            )
        rules.append(rule)
    return rules


@dataclass(frozen=True)
class SLOStatus:
    """One rule's verdict at an evaluation instant."""

    rule: SLORule
    value: float | None  # None = indeterminate (window too empty)
    ok: bool
    changed: bool  # state transition happened this evaluation
    t: float


@dataclass
class SLOEngine:
    """Evaluates rules over a fleet aggregator and emits transitions."""

    fleet: FleetAggregator
    rules: list[SLORule]
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)
    metrics: MetricsRegistry = field(default_factory=lambda: NULL_METRICS)
    #: DivergenceMonitor backing ``alarms`` / ``alarm_rate`` rules
    monitor: object = None

    def __post_init__(self):
        #: rule name -> last known ok state (None until determinate)
        self._state: dict[str, bool | None] = {r.name: None for r in self.rules}
        self.breaches = 0
        self.recoveries = 0
        if self.monitor is None:
            needy = [r.name for r in self.rules if r.agg in _DETECTOR_AGGS]
            if needy:
                raise ValueError(
                    f"rules {needy} use detector aggregates; construct the "
                    "SLOEngine with monitor=<DivergenceMonitor>"
                )

    # ---- evaluation ----------------------------------------------------- #

    def _measure(self, rule: SLORule, now: float | None) -> float | None:
        if rule.agg in _DETECTOR_AGGS:
            # detector aggregates read the DivergenceMonitor, scoped to
            # the same rolling horizon as the fleet windows; the metric
            # field names the watched signal
            since = (now if now is not None else 0.0) - self.fleet.window_s
            n = self.monitor.alarm_count(rule.metric, since=since)
            if rule.agg == "alarms":
                return float(n)
            return n / self.fleet.window_s
        # one windowed digest answers count and value together — the
        # engine runs every orchestrator tick, and re-merging the window
        # per aggregate dominated the control loop before this
        d = self.fleet.window_digest(rule.metric, now)
        n = d.count
        if rule.agg == "count":
            return n
        if rule.agg == "rate":
            return n / self.fleet.window_s
        if not n:
            return None  # a value aggregate over an empty window
        if rule.agg in _QUANTILES:
            return d.quantile(_QUANTILES[rule.agg])
        if rule.agg == "mean":
            return d.mean
        if rule.agg == "min":
            return d.quantile(0.0)
        if rule.agg == "max":
            return d.quantile(1.0)
        if rule.agg == "burn_rate":
            return d.mean / rule.budget  # 0/1 indicators -> failure ratio
        raise AssertionError(f"unknown agg {rule.agg!r}")

    def evaluate(self, now: float | None = None) -> list[SLOStatus]:
        """Evaluate every rule at ``now``; emit events on transitions."""
        t = now if now is not None else (
            self.fleet.clock() if self.fleet.clock is not None else 0.0
        )
        out: list[SLOStatus] = []
        for rule in self.rules:
            value = self._measure(rule, t)
            prev = self._state[rule.name]
            # count/rate/alarm aggregates are determinate even on an
            # empty window (0 is a real answer); value-less aggregates
            # hold their last state
            if value is None:
                out.append(
                    SLOStatus(rule=rule, value=None, ok=prev is not False,
                              changed=False, t=t)
                )
                continue
            ok = _OPS[rule.op](value, rule.threshold)
            changed = prev is not None and prev != ok
            if (prev is None and not ok) or (changed and not ok):
                self.breaches += 1
                changed = True
                self.tracer.event(
                    None, "slo.breach", t=t,
                    rule=rule.name, expr=rule.text,
                    value=value, threshold=rule.threshold,
                )
                if self.metrics.enabled:
                    self.metrics.counter(
                        "repro_slo_breaches_total",
                        "SLO rules crossing into violation.",
                        rule=rule.name,
                    ).inc()
            elif changed and ok:
                self.recoveries += 1
                self.tracer.event(
                    None, "slo.recover", t=t,
                    rule=rule.name, expr=rule.text,
                    value=value, threshold=rule.threshold,
                )
            if self.metrics.enabled:
                self.metrics.gauge(
                    "repro_slo_ok",
                    "1 while the rule holds, 0 while breached.",
                    rule=rule.name,
                ).set(1.0 if ok else 0.0)
            self._state[rule.name] = ok
            out.append(SLOStatus(rule=rule, value=value, ok=ok, changed=changed, t=t))
        return out

    def status(self) -> dict[str, bool | None]:
        """Last known ok-state per rule (None = never determinate)."""
        return dict(self._state)
