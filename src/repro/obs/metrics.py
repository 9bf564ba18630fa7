"""A small, dependency-free metrics registry (counters/gauges/histograms).

Modelled on the Prometheus data model: a *family* has a name, a type and
a help string; label sets key its children.  Histograms use fixed upper
bounds, so percentiles come from linear interpolation inside a bucket —
cheap, bounded memory, good enough for the per-repair latencies and
busy fractions the repair path exports.

Like the tracer, the default registry threaded through instrumented
code is :data:`NULL_METRICS`: its factory methods return shared no-op
metric instances, so ``counter(...).inc()`` in a hot path costs two
no-op calls and allocates nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_left

#: Default histogram upper bounds (seconds): micro-benchmarks to minutes.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


def exponential_buckets(start: float, factor: float, count: int) -> tuple:
    """``count`` geometric histogram bounds: start, start*factor, ...

    The Prometheus client idiom, used here for count-like quantities
    (engine batch sizes, queue depths) whose natural scale is
    logarithmic rather than the latency-flavoured default bounds.
    """
    if start <= 0:
        raise ValueError(f"start must be positive (got {start})")
    if factor <= 1:
        raise ValueError(f"factor must be > 1 (got {factor})")
    if count < 1:
        raise ValueError(f"count must be >= 1 (got {count})")
    return tuple(start * factor**i for i in range(count))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go anywhere."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with interpolated percentiles.

    ``bounds`` are ascending upper bounds; observations above the last
    bound land in the implicit ``+Inf`` bucket.
    """

    __slots__ = ("bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, bounds=DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be ascending and unique")
        self.bounds = bounds
        #: per-bucket (non-cumulative) counts; index len(bounds) = +Inf
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def value(self) -> float:
        """Mean observation (the scalar shown in snapshots)."""
        return self.sum / self.count if self.count else 0.0

    def cumulative(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(le, cumulative count)`` pairs, +Inf last."""
        out, running = [], 0
        for bound, c in zip(self.bounds, self.counts):
            running += c
            out.append((bound, running))
        if math.isinf(self.bounds[-1]):
            # an explicit +Inf bound already absorbs everything; do not
            # emit a second, duplicate +Inf bucket
            out[-1] = (float("inf"), running + self.counts[-1])
        else:
            out.append((float("inf"), running + self.counts[-1]))
        return out

    def _max_finite_bound(self) -> float:
        for bound in reversed(self.bounds):
            if math.isfinite(bound):
                return bound
        return 0.0

    def quantile(self, q: float) -> float:
        """Interpolated quantile estimate from the bucket counts.

        Estimates falling into the ``+Inf`` bucket (implicit, or an
        explicit non-finite last bound) are clamped to the highest
        *finite* bucket boundary — a percentile of ``inf`` is useless to
        every downstream consumer, while the clamp reads as "at least
        the last boundary", matching Prometheus' ``histogram_quantile``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        lo = 0.0
        for bound, c in zip(self.bounds, self.counts):
            if running + c >= target and c > 0:
                if math.isinf(bound):
                    break  # +Inf bucket edge: clamp, never interpolate to inf
                frac = (target - running) / c
                return lo + frac * (bound - lo)
            running += c
            lo = bound
        return self._max_finite_bound()


class _Family:
    __slots__ = ("name", "kind", "help", "bounds", "children")

    def __init__(self, name, kind, help, bounds=None):
        self.name = name
        self.kind = kind
        self.help = help
        self.bounds = bounds
        #: sorted label-items tuple -> metric instance
        self.children: dict[tuple, object] = {}


_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


class MetricsRegistry:
    """Registry of metric families; the single exporter entry point."""

    enabled = True

    def __init__(self):
        self._families: dict[str, _Family] = {}

    # ---- factories ----------------------------------------------------- #

    def _family(self, name, kind, help, bounds=None) -> _Family:
        fam = self._families.get(name)
        if fam is None:
            # a registered name was validated when its family was made
            if not name or set(name) - _NAME_OK or name[0].isdigit():
                raise ValueError(f"invalid metric name {name!r}")
            fam = _Family(name, kind, help, bounds)
            self._families[name] = fam
        elif fam.kind != kind:
            raise ValueError(
                f"metric {name} already registered as a {fam.kind}"
            )
        return fam

    @staticmethod
    def _labelkey(labels: dict) -> tuple:
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        fam = self._family(name, "counter", help)
        key = self._labelkey(labels)
        child = fam.children.get(key)
        if child is None:
            child = fam.children[key] = Counter()
        return child

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        fam = self._family(name, "gauge", help)
        key = self._labelkey(labels)
        child = fam.children.get(key)
        if child is None:
            child = fam.children[key] = Gauge()
        return child

    def histogram(
        self, name: str, help: str = "", buckets=DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        fam = self._family(name, "histogram", help, tuple(buckets))
        key = self._labelkey(labels)
        child = fam.children.get(key)
        if child is None:
            child = fam.children[key] = Histogram(fam.bounds)
        return child

    # ---- queries ------------------------------------------------------- #

    def families(self):
        """``(name, family)`` pairs sorted by name (export order)."""
        return sorted(self._families.items())

    def get(self, name: str, **labels):
        """The existing metric for ``name``/labels, or ``None``."""
        fam = self._families.get(name)
        if fam is None:
            return None
        return fam.children.get(self._labelkey(labels))

    def total(self, name: str) -> float:
        """Sum of a family's children values (counters/gauges)."""
        fam = self._families.get(name)
        if fam is None:
            return 0.0
        return sum(m.value for m in fam.children.values())

    def snapshot(self) -> dict:
        """Plain-dict view: ``{name: {label-tuple: scalar-or-histo-dict}}``."""
        out: dict = {}
        for name, fam in self.families():
            cell = {}
            for key, metric in sorted(fam.children.items()):
                if fam.kind == "histogram":
                    cell[key] = {
                        "count": metric.count,
                        "sum": metric.sum,
                        "mean": metric.value,
                        "p50": metric.quantile(0.5),
                        "p99": metric.quantile(0.99),
                    }
                else:
                    cell[key] = metric.value
            out[name] = cell
        return out

    def clear(self) -> None:
        self._families.clear()


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        return None

    def inc(self, amount: float = 1.0) -> None:
        return None


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class NullMetricsRegistry(MetricsRegistry):
    """No-op registry: factories hand back shared inert instances."""

    enabled = False

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return NULL_COUNTER

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return NULL_GAUGE

    def histogram(
        self, name: str, help: str = "", buckets=DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        return NULL_HISTOGRAM


#: Process-wide no-op registry; instrumented code defaults to this.
NULL_METRICS = NullMetricsRegistry()
