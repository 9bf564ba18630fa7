"""Fleet-scale metric aggregation: compact, mergeable, windowed.

The PR 3 :class:`~repro.obs.metrics.MetricsRegistry` keeps one child
metric per label set forever — fine for one traced repair, fatal for
the ROADMAP's "thousands of concurrent repairs" fleet.  This module
adds the three ingredients that make fleet-wide percentiles survive
that scale:

* :class:`TDigest` — a merging t-digest quantile sketch (Dunning &
  Ertl).  Its size is set by the compression parameter ``delta`` and
  grows with the logarithm of the count (at ``delta`` = 64: ~200
  centroids after 1k points, ~370 after 50k, ~430 after 200k;
  ``tests/obs/test_fleet.py`` bounds it below ``10 * delta``), accuracy
  is relative to ``q*(1-q)`` so tails (p99) are sharpest, and two
  sketches merge losslessly into one — shard-per-zone, merge at query
  time.
* :class:`RollingWindow` — a ring of time buckets, each holding its own
  sketch.  Observations land in the bucket covering their timestamp;
  buckets older than the window are lazily recycled, so memory never
  grows with time, only with ``buckets`` sketches of a bucket's
  points each.
* :class:`FleetAggregator` — the registry: ``observe(metric, value,
  t=..., **labels)`` routes into per-label series, capped at
  :data:`MAX_SERIES` label sets per metric; overflow collapses into a
  single ``other="true"`` series (counted, never dropped silently).

Everything is stdlib-only and deterministic.  The no-op twin
:data:`NULL_FLEET` mirrors :data:`~repro.obs.trace.NULL_TRACER` so
instrumented code can call ``fleet.observe(...)`` unconditionally
behind an ``enabled`` guard.
"""

from __future__ import annotations

import math
from typing import Callable

#: Label key used for series that overflow a metric's cardinality cap.
OVERFLOW_KEY = (("other", "true"),)

#: Cardinality cap: label sets kept per metric before overflow.
MAX_SERIES = 64


class TDigest:
    """Merging t-digest: compact streaming quantiles.

    Centroids are immutable ``(mean, weight)`` tuples kept sorted by
    mean.  New points append to an unsorted buffer as tuples too; once
    the buffer holds ``delta`` points, one sorted sweep folds buffer and
    centroids together, merging neighbours whose combined weight fits
    the k-size bound ``4 * n * q * (1 - q) / delta`` (Dunning's k1
    scale: tails stay near-singleton, the middle coarsens).  Memory is the centroids
    plus the ``delta``-point buffer.  The bound admits about
    ``delta / 4`` singletons in each tail and centroids of width
    ``~4 * q * (1 - q) / delta`` in the middle, so the centroid count
    grows with ``log(count / delta)`` rather than staying within a
    multiple of ``delta``.  add() is amortised ``O(log delta)``.
    """

    __slots__ = ("delta", "_centroids", "_buffer", "count", "sum", "min", "max")

    def __init__(self, delta: int = 64):
        if delta < 8:
            raise ValueError("delta must be >= 8")
        self.delta = delta
        self._centroids: list[tuple[float, float]] = []  # sorted (mean, weight)
        self._buffer: list[tuple[float, float]] = []  # unsorted incoming points
        self.count = 0.0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        buffer = self._buffer
        buffer.append((float(value), float(weight)))
        self.count += weight
        self.sum += value * weight
        # the comparisons ``min()`` / ``max()`` make, so NaN and -0.0
        # keep their rules: only a strictly smaller / larger value wins
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(buffer) >= self.delta:
            self._compress()

    def merge(self, other: "TDigest") -> None:
        """Fold ``other``'s centroids into this sketch (other unchanged)."""
        if other.count == 0:
            return
        other._compress()
        self._buffer.extend(other._centroids)
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._compress()

    def _compress(self) -> None:
        if not self._buffer and len(self._centroids) <= 2 * self.delta:
            return
        pts = sorted(self._centroids + self._buffer)
        self._buffer = []
        if not pts:
            return
        # the open centroid lives in locals and is appended once finalised;
        # ``4.0 * count`` is the bound's first product, hoisted, and the
        # inline ``max(bound, 1.0)`` keeps max's NaN rule
        merged: list[tuple[float, float]] = []
        append, count, delta = merged.append, self.count, self.delta
        count4 = 4.0 * count
        w_before = 0.0  # total weight of finalised centroids
        points = iter(pts)
        cur_mean, cur_weight = next(points)
        for mean, weight in points:
            cand = cur_weight + weight
            q = (w_before + cand / 2.0) / count
            bound = count4 * q * (1.0 - q) / delta
            if cand <= (1.0 if bound < 1.0 else bound):
                cur_mean = (cur_mean * cur_weight + mean * weight) / cand
                cur_weight = cand
            else:
                append((cur_mean, cur_weight))
                w_before += cur_weight
                cur_mean, cur_weight = mean, weight
        append((cur_mean, cur_weight))
        self._centroids = merged

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def num_centroids(self) -> int:
        self._compress()
        return len(self._centroids)

    def quantile(self, q: float) -> float:
        """Estimated q-quantile; exact min/max at q=0/1."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        if self._buffer:
            self._compress()
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        target = q * self.count
        seen = 0.0
        prev_mean, prev_mid = self.min, 0.0
        for mean, weight in self._centroids:
            mid = seen + weight / 2.0
            if target <= mid:
                span = mid - prev_mid
                frac = (target - prev_mid) / span if span > 0 else 0.0
                return prev_mean + frac * (mean - prev_mean)
            prev_mean, prev_mid = mean, mid
            seen += weight
        return self.max


class RollingWindow:
    """A fixed ring of time buckets, each a :class:`TDigest`.

    ``bucket_s`` is the bucket width; the window covers
    ``buckets * bucket_s`` seconds ending at the query time.  Buckets
    are recycled lazily — an observation or query whose timestamp maps
    onto a stale slot resets it — so no timer is needed and memory is
    fixed at ``buckets`` sketches.
    """

    __slots__ = ("bucket_s", "buckets", "delta", "_ring", "_epochs",
                 "_rev", "_cache", "_cache_rev", "_cache_epoch")

    def __init__(self, window_s: float = 60.0, buckets: int = 12, delta: int = 64):
        if window_s <= 0 or buckets < 1:
            raise ValueError("window must be positive with >= 1 bucket")
        self.bucket_s = window_s / buckets
        self.buckets = buckets
        self.delta = delta
        self._ring: list[TDigest | None] = [None] * buckets
        self._epochs = [-1] * buckets
        #: revision counter bumped on every mutation; together with the
        #: query-time epoch it keys the merged-digest cache below, so
        #: repeated queries against an unchanged window (the SLO engine
        #: evaluates every orchestrator tick) skip the full re-merge
        self._rev = 0
        self._cache: TDigest | None = None
        self._cache_rev = -1
        self._cache_epoch = -1

    @property
    def window_s(self) -> float:
        return self.bucket_s * self.buckets

    def _slot(self, t: float) -> tuple[int, int]:
        epoch = int(t // self.bucket_s)
        return epoch % self.buckets, epoch

    def observe(self, t: float, value: float) -> None:
        slot, epoch = self._slot(t)
        digest = self._ring[slot]
        if digest is None or self._epochs[slot] != epoch:
            digest = self._ring[slot] = TDigest(self.delta)
            self._epochs[slot] = epoch
        digest.add(value)
        self._rev += 1

    def digest(self, now: float) -> TDigest:
        """Merged sketch over the live buckets ending at ``now``.

        Treat the result as read-only: unchanged windows return a
        cached sketch (same revision, same current epoch — a new epoch
        can age buckets out of the window, so it invalidates too).
        """
        _, cur = self._slot(now)
        if (
            self._cache is not None
            and self._cache_rev == self._rev
            and self._cache_epoch == cur
        ):
            return self._cache
        out = TDigest(self.delta)
        for slot in range(self.buckets):
            d = self._ring[slot]
            if d is not None and cur - self._epochs[slot] < self.buckets:
                out.merge(d)
        self._cache = out
        self._cache_rev = self._rev
        self._cache_epoch = cur
        return out

    def count(self, now: float) -> float:
        _, cur = self._slot(now)
        return sum(
            d.count
            for slot, d in enumerate(self._ring)
            if d is not None and cur - self._epochs[slot] < self.buckets
        )


class _Series:
    """One (metric, label-set) stream: lifetime sketch + rolling window."""

    __slots__ = ("total", "window")

    def __init__(self, window_s: float, buckets: int, delta: int):
        self.total = TDigest(delta)
        self.window = RollingWindow(window_s, buckets, delta)

    def observe(self, t: float, value: float) -> None:
        self.total.add(value)
        self.window.observe(t, value)


class FleetAggregator:
    """Bounded-memory, mergeable metric store for fleet-scale repair runs.

    ``clock`` supplies default timestamps (the cluster binds its
    simulated event-queue time); explicit ``t=`` always wins.
    """

    enabled = True

    def __init__(
        self,
        *,
        window_s: float = 60.0,
        buckets: int = 12,
        delta: int = 64,
        clock: Callable[[], float] | None = None,
    ):
        self.window_s = window_s
        self.buckets = buckets
        self.delta = delta
        self.clock = clock
        #: metric name -> {label-items tuple -> _Series}
        self._metrics: dict[str, dict[tuple, _Series]] = {}
        self.overflowed = 0  # observations routed to the overflow series

    # ---- ingest -------------------------------------------------------- #

    @staticmethod
    def _labelkey(labels: dict) -> tuple:
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def _now(self, t: float | None) -> float:
        if t is not None:
            return t
        return self.clock() if self.clock is not None else 0.0

    def observe(
        self, metric: str, value: float, t: float | None = None, **labels
    ) -> None:
        series_map = self._metrics.setdefault(metric, {})
        key = self._labelkey(labels)
        series = series_map.get(key)
        if series is None:
            if len(series_map) >= MAX_SERIES and key != OVERFLOW_KEY:
                # cardinality cap: collapse, never grow and never drop
                self.overflowed += 1
                key = OVERFLOW_KEY
                series = series_map.get(key)
            if series is None:
                series = series_map[key] = _Series(
                    self.window_s, self.buckets, self.delta
                )
        series.observe(self._now(t), float(value))

    # ---- queries ------------------------------------------------------- #

    def metrics(self) -> list[str]:
        return sorted(self._metrics)

    def series_count(self, metric: str) -> int:
        return len(self._metrics.get(metric, ()))

    def _digest(
        self, metric: str, now: float | None, windowed: bool, labels: dict
    ) -> TDigest:
        series_map = self._metrics.get(metric, {})
        if labels:
            keys = [self._labelkey(labels)]
        else:
            keys = list(series_map)  # aggregate across every label set
        t = self._now(now)
        parts: list[TDigest] = []
        for key in keys:
            series = series_map.get(key)
            if series is None:
                continue
            parts.append(series.window.digest(t) if windowed else series.total)
        if len(parts) == 1:
            # single-series metrics (the common SLO case) skip the merge
            # copy entirely; treat the shared sketch as read-only
            return parts[0]
        out = TDigest(self.delta)
        for part in parts:
            out.merge(part)
        return out

    def window_digest(
        self, metric: str, now: float | None = None, **labels
    ) -> TDigest:
        """The merged windowed sketch itself (read-only, may be cached).

        One call answers count/quantile/mean together — the SLO engine
        uses this instead of three separate query round-trips that each
        re-merged the window.
        """
        return self._digest(metric, now, True, labels)

    def quantile(
        self,
        metric: str,
        q: float,
        now: float | None = None,
        *,
        windowed: bool = True,
        **labels,
    ) -> float:
        return self._digest(metric, now, windowed, labels).quantile(q)

    def mean(
        self, metric: str, now: float | None = None, *, windowed: bool = True, **labels
    ) -> float:
        return self._digest(metric, now, windowed, labels).mean

    def count(
        self, metric: str, now: float | None = None, *, windowed: bool = True, **labels
    ) -> float:
        return self._digest(metric, now, windowed, labels).count

    def rate_per_s(self, metric: str, now: float | None = None, **labels) -> float:
        """Windowed observation rate (events / second)."""
        return self.count(metric, now, windowed=True, **labels) / self.window_s

    def snapshot(self, now: float | None = None) -> dict:
        """Plain-dict fleet view: per metric, lifetime + windowed stats."""
        out: dict = {}
        for metric in self.metrics():
            total = self._digest(metric, now, False, {})
            window = self._digest(metric, now, True, {})
            out[metric] = {
                "series": self.series_count(metric),
                "count": total.count,
                "mean": total.mean,
                "p50": total.quantile(0.5),
                "p99": total.quantile(0.99),
                "window_count": window.count,
                "window_p99": window.quantile(0.99),
            }
        return out

    # ---- merge (cross-shard) ------------------------------------------- #

    def merge(self, other: "FleetAggregator") -> None:
        """Fold another aggregator (e.g. a per-zone shard) into this one.

        Lifetime sketches merge losslessly; rolling windows merge
        bucket-by-bucket when the geometries match, else their digests
        fold into the matching slot of this window.
        """
        for metric, series_map in other._metrics.items():
            for key, series in series_map.items():
                mine_map = self._metrics.setdefault(metric, {})
                mine = mine_map.get(key)
                if mine is None:
                    if len(mine_map) >= MAX_SERIES and key != OVERFLOW_KEY:
                        self.overflowed += 1
                        key = OVERFLOW_KEY
                    mine = mine_map.get(key)
                    if mine is None:
                        mine = mine_map[key] = _Series(
                            self.window_s, self.buckets, self.delta
                        )
                mine.total.merge(series.total)
                for slot, digest in enumerate(series.window._ring):
                    if digest is None:
                        continue
                    epoch = series.window._epochs[slot]
                    t = (epoch + 0.5) * series.window.bucket_s
                    my_slot, my_epoch = mine.window._slot(t)
                    target = mine.window._ring[my_slot]
                    if target is None or mine.window._epochs[my_slot] != my_epoch:
                        target = mine.window._ring[my_slot] = TDigest(self.delta)
                        mine.window._epochs[my_slot] = my_epoch
                    target.merge(digest)
                    mine.window._rev += 1  # invalidate the digest cache
        self.overflowed += other.overflowed


class NullFleetAggregator(FleetAggregator):
    """No-op twin: ``observe`` swallows everything at near-zero cost."""

    enabled = False

    def __init__(self):
        super().__init__()

    def observe(self, metric, value, t=None, **labels) -> None:
        return None

    def merge(self, other) -> None:
        return None


#: Process-wide no-op aggregator; instrumented code defaults to this.
NULL_FLEET = NullFleetAggregator()
