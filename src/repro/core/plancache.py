"""Bounded, quantised repair-plan cache for the master's hot path.

Repair planning is re-run for every failed chunk, but in a steady
cluster the inputs barely move between requests: the helper set is fixed
by stripe placement and the bandwidth snapshot drifts slowly between
report intervals.  :class:`PlanCache` exploits this by memoising
validated plans under a *quantised* key, so repeated repairs of stripes
with the same geometry and near-identical bandwidth skip Algorithm 1,
TASKASSIGN, the segment layout and plan validation entirely.

Design
------

**Key.**  ``(algorithm, k, requester, helpers, floor-quantised uplink
and downlink of requester + helpers)``.  Bandwidths are bucketed by
flooring to :data:`QUANTUM_MBPS` units; two snapshots in the same bucket
share a key.

**Feasibility across a bucket.**  On a miss the plan is computed against
the *floored* snapshot (every involved bandwidth rounded down to its
bucket edge).  Any snapshot mapping to the same key is coordinate-wise
at least the floored one, so the cached rates fit it a fortiori — a hit
can reuse the plan without re-validating rates.  The cost is up to one
quantum of bandwidth per link left on the table, which stays well below
typical link bandwidth (1 Mbps against the paper's ~1 Gbps links
≈ 0.1 %).

**Rebinding.**  Plans are returned bound to the *caller's* context, not
the floored one: ``Master.compile_tasks`` reads ``context.chunk_index``
(stripe-specific), and full-node batch validation sums member rates
against the first member's snapshot.  Pipeline objects are shared
between hits — treat returned pipelines as immutable.

**Bounding + invalidation.**  Entries are LRU-bounded by
``max_entries``.  Each entry remembers the exact (pre-quantisation)
bandwidth of every involved node at compute time;
:meth:`observe_report` drops entries whose recorded bandwidth has
drifted beyond :data:`DRIFT_TOLERANCE` (relative, with a 1 Mbps absolute
floor), so stale plans cannot be served if bandwidth swings away and
back into an old bucket between reports.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..net.bandwidth import BandwidthSnapshot, RepairContext
from ..repair.base import RepairAlgorithm
from ..repair.plan import RepairPlan

#: Bandwidth bucket width of the cache key (Mbps).
QUANTUM_MBPS = 1.0

#: Relative bandwidth drift that invalidates a cached plan.
DRIFT_TOLERANCE = 0.05


@dataclass
class PlanCacheStats:
    """Counters exposed for benchmarks and tests."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """Flat snapshot for metrics export and structured logs."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }


class _Entry:
    __slots__ = ("algorithm", "pipelines", "meta", "calc_seconds", "observed")

    def __init__(self, algorithm, pipelines, meta, calc_seconds, observed):
        self.algorithm = algorithm
        self.pipelines = pipelines
        self.meta = meta
        self.calc_seconds = calc_seconds
        #: node -> exact (uplink, downlink) at compute time, for drift checks
        self.observed = observed


class PlanCache:
    """LRU cache of validated repair plans keyed by quantised context."""

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = PlanCacheStats()
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._by_node: dict[int, set[tuple]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    # ---- quantisation ------------------------------------------------- #

    def quantise(self, context: RepairContext) -> RepairContext:
        """The context planning actually runs against on a miss.

        Same roles and chunk index, bandwidth floored to bucket edges.
        Exposed so tests can check the round-trip property: a cached plan
        equals a fresh ``algorithm.plan(cache.quantise(context))``.
        """
        q = QUANTUM_MBPS
        snap = context.snapshot
        return RepairContext(
            snapshot=BandwidthSnapshot(
                uplink=np.floor(snap.uplink / q) * q,
                downlink=np.floor(snap.downlink / q) * q,
            ),
            requester=context.requester,
            helpers=context.helpers,
            k=context.k,
            chunk_index=dict(context.chunk_index),
        )

    def key_for(self, algorithm_name: str, context: RepairContext) -> tuple:
        """Cache key: roles plus involved-node bandwidth buckets."""
        q = QUANTUM_MBPS
        up = context.snapshot.uplink
        down = context.snapshot.downlink
        nodes = (context.requester, *context.helpers)
        return (
            algorithm_name,
            context.k,
            context.requester,
            context.helpers,
            tuple(int(up[n] / q) for n in nodes),
            tuple(int(down[n] / q) for n in nodes),
        )

    # ---- lookup ------------------------------------------------------- #

    def get_or_compute(
        self, algorithm: RepairAlgorithm, context: RepairContext
    ) -> RepairPlan:
        """Return a validated plan for ``context``, from cache if possible.

        The returned plan is bound to ``context`` itself (fresh snapshot
        and ``chunk_index``); its pipelines were computed on the floored
        snapshot, hence feasible under the exact one.
        """
        start = perf_counter()
        key = self.key_for(algorithm.name, context)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return RepairPlan(
                algorithm=entry.algorithm,
                context=context,
                pipelines=list(entry.pipelines),
                calc_seconds=perf_counter() - start,
                meta={**entry.meta, "plan_cache": "hit"},
            )
        self.stats.misses += 1
        computed = algorithm.plan(self.quantise(context))
        plan = RepairPlan(
            algorithm=computed.algorithm,
            context=context,
            pipelines=computed.pipelines,
            calc_seconds=computed.calc_seconds,
            meta={**computed.meta, "plan_cache": "miss"},
        )
        plan.validate()
        up = context.snapshot.uplink
        down = context.snapshot.downlink
        nodes = (context.requester, *context.helpers)
        entry = _Entry(
            algorithm=computed.algorithm,
            pipelines=computed.pipelines,
            meta=dict(computed.meta),
            calc_seconds=computed.calc_seconds,
            observed={n: (float(up[n]), float(down[n])) for n in nodes},
        )
        self._entries[key] = entry
        for n in nodes:
            self._by_node.setdefault(n, set()).add(key)
        while len(self._entries) > self.max_entries:
            self._pop(next(iter(self._entries)))
            self.stats.evictions += 1
        return plan

    # ---- invalidation ------------------------------------------------- #

    def observe_report(
        self, node: int, uplink_mbps: float, downlink_mbps: float
    ) -> int:
        """Drop entries whose recorded bandwidth for ``node`` has drifted.

        Relative drift beyond :data:`DRIFT_TOLERANCE` (against the recorded
        value, with a 1 Mbps absolute floor) invalidates the entry.
        Returns the number of entries dropped.
        """
        keys = self._by_node.get(node)
        if not keys:
            return 0
        tol = DRIFT_TOLERANCE
        dropped = 0
        for key in list(keys):
            old_up, old_down = self._entries[key].observed[node]
            if abs(uplink_mbps - old_up) > tol * max(old_up, 1.0) or abs(
                downlink_mbps - old_down
            ) > tol * max(old_down, 1.0):
                self._pop(key)
                dropped += 1
        self.stats.invalidations += dropped
        return dropped

    def invalidate_node(self, node: int) -> int:
        """Drop every entry that involves ``node`` (e.g. node failure)."""
        keys = self._by_node.get(node)
        if not keys:
            return 0
        dropped = 0
        for key in list(keys):
            self._pop(key)
            dropped += 1
        self.stats.invalidations += dropped
        return dropped

    def clear(self) -> None:
        self._entries.clear()
        self._by_node.clear()

    def _pop(self, key: tuple) -> None:
        del self._entries[key]
        requester, helpers = key[2], key[3]
        for n in (requester, *helpers):
            nodes = self._by_node.get(n)
            if nodes is not None:
                nodes.discard(key)
                if not nodes:
                    del self._by_node[n]
