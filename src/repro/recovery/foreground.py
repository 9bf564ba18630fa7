"""Foreground read traffic coexisting with background recovery.

Recovery scheduling only matters because users are watching: the same
links that carry repair traffic serve reads.  This generator issues a
seeded, periodic stream of chunk reads against the cluster *while* the
orchestrator drains its queue, so interference is measurable from both
sides:

- **healthy reads** (chunk's node alive) are served analytically — the
  latency is the transfer time at the bandwidth left over after the
  orchestrator's committed repair share, which is exactly the coupling
  the SLO throttle reacts to;
- **degraded reads** (chunk's node dead) go through the real event
  machinery — :meth:`~repro.cluster.system.ClusterSystem.repair_async`
  with ``store=False`` rebuilds the chunk at the reader concurrently
  with whatever the orchestrator has in flight, exercising the wire
  protocol under contention.

Every read lands in :attr:`ForegroundTraffic.reads` and, when a fleet
aggregator is attached to the system, feeds the
``repro_foreground_latency_seconds`` stream that SLO rules watch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..net import units

_MIN_RATE_MBPS = 1e-3  # floor so a fully-committed link still drains
_DEGRADED_SHARE = 0.1  # bandwidth fraction a degraded-read rebuild plans inside

#: Inter-arrival time between reads (seconds).
PERIOD_S = 0.002


@dataclass(frozen=True)
class ForegroundRead:
    """One issued foreground read and how it fared."""

    t: float
    stripe_id: str
    chunk_index: int
    #: node holding the chunk at issue time
    node: int
    reader: int
    nbytes: int
    degraded: bool
    ok: bool
    latency_s: float = 0.0
    failure_reason: str | None = None
    payload: np.ndarray | None = field(default=None, repr=False)


class ForegroundTraffic:
    """Seeded periodic chunk-read workload over a running cluster.

    Parameters
    ----------
    system:
        Cluster to read from (its event queue schedules the stream).
    stripe_ids:
        Stripes to draw reads from (uniformly at random, seeded).
    num_reads:
        Total reads to issue, one every :data:`PERIOD_S`; the stream
        then stops on its own.
    seed:
        RNG seed — the stream is deterministic given the seed.
    orchestrator:
        When given, healthy-read latency is computed against the
        bandwidth left after ``orchestrator.committed_fraction`` —
        the contention signal the SLO throttle closes the loop on.
    """

    def __init__(
        self,
        system,
        stripe_ids,
        *,
        num_reads: int = 100,
        seed: int = 0,
        orchestrator=None,
    ) -> None:
        if num_reads < 0:
            raise ValueError("num_reads must be non-negative")
        self.system = system
        self.stripe_ids = list(stripe_ids)
        if not self.stripe_ids:
            raise ValueError("need at least one stripe to read from")
        self.num_reads = num_reads
        self.orchestrator = orchestrator
        self.reads: list[ForegroundRead] = []
        self.bytes_read = 0
        self._rng = np.random.default_rng(seed)
        self._issued = 0
        self._pending = 0
        self._started = False
        self._events = system.events
        self._metrics = system.metrics
        self._fleet = system.fleet

    # ------------------------------------------------------------------ #

    @property
    def done(self) -> bool:
        """Every read issued and every degraded rebuild settled."""
        return self._issued >= self.num_reads and self._pending == 0

    def start(self) -> None:
        """Arm the stream (idempotent); run the event queue after."""
        if self._started:
            return
        self._started = True
        if self.num_reads > 0:
            self._events.schedule(PERIOD_S, self._issue)

    def summary(self) -> dict:
        """Aggregate view of the stream (for reports and tests)."""
        lat = sorted(r.latency_s for r in self.reads if r.ok)
        n = len(lat)
        return {
            "issued": self._issued,
            "recorded": len(self.reads),
            "ok": sum(1 for r in self.reads if r.ok),
            "degraded": sum(1 for r in self.reads if r.degraded),
            "bytes": self.bytes_read,
            "mean_latency_s": (sum(lat) / n) if n else 0.0,
            "p95_latency_s": lat[min(n - 1, int(0.95 * n))] if n else 0.0,
            "max_latency_s": lat[-1] if n else 0.0,
        }

    # ---- stream ------------------------------------------------------- #

    def _issue(self) -> None:
        sid = self.stripe_ids[self._rng.integers(len(self.stripe_ids))]
        chunk = int(self._rng.integers(self.system.code.k))
        self._issued += 1
        now = self._events.now
        loc = self.system.master.stripe(sid)
        node = loc.node_of(chunk)
        if self.system.is_alive(node):
            self._healthy_read(now, sid, chunk, node)
        else:
            self._degraded_read(now, sid, chunk, node)
        if self._issued < self.num_reads:
            self._events.schedule(PERIOD_S, self._issue)

    def _healthy_read(self, now, sid, chunk, node) -> None:
        nbytes = self.system.chunk_bytes_of(sid)
        reader = self._pick_reader(sid)
        snapshot = self.system.master.snapshot()
        rate = min(snapshot.uplink[node], snapshot.downlink[reader or 0])
        if self.orchestrator is not None:
            # repairs plan inside committed x snapshot per node, so the
            # leftover for foreground is the complementary fraction
            rate *= max(0.0, 1.0 - self.orchestrator.committed_fraction)
        latency = units.transfer_seconds(nbytes, max(rate, _MIN_RATE_MBPS))
        payload = self.system.read_chunk(sid, chunk)
        self._record(
            ForegroundRead(
                t=now, stripe_id=sid, chunk_index=chunk, node=node,
                reader=reader if reader is not None else -1,
                nbytes=nbytes, degraded=False, ok=True,
                latency_s=latency, payload=payload,
            )
        )

    def _degraded_read(self, now, sid, chunk, node) -> None:
        nbytes = self.system.chunk_bytes_of(sid)
        reader = self._pick_reader(sid)
        if reader is None:
            self._record(
                ForegroundRead(
                    t=now, stripe_id=sid, chunk_index=chunk, node=node,
                    reader=-1, nbytes=nbytes, degraded=True, ok=False,
                    failure_reason="no live node outside the placement",
                )
            )
            return
        self._pending += 1

        def settle(outcome, t0=now, sid=sid, chunk=chunk, node=node,
                   reader=reader, nbytes=nbytes) -> None:
            self._pending -= 1
            self._record(
                ForegroundRead(
                    t=t0, stripe_id=sid, chunk_index=chunk, node=node,
                    reader=reader, nbytes=nbytes, degraded=True,
                    ok=outcome.verified,
                    latency_s=self._events.now - t0,
                    failure_reason=outcome.failure_reason,
                    payload=outcome.rebuilt,
                )
            )

        try:
            self.system.repair_async(
                sid, node, reader,
                store=False,
                bandwidth_scale=_DEGRADED_SHARE,
                on_done=settle,
            )
        except (ValueError, RuntimeError) as exc:
            self._pending -= 1
            self._record(
                ForegroundRead(
                    t=now, stripe_id=sid, chunk_index=chunk, node=node,
                    reader=reader, nbytes=nbytes, degraded=True, ok=False,
                    failure_reason=str(exc),
                )
            )

    def _pick_reader(self, sid) -> int | None:
        placement = self.system.master.stripe(sid).placement
        candidates = [r for r in self.system.live if r not in placement]
        if not candidates:
            return None
        return candidates[int(self._rng.integers(len(candidates)))]

    # ---- accounting ---------------------------------------------------- #

    def _record(self, read: ForegroundRead) -> None:
        self.reads.append(read)
        if read.ok:
            self.bytes_read += read.nbytes
        kind = "degraded" if read.degraded else "healthy"
        if self._metrics.enabled:
            self._metrics.counter(
                "repro_foreground_reads_total",
                "Foreground chunk reads issued.",
                kind=kind,
                ok=str(read.ok).lower(),
            ).inc()
            if read.ok:
                self._metrics.counter(
                    "repro_foreground_bytes_total",
                    "Foreground bytes served.",
                ).inc(read.nbytes)
                self._metrics.histogram(
                    "repro_foreground_latency_seconds",
                    "Foreground read latency.",
                    kind=kind,
                ).observe(read.latency_s)
        if self._fleet.enabled and read.ok:
            self._fleet.observe(
                "repro_foreground_latency_seconds",
                read.latency_s,
                kind=kind,
            )
