"""Foreground read traffic coexisting with background recovery.

Recovery scheduling only matters because users are watching: the same
links that carry repair traffic serve reads.  This generator issues a
seeded, periodic stream of chunk reads against the cluster *while* the
orchestrator drains its queue, so interference is measurable from both
sides:

- **healthy reads** (the chunk's node can serve it:
  :meth:`~repro.cluster.system.ClusterSystem.can_serve`, alive and the
  chunk not quarantined) are served analytically — the latency is the
  transfer time at the bandwidth left over after the orchestrator's
  committed repair share, which is exactly the coupling the SLO
  throttle reacts to; the payload is a read-only view of the stored
  bytes (:meth:`~repro.cluster.system.ClusterSystem.read_chunk`), so a
  record holds no copy of the chunk;
- **degraded reads** (the node dead, or its copy quarantined as
  corrupt) go through the real event machinery —
  :meth:`~repro.cluster.system.ClusterSystem.repair_async` with
  ``store=False`` rebuilds the chunk at the reader concurrently with
  whatever the orchestrator has in flight, exercising the wire
  protocol under contention;
- a read with no live node outside the placement to land at fails,
  healthy or degraded alike: ``ok=False``, ``reader=-1``, reason
  ``"no live node outside the placement"``.

Every read lands in :attr:`ForegroundTraffic.reads` and, when a fleet
aggregator is attached to the system, feeds the
``repro_foreground_latency_seconds`` stream that SLO rules watch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

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
    #: the bytes read: a read-only view of the stored chunk (healthy),
    #: the buffer rebuilt at the reader (degraded), ``None`` on failure
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
        self._obs = system.obs

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
        node = self.system.master.stripe(sid).node_of(chunk)
        degraded = not self.system.can_serve(sid, chunk, node)
        reader = self._pick_reader(sid)
        nbytes = self.system.chunk_bytes_of(sid)
        read = partial(
            ForegroundRead, t=self._events.now, stripe_id=sid, chunk_index=chunk,
            node=node, reader=-1 if reader is None else reader, nbytes=nbytes,
            degraded=degraded,
        )
        if reader is None:
            # healthy or degraded, a read needs a node to land at
            self._record(
                read(ok=False, failure_reason="no live node outside the placement")
            )
        elif degraded:
            self._degraded_read(read, sid, node, reader)
        else:
            latency = self._healthy_latency(node, reader, nbytes)
            payload = self.system.read_chunk(sid, chunk)
            self._record(read(ok=True, latency_s=latency, payload=payload))
        if self._issued < self.num_reads:
            self._events.schedule(PERIOD_S, self._issue)

    def _healthy_latency(self, node, reader, nbytes) -> float:
        snapshot = self.system.master.snapshot()
        rate = min(snapshot.uplink[node], snapshot.downlink[reader])
        if self.orchestrator is not None:
            # repairs plan inside committed x snapshot per node, so the
            # leftover for foreground is the complementary fraction
            rate *= max(0.0, 1.0 - self.orchestrator.committed_fraction)
        return units.transfer_seconds(nbytes, max(rate, _MIN_RATE_MBPS))

    def _degraded_read(self, read, sid, node, reader) -> None:
        t0 = self._events.now
        self._pending += 1

        def settle(outcome) -> None:
            self._pending -= 1
            self._record(
                read(
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
            self._record(read(ok=False, failure_reason=str(exc)))

    def _pick_reader(self, sid) -> int | None:
        candidates = self.system.spares(sid)
        if not candidates:
            return None
        return candidates[int(self._rng.integers(len(candidates)))]

    # ---- accounting ---------------------------------------------------- #

    def _record(self, read: ForegroundRead) -> None:
        self.reads.append(read)
        if read.ok:
            self.bytes_read += read.nbytes
        self._obs.foreground_read(read)
