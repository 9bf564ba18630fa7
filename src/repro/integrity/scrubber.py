"""Budgeted background scrubber: find rot before a repair trips on it.

The scrubber walks every registered stripe, re-reads each chunk on its
node, and verifies the stored digest.  Reads are paced so that each
node spends at most a configured *fraction* of its uplink bandwidth on
scrubbing: every node has one serial scrub lane whose read of a
B-byte chunk occupies ``B / (fraction * uplink)`` seconds — running
the lane back-to-back therefore consumes exactly ``fraction`` of the
node's bandwidth, leaving the rest for foreground and repair traffic.
Lanes on different nodes proceed in parallel, so a cluster-wide pass
over S stripes of n chunks completes in roughly
``(chunks_per_node * chunk_bytes) / (fraction * uplink)`` simulated
seconds.

A digest mismatch is silent corruption made loud: the chunk is
quarantined on the master (excluded from every future plan) and, when
an orchestrator is attached, its stripe is pushed into the
durability-exposure queue as a *scrub-repair* — the orchestrator
rebuilds the chunk on a spare node exactly like a crash repair, and
relocation clears the quarantine.

The scrubber lives on the cluster's deterministic event queue:
:meth:`Scrubber.start` schedules the walk and returns immediately
(orchestrator scenarios), :meth:`Scrubber.run` drains the queue and
returns the report (CLI / one-shot audits).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from ..net import units

logger = logging.getLogger(__name__)


@dataclass
class ScrubReport:
    """What one scrub pass covered and found."""

    bandwidth_fraction: float
    started_at: float
    finished_at: float = 0.0
    stripes_scanned: int = 0
    chunks_scanned: int = 0
    bytes_scanned: int = 0
    #: chunks skipped because their node is dead or already quarantined
    skipped: int = 0
    #: (stripe_id, chunk_index, node) of every digest mismatch found
    corrupt: list[tuple[str, int, int]] = field(default_factory=list)

    @property
    def elapsed_s(self) -> float:
        return max(0.0, self.finished_at - self.started_at)


class Scrubber:
    """Walk stripes, verify digests, quarantine rot, queue scrub-repairs.

    Parameters
    ----------
    system:
        The :class:`~repro.cluster.system.ClusterSystem` to scrub.
    bandwidth_fraction:
        Per-node bandwidth budget: each node's scrub lane reads at this
        fraction of its reported uplink rate.
    orchestrator:
        Optional :class:`~repro.recovery.RecoveryOrchestrator`; every
        stripe with newly quarantined rot is pushed into its queue via
        :meth:`~repro.recovery.RecoveryOrchestrator.enqueue_stripe`.
    """

    def __init__(
        self,
        system,
        *,
        bandwidth_fraction: float = 0.05,
        orchestrator=None,
    ) -> None:
        if not 0.0 < bandwidth_fraction <= 1.0:
            raise ValueError("bandwidth_fraction must be in (0, 1]")
        self.system = system
        self.bandwidth_fraction = bandwidth_fraction
        self.orchestrator = orchestrator
        self.report: ScrubReport | None = None
        self._pending = 0
        self._on_done = None
        self._span = None

    # ------------------------------------------------------------------ #

    def start(self, on_done=None) -> ScrubReport:
        """Schedule a full scrub pass; returns the (live) report object.

        ``on_done(report)`` fires from inside the event-queue run when
        the last chunk has been verified.  The walk is laid out up
        front: each chunk's verification is an event at the time its
        node's scrub lane finishes reading it.
        """
        system = self.system
        now = system.events.now
        self.report = report = ScrubReport(
            bandwidth_fraction=self.bandwidth_fraction,
            started_at=now,
            finished_at=now,
        )
        self._on_done = on_done
        self._pending = 0
        self._span = system.obs.scrub_start(self.bandwidth_fraction)
        uplink = system.master.snapshot().uplink
        lane_free = {}  # node -> time its scrub lane frees up
        stripes = system.master.stripe_ids()
        for stripe_id in stripes:
            loc = system.master.stripe(stripe_id)
            chunk_bytes = system.chunk_bytes_of(stripe_id)
            unavailable = system.unavailable(stripe_id)
            touched = False
            for chunk_index, node in enumerate(loc.placement):
                if unavailable >> chunk_index & 1:
                    report.skipped += 1
                    continue
                touched = True
                rate_mbps = max(
                    float(uplink[node]) * self.bandwidth_fraction, 1e-3
                )
                read_s = units.transfer_seconds(chunk_bytes, rate_mbps)
                done_at = max(lane_free.get(node, now), now) + read_s
                lane_free[node] = done_at
                self._pending += 1
                system.events.schedule_at(
                    done_at,
                    lambda s=stripe_id, c=chunk_index, n=node: self._verify(
                        s, c, n
                    ),
                )
            if touched:
                report.stripes_scanned += 1
        if self._pending == 0:
            self._finish()
        return report

    def run(self) -> ScrubReport:
        """One blocking scrub pass: start, drain the queue, report."""
        report = self.start()
        self.system.events.run()
        return report

    # ------------------------------------------------------------------ #

    def _verify(self, stripe_id: str, chunk_index: int, node: int) -> None:
        system = self.system
        report = self.report
        self._pending -= 1
        # the cluster may have moved on since the walk was laid out
        if (
            system.master.stripe(stripe_id).placement[chunk_index] != node
            or not system.can_serve(stripe_id, chunk_index, node)
        ):
            report.skipped += 1
            if self._pending == 0:
                self._finish()
            return
        store = system.nodes[node].store
        ok = store.has(stripe_id, chunk_index) and store.verify(
            stripe_id, chunk_index
        )
        nbytes = system.chunk_bytes_of(stripe_id)
        report.chunks_scanned += 1
        report.bytes_scanned += nbytes
        system.obs.scrub_chunk(self._span, stripe_id, chunk_index, node, ok, nbytes)
        if not ok:
            report.corrupt.append((stripe_id, chunk_index, node))
            logger.info(
                "scrub found rot: %s chunk %d on node %d",
                stripe_id, chunk_index, node,
            )
            system.quarantine_chunk(
                stripe_id, chunk_index, node, kind="scrub"
            )
            if self.orchestrator is not None:
                self.orchestrator.enqueue_stripe(stripe_id)
        if self._pending == 0:
            self._finish()

    def _finish(self) -> None:
        report = self.report
        report.finished_at = self.system.events.now
        self.system.obs.scrub_end(self._span, report)
        self._span = None
        logger.info(
            "scrub pass done: %d chunks, %d corrupt, %.3fs",
            report.chunks_scanned, len(report.corrupt), report.elapsed_s,
        )
        if self._on_done is not None:
            callback, self._on_done = self._on_done, None
            callback(report)
