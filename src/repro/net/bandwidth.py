"""Per-node available-bandwidth snapshots.

A :class:`BandwidthSnapshot` captures, at a scheduling instant, the uplink
and downlink bandwidth (Mbps) each node can devote to repair — i.e. the
node's total NIC capacity minus what foreground jobs are consuming (paper
§II-C measures exactly this with ``nload``).  All repair algorithms take a
snapshot plus the requester/helper roles and emit a repair plan.

Node identifiers are small integers.  By convention in this library the
*requester* is whatever id the caller designates; snapshots themselves are
role-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def check_bandwidths(uplink: np.ndarray, downlink: np.ndarray) -> None:
    """Refuse a bandwidth that is not ``>= 0``: a negative one, and NaN,
    for which every comparison is False (``+inf`` passes).  One ndarray
    reduction per direction: ``min`` propagates NaN."""
    if uplink.size and not (uplink.min() >= 0 and downlink.min() >= 0):
        raise ValueError("bandwidths must be non-negative")


@dataclass(frozen=True)
class BandwidthSnapshot:
    """Immutable per-node uplink/downlink available bandwidth, in Mbps.

    The constructor copies both directions to float64 arrays of its own
    (so no other view reaches them), checks them (equal-length 1-D,
    every value ``>= 0``, so NaN is refused) and makes them read-only.
    :meth:`Trace.snapshot <repro.workloads.base.Trace.snapshot>` builds
    its row copies through ``_unchecked``: a row of a checked, read-only
    trace passes both checks.

    Attributes
    ----------
    uplink:
        ``uplink[i]`` — available upload bandwidth of node ``i``.
    downlink:
        ``downlink[i]`` — available download bandwidth of node ``i``.
    """

    uplink: np.ndarray
    downlink: np.ndarray

    def __post_init__(self) -> None:
        up = np.array(self.uplink, dtype=np.float64)
        down = np.array(self.downlink, dtype=np.float64)
        if up.ndim != 1 or down.ndim != 1 or up.shape != down.shape:
            raise ValueError(
                f"uplink/downlink must be equal-length 1-D arrays, got "
                f"{up.shape} and {down.shape}"
            )
        check_bandwidths(up, down)
        up.setflags(write=False)
        down.setflags(write=False)
        object.__setattr__(self, "uplink", up)
        object.__setattr__(self, "downlink", down)

    @classmethod
    def _unchecked(cls, uplink: np.ndarray, downlink: np.ndarray) -> "BandwidthSnapshot":
        """A snapshot of two read-only float64 rows already known valid."""
        snap = object.__new__(cls)
        object.__setattr__(snap, "uplink", uplink)
        object.__setattr__(snap, "downlink", downlink)
        return snap

    @property
    def num_nodes(self) -> int:
        return int(self.uplink.shape[0])

    def __len__(self) -> int:
        return self.num_nodes

    @classmethod
    def symmetric(cls, bandwidths) -> "BandwidthSnapshot":
        """Snapshot where each node's uplink equals its downlink."""
        return cls(uplink=bandwidths, downlink=bandwidths)

    @classmethod
    def uniform(cls, num_nodes: int, mbps: float) -> "BandwidthSnapshot":
        """Homogeneous snapshot: every link has the same bandwidth."""
        return cls.symmetric(np.full(num_nodes, float(mbps)))

    def restrict(self, nodes) -> "BandwidthSnapshot":
        """Snapshot over a subset of nodes, reindexed to 0..len(nodes)-1."""
        idx = np.asarray(list(nodes), dtype=np.intp)
        return BandwidthSnapshot(self.uplink[idx], self.downlink[idx])

    def cv(self, *, direction: str = "uplink") -> float:
        """Coefficient of variation of per-node bandwidth (paper's C_v).

        ``direction`` is ``"uplink"``, ``"downlink"`` or ``"mean"`` (the
        per-node mean of both directions, matching the paper's 'average
        node bandwidth').
        """
        if direction == "uplink":
            values = self.uplink
        elif direction == "downlink":
            values = self.downlink
        elif direction == "mean":
            values = (self.uplink + self.downlink) / 2.0
        else:
            raise ValueError(f"unknown direction {direction!r}")
        mean = float(np.mean(values))
        if mean == 0.0:
            return 0.0
        return float(np.std(values) / mean)


@dataclass
class RepairContext:
    """A repair instance: who failed, who requests, who can help.

    Attributes
    ----------
    snapshot:
        Bandwidth state of the whole cluster at scheduling time.
    requester:
        Node id that rebuilds (and will store) the failed chunk.
    helpers:
        Candidate helper node ids — the non-failed nodes holding the other
        chunks of the stripe (n - 1 of them for a single failure).
    k:
        The code's k: how many distinct chunks each repaired byte needs.
    """

    snapshot: BandwidthSnapshot
    requester: int
    helpers: tuple[int, ...]
    k: int
    chunk_index: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.helpers = helpers = tuple(map(int, self.helpers))
        ids = (self.requester, *helpers)
        if min(ids) < 0 or max(ids) >= len(self.snapshot.uplink):
            raise ValueError("requester/helper ids out of snapshot range")
        if len(set(ids)) != len(ids):
            raise ValueError("requester and helpers must be distinct")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(helpers) < self.k:
            raise ValueError(
                f"need at least k={self.k} helpers, got {len(helpers)}"
            )

    @property
    def num_helpers(self) -> int:
        return len(self.helpers)

    def uplink(self, node: int) -> float:
        return float(self.snapshot.uplink[node])

    def downlink(self, node: int) -> float:
        return float(self.snapshot.downlink[node])
