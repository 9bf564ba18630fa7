"""Bandwidth-trace substrate: synthetic foreground-workload generators.

The paper measures per-node *available repair bandwidth* on a 16-node,
1 Gbps cluster replaying TPC-DS, TPC-H and SWIM foreground workloads
(§II-C), producing 6000 time-continuous bandwidth sets per workload.
Those measured traces are not redistributable, so this package synthesises
statistically matched substitutes (see DESIGN.md): each node's foreground
load follows a mean-reverting AR(1) latent process modulated by
workload-specific burst behaviour, and the available bandwidth is the
node's capacity minus its foreground load.  Every generator is fully
deterministic under a seed.

What the downstream experiments need from these traces — and what the
generators therefore control — is the *distribution of unevenness*: the
per-snapshot coefficient of variation C_v must span the paper's buckets
[0, 0.5) with plenty of congested instants, while staying temporally
continuous.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass

import numpy as np

from ..net.bandwidth import BandwidthSnapshot, check_bandwidths

#: Cluster scale used throughout the paper's trace study.
DEFAULT_NUM_NODES = 16
DEFAULT_CAPACITY_MBPS = 1000.0
DEFAULT_NUM_SNAPSHOTS = 6000


@dataclass(frozen=True)
class Trace:
    """A time-continuous sequence of bandwidth snapshots.

    The constructor copies the arrays to float64 arrays of its own (like
    a snapshot's: no other view reaches them), checks them once —
    equal-shape 2-D, every value ``>= 0`` (NaN refused) — and makes them
    read-only, so no instant needs checking again.

    Attributes
    ----------
    workload:
        Generator name ("tpcds", "tpch", "swim").
    capacity_mbps:
        Per-node NIC capacity the loads were subtracted from.
    uplink / downlink:
        (T, N) read-only arrays of available bandwidth per instant and node.
    """

    workload: str
    capacity_mbps: float
    uplink: np.ndarray
    downlink: np.ndarray

    def __post_init__(self) -> None:
        up = np.array(self.uplink, dtype=np.float64)
        down = np.array(self.downlink, dtype=np.float64)
        if up.shape != down.shape or up.ndim != 2:
            raise ValueError("uplink/downlink must be equal-shape (T, N) arrays")
        check_bandwidths(up, down)
        up.setflags(write=False)
        down.setflags(write=False)
        object.__setattr__(self, "uplink", up)
        object.__setattr__(self, "downlink", down)

    def __len__(self) -> int:
        return int(self.uplink.shape[0])

    @property
    def num_nodes(self) -> int:
        return int(self.uplink.shape[1])

    def snapshot(self, t: int) -> BandwidthSnapshot:
        """The bandwidth state at instant ``t``: read-only copies of row
        ``t``, unchecked (the trace was checked whole).  Copies, not
        views, so a snapshot kept for a whole run does not pin the trace.
        """
        up, down = self.uplink[t].copy(), self.downlink[t].copy()
        up.setflags(write=False)
        down.setflags(write=False)
        return BandwidthSnapshot._unchecked(up, down)

    def snapshots(self):
        """Iterate all instants as snapshots."""
        for t in range(len(self)):
            yield self.snapshot(t)

    def congested_instants(self, *, threshold_fraction: float = 0.4) -> np.ndarray:
        """Instants where at least one node is congested.

        A node is congested when its available bandwidth (either
        direction) falls below ``threshold_fraction`` of capacity —
        matching the paper's selection of "bandwidth distributions having
        congested nodes" for the repair experiments.
        """
        thr = threshold_fraction * self.capacity_mbps
        mask = (self.uplink < thr).any(axis=1) | (self.downlink < thr).any(axis=1)
        return np.nonzero(mask)[0]


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical knobs that differentiate the three workloads.

    Attributes
    ----------
    base_load:
        Mean foreground utilisation (fraction of capacity).
    ar_coeff:
        AR(1) persistence of the latent load process (temporal
        continuity; closer to 1 = smoother).
    ar_sigma:
        Innovation scale of the latent process.
    burst_rate:
        Per-instant probability that a node enters a congestion burst.
    burst_duration:
        Mean burst length in instants (geometric).
    burst_load:
        Mean extra utilisation during a burst.
    skew:
        Fraction of "hot" nodes that carry systematically higher load
        (models partitioned scans / shuffle-heavy reducers).
    skew_load:
        Extra utilisation on hot nodes.
    updown_corr:
        Correlation between a node's uplink and downlink load in [0, 1]
        (1 = symmetric traffic).
    """

    base_load: float
    ar_coeff: float
    ar_sigma: float
    burst_rate: float
    burst_duration: float
    burst_load: float
    skew: float
    skew_load: float
    updown_corr: float


class TraceGenerator(abc.ABC):
    """Base class for workload-specific trace synthesis."""

    #: Generator name, set by subclasses.
    name: str = ""
    #: Workload statistical profile, set by subclasses.
    profile: WorkloadProfile

    def __init__(
        self,
        *,
        num_nodes: int = DEFAULT_NUM_NODES,
        capacity_mbps: float = DEFAULT_CAPACITY_MBPS,
        seed: int = 0,
    ) -> None:
        if num_nodes < 2:
            raise ValueError("need at least two nodes")
        if capacity_mbps <= 0:
            raise ValueError("capacity must be positive")
        self.num_nodes = num_nodes
        self.capacity_mbps = capacity_mbps
        self.seed = seed

    def generate(self, num_snapshots: int = DEFAULT_NUM_SNAPSHOTS) -> Trace:
        """Synthesise a trace of ``num_snapshots`` instants.

        The bytes depend on (workload, nodes, snapshots, seed) alone and are
        pinned downstream: the seed's draws keep one order (the shared, up,
        down and intensity series, burst start and steps, burst sizes, hot
        nodes), one elementwise recurrence advances all four series (each
        value takes the IEEE steps of a row-by-row loop), and the burst
        chain is computed in closed form on booleans and integers.
        """
        if num_snapshots < 1:
            raise ValueError("num_snapshots must be positive")
        p = self.profile
        # stable per-workload stream: zlib.crc32 is process-independent
        # (builtin str hash is salted and would break reproducibility)
        rng = np.random.default_rng((self.seed, zlib.crc32(self.name.encode())))
        n, t = self.num_nodes, num_snapshots

        # latent AR(1) per node and direction, with cross-direction mixing,
        # plus a cluster-wide intensity wave that makes quiet (even) and
        # busy (uneven) periods alternate, spreading C_v over the buckets
        series = self._ar1(
            rng, t, (n, n, n, 1), (p.ar_coeff,) * 3 + (min(0.995, p.ar_coeff + 0.02),)
        )
        shared, up_own, down_own = (series[:, i * n : (i + 1) * n] for i in range(3))
        c = np.sqrt(p.updown_corr)
        s = np.sqrt(1.0 - p.updown_corr)
        up_lat = c * shared + s * up_own
        down_lat = c * shared + s * down_own
        intensity = 0.5 + 0.5 * np.clip(series[:, 3 * n :], -1.0, 1.0)

        # congestion bursts: two-state Markov chain per node, modulated by
        # the cluster intensity (busy periods burst much more)
        bursts = self._bursts(rng, t, n, p.burst_rate, p.burst_duration)
        burst_extra = (
            bursts
            * rng.uniform(0.6, 1.4, size=(t, n))
            * p.burst_load
            * intensity
        )

        # static skew: hot nodes carry extra sustained load
        hot = rng.random(n) < p.skew
        skew_extra = hot[None, :] * p.skew_load * intensity

        def to_load(latent: np.ndarray) -> np.ndarray:
            util = (
                p.base_load
                + p.ar_sigma * latent * intensity
                + burst_extra
                + skew_extra
            )
            return np.clip(util, 0.0, 0.95)

        up_avail = (1.0 - to_load(up_lat)) * self.capacity_mbps
        down_avail = (1.0 - to_load(down_lat)) * self.capacity_mbps
        return Trace(
            workload=self.name,
            capacity_mbps=self.capacity_mbps,
            uplink=up_avail,
            downlink=down_avail,
        )

    @staticmethod
    def _ar1(
        rng: np.random.Generator, t: int, widths: tuple[int, ...], rhos: tuple[float, ...]
    ) -> np.ndarray:
        """Stationary unit-variance AR(1) blocks of ``widths[j]`` columns and
        coefficient ``rhos[j]`` side by side; each block draws its start row,
        then its (t, width) noise, and one pass advances every column."""
        out = np.empty((t, sum(widths)))
        lo = 0
        for w, rho in zip(widths, rhos):
            out[0, lo : lo + w] = rng.standard_normal(w)
            scale = np.sqrt(max(1.0 - rho * rho, 1e-9))
            out[1:, lo : lo + w] = rng.standard_normal((t, w))[1:] * scale
            lo += w
        rho_cols, tmp, rows = np.repeat(rhos, widths), np.empty(lo), list(out)
        for prev, cur in zip(rows, rows[1:]):
            np.add(cur, np.multiply(prev, rho_cols, out=tmp), out=cur)
        return out

    @staticmethod
    def _bursts(
        rng: np.random.Generator, t: int, n: int, rate: float, duration: float
    ) -> np.ndarray:
        """Two-state (idle/burst) Markov chain, shape (t, n), values {0, 1}.

        A step keeps a burst where ``u >= p_exit`` (stay) and starts one
        where ``u < p_enter`` (enter).  Where the two agree the step resets
        the state to that value; stay alone holds it and enter alone flips
        it.  So a state is the value at the last reset XOR the parity of
        the flips since; row 0, the stationary start, counts as a reset.
        """
        p_enter = min(rate, 1.0)
        p_exit = 1.0 / max(duration, 1.0)
        start = rng.random(n) < (p_enter / max(p_enter + p_exit, 1e-9))
        u = rng.random((t, n))
        stay = np.vstack([start, u >= p_exit])
        enter = np.vstack([start, u < p_enter])
        odd = np.bitwise_xor.accumulate(enter & ~stay, axis=0)
        steps = np.arange(t + 1)[:, None]
        last = np.maximum.accumulate(np.where(stay == enter, steps, 0), axis=0)
        cols = np.arange(n)
        states = stay[last, cols] ^ odd ^ odd[last, cols]
        return states[1:].astype(np.float64)
