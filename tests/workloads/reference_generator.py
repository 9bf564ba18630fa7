"""The trace generator as it stood before synthesis became array-wide:
four AR(1) row loops, then a per-instant burst chain.  Test-only, kept
verbatim as the oracle ``tests/workloads/test_synthesis_equivalence.py``
compares the production ``TraceGenerator`` against byte for byte.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.workloads import WorkloadProfile


def reference_generate(
    name: str,
    profile: WorkloadProfile,
    *,
    num_nodes: int,
    capacity_mbps: float,
    seed: int,
    num_snapshots: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(uplink, downlink)`` exactly as the row-loop generator drew them."""
    p = profile
    rng = np.random.default_rng((seed, zlib.crc32(name.encode())))
    n, t = num_nodes, num_snapshots

    shared = _ar1(rng, t, n, p.ar_coeff)
    up_own = _ar1(rng, t, n, p.ar_coeff)
    down_own = _ar1(rng, t, n, p.ar_coeff)
    c = np.sqrt(p.updown_corr)
    s = np.sqrt(1.0 - p.updown_corr)
    up_lat = c * shared + s * up_own
    down_lat = c * shared + s * down_own

    intensity = 0.5 + 0.5 * np.clip(
        _ar1(rng, t, 1, min(0.995, p.ar_coeff + 0.02)), -1.0, 1.0
    )

    bursts = _bursts(rng, t, n, p.burst_rate, p.burst_duration)
    burst_extra = (
        bursts
        * rng.uniform(0.6, 1.4, size=(t, n))
        * p.burst_load
        * intensity
    )

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

    up_avail = (1.0 - to_load(up_lat)) * capacity_mbps
    down_avail = (1.0 - to_load(down_lat)) * capacity_mbps
    return up_avail, down_avail


def _ar1(rng: np.random.Generator, t: int, n: int, rho: float) -> np.ndarray:
    """Stationary unit-variance AR(1) sample of shape (t, n)."""
    out = np.empty((t, n))
    out[0] = rng.standard_normal(n)
    scale = np.sqrt(max(1.0 - rho * rho, 1e-9))
    noise = rng.standard_normal((t, n)) * scale
    for i in range(1, t):
        out[i] = rho * out[i - 1] + noise[i]
    return out


def _bursts(
    rng: np.random.Generator, t: int, n: int, rate: float, duration: float
) -> np.ndarray:
    """Two-state (idle/burst) Markov chain, shape (t, n), values {0, 1}."""
    p_enter = min(rate, 1.0)
    p_exit = 1.0 / max(duration, 1.0)
    states = np.zeros((t, n), dtype=np.float64)
    cur = rng.random(n) < (
        p_enter / max(p_enter + p_exit, 1e-9)
    )  # stationary start
    u = rng.random((t, n))
    for i in range(t):
        cur = np.where(cur, u[i] >= p_exit, u[i] < p_enter)
        states[i] = cur
    return states
