"""Shared fixtures: the paper's worked example and randomised contexts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.net import BandwidthSnapshot, RepairContext

# fixed-seed determinism is the repo's contract: tier-1 draws the same
# hypothesis examples on every run
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


@pytest.fixture
def fig2_snapshot() -> BandwidthSnapshot:
    """The bandwidth table of paper Fig. 2 (node 0 = requester R)."""
    return BandwidthSnapshot(
        uplink=np.array([1000.0, 600.0, 960.0, 600.0, 600.0]),
        downlink=np.array([1000.0, 300.0, 1000.0, 300.0, 300.0]),
    )


@pytest.fixture
def fig2_context(fig2_snapshot) -> RepairContext:
    """(5,3) repair instance of Fig. 2: helpers N2..N5, requester R."""
    return RepairContext(
        snapshot=fig2_snapshot, requester=0, helpers=(1, 2, 3, 4), k=3
    )


def random_context(
    rng: np.random.Generator,
    *,
    min_nodes: int = 6,
    max_nodes: int = 18,
    max_k: int = 10,
    congestion: float = 0.3,
) -> RepairContext:
    """A random repair instance with optional congested nodes."""
    n_nodes = int(rng.integers(min_nodes, max_nodes))
    k = int(rng.integers(2, min(n_nodes - 1, max_k + 1)))
    m = int(rng.integers(k, n_nodes))
    up = rng.uniform(1.0, 1000.0, n_nodes)
    down = rng.uniform(1.0, 1000.0, n_nodes)
    up[rng.random(n_nodes) < congestion] *= 0.05
    down[rng.random(n_nodes) < congestion] *= 0.05
    snap = BandwidthSnapshot(uplink=up, downlink=down)
    ids = rng.permutation(n_nodes)
    return RepairContext(
        snapshot=snap,
        requester=int(ids[0]),
        helpers=tuple(int(x) for x in ids[1 : m + 1]),
        k=k,
    )
