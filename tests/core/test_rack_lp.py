"""Rack-aware LP oracle: the price of rack-oblivious scheduling."""

import numpy as np
import pytest

from repro.core import FullRepair
from repro.core.optimality import lp_max_throughput
from repro.net import (
    BandwidthSnapshot,
    RepairContext,
    rack_scaled_context,
    validate_rates_with_racks,
)

from ..net.test_topology import racks


@pytest.fixture
def ctx():
    snap = BandwidthSnapshot.uniform(8, 1000.0)
    return RepairContext(snapshot=snap, requester=0, helpers=tuple(range(1, 8)), k=4)


class TestRackAwareLP:
    def test_no_topology_reduces_to_plain_lp(self, ctx):
        assert lp_max_throughput(ctx, tree=None) == pytest.approx(
            lp_max_throughput(ctx)
        )

    def test_generous_trunks_change_nothing(self, ctx):
        topo = racks(8, 4, oversubscription=1.0)
        assert lp_max_throughput(ctx, *topo) == pytest.approx(
            lp_max_throughput(ctx), rel=1e-6
        )

    def test_ordering_scaled_le_rack_lp_le_free(self, ctx):
        """scaled-FullRepair <= rack-aware optimum <= unconstrained."""
        for ratio in (2.0, 4.0, 8.0):
            topo = racks(8, 4, oversubscription=ratio)
            free = lp_max_throughput(ctx)
            aware = lp_max_throughput(ctx, *topo)
            scaled = FullRepair().schedule(rack_scaled_context(ctx, *topo)).total_rate
            assert scaled <= aware + 1e-6
            assert aware <= free + 1e-5

    def test_rack_locality_dodges_mild_oversubscription(self, ctx):
        """The LP routes through same-rack hubs, so a 2:1 trunk costs
        nothing — the headroom rack-aware scheduling could claim over the
        conservative per-node scaling (which pays 2x)."""
        topo = racks(8, 4, oversubscription=2.0)
        aware = lp_max_throughput(ctx, *topo)
        scaled = FullRepair().schedule(rack_scaled_context(ctx, *topo)).total_rate
        assert aware == pytest.approx(1000.0, rel=1e-6)
        assert scaled == pytest.approx(500.0, rel=1e-6)

    def test_extreme_oversubscription_binds(self, ctx):
        topo = racks(8, 4, oversubscription=8.0)
        aware = lp_max_throughput(ctx, *topo)
        assert aware < lp_max_throughput(ctx) - 1.0

    def test_scaled_plans_trunk_feasible_randomised(self):
        """The conservative workaround is always safe, whatever the
        bandwidths and rack shapes."""
        rng = np.random.default_rng(7)
        for _ in range(25):
            num_nodes = int(rng.integers(6, 13))
            per_rack = int(rng.integers(2, 5))
            topo = racks(
                num_nodes, per_rack,
                oversubscription=float(rng.uniform(1.0, 6.0)),
            )
            snap = BandwidthSnapshot(
                uplink=rng.uniform(50, 1000, num_nodes),
                downlink=rng.uniform(50, 1000, num_nodes),
            )
            ids = rng.permutation(num_nodes)
            k = int(rng.integers(2, min(num_nodes - 1, 6)))
            ctx = RepairContext(
                snapshot=snap,
                requester=int(ids[0]),
                helpers=tuple(int(x) for x in ids[1:]),
                k=k,
            )
            try:
                scaled = rack_scaled_context(ctx, *topo)
                plan = FullRepair().schedule(scaled)
            except ValueError:
                continue
            flows, rates = plan.flows()
            validate_rates_with_racks(snap, *topo, flows, rates)
