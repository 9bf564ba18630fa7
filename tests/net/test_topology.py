"""Rack tier over the failure-domain tree: trunk constraints, scaling."""

import pytest

from repro.core import FullRepair
from repro.core.optimality import lp_max_throughput
from repro.net import BandwidthSnapshot, DomainTree, Flow, RepairContext
from repro.net.topology import (
    rack_loads,
    rack_scaled_context,
    validate_rates_with_racks,
)


def racks(num_nodes, per_rack, oversubscription=2.0, nic_mbps=1000.0):
    """Racks of ``per_rack`` one-disk machines (the last rack ragged when
    ``per_rack`` does not divide ``num_nodes``) and their trunk vector,
    ``per_rack * nic_mbps / oversubscription`` Mbps per rack."""
    num_racks = -(-num_nodes // per_rack)
    tree = DomainTree(
        machine_of=tuple(range(num_nodes)),
        rack_of=tuple(i // per_rack for i in range(num_nodes)),
        dc_of=(0,) * num_racks,
    )
    return tree, (per_rack * nic_mbps / oversubscription,) * num_racks


@pytest.fixture
def topo():
    # 8 nodes in 2 racks of 4, 1 Gbps NICs, 2:1 oversubscription
    return racks(8, 4, oversubscription=2.0)


class TestConstruction:
    def test_rack_membership(self, topo):
        tree, trunks = topo
        assert tree == DomainTree.uniform(
            racks_per_dc=2, machines_per_rack=4, disks_per_machine=1
        )
        assert tree.num_disks == 8
        assert tree.num_racks == 2
        assert tree.disks_under("rack", 0).tolist() == [0, 1, 2, 3]
        assert trunks == (2000.0, 2000.0)
        rack_of = tree.disk_domains("rack")
        assert rack_of[0] == rack_of[3]
        assert rack_of[0] != rack_of[4]

    def test_ragged_last_rack(self):
        tree, _ = racks(10, 4)
        assert tree.num_racks == 3
        assert tree.disks_under("rack", 2).tolist() == [8, 9]

    def test_validation(self):
        with pytest.raises(ValueError):
            DomainTree(machine_of=(0, 1), rack_of=(0, 5), dc_of=(0,))


class TestRackLoads:
    def test_intra_rack_exempt(self, topo):
        flows = [Flow(0, 1), Flow(2, 3)]
        egress, ingress = rack_loads(topo[0], flows, [500.0, 500.0])
        assert not egress.any() and not ingress.any()

    def test_cross_rack_counted_both_sides(self, topo):
        flows = [Flow(0, 4)]
        egress, ingress = rack_loads(topo[0], flows, [300.0])
        assert egress[0] == 300.0 and ingress[1] == 300.0
        assert egress[1] == 0.0 and ingress[0] == 0.0


class TestValidation:
    def test_accepts_trunk_feasible(self, topo):
        snap = BandwidthSnapshot.uniform(8, 1000.0)
        flows = [Flow(0, 4), Flow(1, 5)]
        validate_rates_with_racks(snap, *topo, flows, [900.0, 900.0])

    def test_rejects_trunk_violation(self, topo):
        snap = BandwidthSnapshot.uniform(8, 1000.0)
        flows = [Flow(i, 4 + i) for i in range(4)]
        with pytest.raises(ValueError, match="trunk"):
            validate_rates_with_racks(snap, *topo, flows, [700.0] * 4)

    def test_node_check_still_applies(self, topo):
        snap = BandwidthSnapshot.uniform(8, 100.0)
        with pytest.raises(ValueError, match="uplink"):
            validate_rates_with_racks(snap, *topo, [Flow(0, 4)], [200.0])

    def test_size_mismatch(self, topo):
        snap = BandwidthSnapshot.uniform(5, 100.0)
        with pytest.raises(ValueError, match="mismatch"):
            validate_rates_with_racks(snap, *topo, [], [])


ENTRY_POINTS = {
    "validate_rates_with_racks": lambda ctx, tree, trunks: (
        validate_rates_with_racks(ctx.snapshot, tree, trunks, [], [])
    ),
    "rack_scaled_context": rack_scaled_context,
    "lp_max_throughput": lp_max_throughput,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "trunks",
    [(2000.0,), (2000.0,) * 3, (2000.0, 0.0), (-1.0, 2000.0)],
    ids=["too-few", "too-many", "zero", "negative"],
)
def test_bad_trunk_vector_refused(entry, trunks):
    """Every rack entry point wants one positive capacity per rack."""
    tree, _ = racks(8, 4)
    ctx = RepairContext(
        snapshot=BandwidthSnapshot.uniform(8, 1000.0),
        requester=0, helpers=tuple(range(1, 8)), k=4,
    )
    with pytest.raises(ValueError, match="trunk"):
        ENTRY_POINTS[entry](ctx, tree, trunks)


class TestRackScaledContext:
    def test_scaled_plans_are_trunk_feasible(self, topo):
        """The conservative workaround: plans computed on the scaled
        context always pass the full two-tier validation."""
        snap = BandwidthSnapshot.uniform(8, 1000.0)
        ctx = RepairContext(
            snapshot=snap, requester=0, helpers=tuple(range(1, 8)), k=4
        )
        scaled = rack_scaled_context(ctx, *topo)
        plan = FullRepair().schedule(scaled)
        flows, rates = plan.flows()
        validate_rates_with_racks(snap, *topo, flows, rates)

    def test_oblivious_plans_can_violate_trunks(self):
        """Without scaling, a rack-oblivious FullRepair plan can exceed a
        heavily oversubscribed trunk — the gap the workaround closes."""
        topo = racks(8, 4, oversubscription=8.0)  # 500 Mbps trunk
        snap = BandwidthSnapshot.uniform(8, 1000.0)
        ctx = RepairContext(
            snapshot=snap, requester=0, helpers=tuple(range(1, 8)), k=4
        )
        plan = FullRepair().schedule(ctx)
        flows, rates = plan.flows()
        with pytest.raises(ValueError, match="trunk"):
            validate_rates_with_racks(snap, *topo, flows, rates)

    def test_scaling_preserves_roles(self, topo):
        snap = BandwidthSnapshot.uniform(8, 1000.0)
        ctx = RepairContext(
            snapshot=snap, requester=2, helpers=(0, 1, 3, 4, 5), k=3,
            chunk_index={0: 1, 1: 2, 3: 3, 4: 4, 5: 5},
        )
        scaled = rack_scaled_context(ctx, *topo)
        assert scaled.requester == 2
        assert scaled.helpers == ctx.helpers
        assert scaled.chunk_index == ctx.chunk_index

    def test_scaled_bandwidth_is_fair_share(self, topo):
        snap = BandwidthSnapshot.uniform(8, 1000.0)
        ctx = RepairContext(
            snapshot=snap, requester=0, helpers=tuple(range(1, 8)), k=4
        )
        scaled = rack_scaled_context(ctx, *topo)
        # trunk 2000 over 4 members = 500 each
        assert (scaled.snapshot.uplink == 500.0).all()

    def test_mismatch_rejected(self, topo):
        snap = BandwidthSnapshot.uniform(5, 100.0)
        ctx = RepairContext(snapshot=snap, requester=0, helpers=(1, 2, 3), k=2)
        with pytest.raises(ValueError):
            rack_scaled_context(ctx, *topo)
