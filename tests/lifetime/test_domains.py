"""Hierarchical failure domains: shape, fan-out, placement spread."""

import numpy as np
import pytest

from repro.lifetime import LEVELS, DomainTree

pytestmark = pytest.mark.lifetime


@pytest.fixture
def tree():
    """2 DCs x 3 racks x 2 machines x 2 disks = 24 disks."""
    return DomainTree.uniform(
        dcs=2, racks_per_dc=3, machines_per_rack=2, disks_per_machine=2
    )


class TestShape:
    def test_uniform_counts(self, tree):
        assert tree.num_dcs == 2
        assert tree.num_racks == 6
        assert tree.num_machines == 12
        assert tree.num_disks == 24
        assert [tree.num_domains(level) for level in LEVELS] == [2, 6, 12, 24]

    def test_ancestry_is_consistent(self, tree):
        for disk in range(tree.num_disks):
            machine = tree.domain_of("machine", disk)
            rack = tree.domain_of("rack", disk)
            dc = tree.domain_of("dc", disk)
            assert tree.rack_of[machine] == rack
            assert tree.dc_of[rack] == dc

    def test_invalid_level_rejected(self, tree):
        with pytest.raises(ValueError, match="unknown level"):
            tree.domain_of("pod", 0)

    def test_dangling_references_rejected(self):
        with pytest.raises(ValueError, match="undefined machine"):
            DomainTree(machine_of=(0, 5), rack_of=(0,), dc_of=(0,))


class TestFanOut:
    def test_rack_event_covers_every_member_disk(self, tree):
        """The correlated-failure primitive: one rack -> all its disks."""
        disks = tree.disks_under("rack", 0)
        assert disks.tolist() == [0, 1, 2, 3]
        assert all(tree.domain_of("rack", int(d)) == 0 for d in disks)

    def test_fan_out_partitions_the_fleet(self, tree):
        for level in LEVELS:
            union = sorted(
                int(d)
                for dom in range(tree.num_domains(level))
                for d in tree.disks_under(level, dom)
            )
            assert union == list(range(tree.num_disks))

    def test_unknown_domain_rejected(self, tree):
        with pytest.raises(ValueError, match="no rack domain"):
            tree.disks_under("rack", 99)


class TestSpread:
    def test_max_colocated_counts_worst_domain(self, tree):
        # disks 0 and 1 share a machine; 4 is in the next rack
        assert tree.max_colocated((0, 1, 4), "machine") == 2
        assert tree.max_colocated((0, 1, 4), "rack") == 2
        assert tree.max_colocated((0, 1, 4), "dc") == 3

    def test_check_spread_raises_on_violation(self, tree):
        tree.check_spread((0, 2, 4), "machine", max_per_domain=1)
        with pytest.raises(ValueError, match="machine 0 holds 2"):
            tree.check_spread((0, 1, 4), "machine", max_per_domain=1)

    def test_spread_placements_respect_cap(self, tree):
        patterns = tree.spread_placements(
            16, 6, level="machine", max_per_domain=1, seed=3
        )
        assert patterns.shape == (16, 6)
        for row in patterns:
            assert len(set(row.tolist())) == 6
            tree.check_spread(row, "machine", max_per_domain=1)

    def test_spread_placements_wrap_up_to_cap(self, tree):
        # 8 chunks over 6 racks needs a second sweep at cap 2.
        patterns = tree.spread_placements(
            4, 8, level="rack", max_per_domain=2, seed=0
        )
        for row in patterns:
            assert tree.max_colocated(row, "rack") <= 2

    def test_spread_placements_deterministic(self, tree):
        a = tree.spread_placements(8, 6, seed=7)
        b = tree.spread_placements(8, 6, seed=7)
        assert np.array_equal(a, b)

    def test_impossible_spread_rejected(self, tree):
        with pytest.raises(ValueError, match="cannot place"):
            tree.spread_placements(1, 13, level="machine", max_per_domain=1)
