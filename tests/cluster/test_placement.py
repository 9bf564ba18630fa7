"""Stripe-placement policies."""

import numpy as np
import pytest

from repro.cluster.placement import (
    LoadBalancedPlacement,
    RandomSpreadPlacement,
    RoundRobinPlacement,
    make_policy,
)


class TestCommon:
    @pytest.mark.parametrize("name", ["round_robin", "random_spread", "load_balanced"])
    def test_distinct_nodes(self, name):
        policy = make_policy(name, num_nodes=12, n=9)
        for i in range(20):
            placement = policy.place(i, range(12))
            assert len(placement) == 9
            assert len(set(placement)) == 9
            assert all(0 <= node < 12 for node in placement)

    @pytest.mark.parametrize("name", ["round_robin", "random_spread", "load_balanced"])
    def test_exclusion_respected(self, name):
        policy = make_policy(name, num_nodes=12, n=9)
        eligible = [i for i in range(12) if i not in (3, 7)]
        for i in range(10):
            placement = policy.place(i, eligible)
            assert len(set(placement)) == 9 and set(placement) <= set(eligible)

    @pytest.mark.parametrize("name", ["round_robin", "random_spread", "load_balanced"])
    def test_too_few_eligible_nodes_refused(self, name):
        policy = make_policy(name, num_nodes=10, n=9)
        with pytest.raises(ValueError, match="eligible"):
            policy.place(0, range(2, 10))

    @pytest.mark.parametrize("name", ["round_robin", "random_spread", "load_balanced"])
    def test_place_many_stays_among_eligible(self, name):
        policy = make_policy(name, num_nodes=12, n=6)
        eligible = [0, 2, 3, 5, 8, 9, 11]
        placements = policy.place_many(15, eligible)
        assert len(placements) == 15
        for placement in placements:
            assert len(set(placement)) == 6 and set(placement) <= set(eligible)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            RoundRobinPlacement(num_nodes=8, n=9)
        policy = RoundRobinPlacement(num_nodes=10, n=9)
        with pytest.raises(ValueError):
            policy.place(0, range(2, 10))

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            make_policy("best_fit", 12, 9)

    def test_place_many(self):
        policy = make_policy("round_robin", 12, 9)
        assert policy.place_many(5, range(12)) == [
            policy.place(i, range(12)) for i in range(5)]


class TestRoundRobin:
    def test_rotation(self):
        policy = RoundRobinPlacement(num_nodes=6, n=3)
        assert policy.place(0, range(6)) == (0, 1, 2)
        assert policy.place(1, range(6)) == (3, 4, 5)
        assert policy.place(2, range(6)) == (0, 1, 2)

    def test_rotation_skips_an_ineligible_node(self):
        policy = RoundRobinPlacement(num_nodes=6, n=3)
        eligible = [0, 1, 2, 4, 5]
        assert policy.place(0, eligible) == (0, 1, 2)
        assert policy.place(1, eligible) == (4, 5, 0)
        assert policy.place(2, eligible) == (1, 2, 4)

    def test_even_long_run_distribution(self):
        policy = RoundRobinPlacement(num_nodes=10, n=5)
        counts = np.zeros(10, dtype=int)
        for i in range(100):
            for node in policy.place(i, range(10)):
                counts[node] += 1
        assert counts.max() - counts.min() <= 1


class TestRandomSpread:
    def test_seeded_determinism(self):
        a = RandomSpreadPlacement(12, 9, seed=5)
        b = RandomSpreadPlacement(12, 9, seed=5)
        assert a.place_many(10, range(12)) == b.place_many(10, range(12))

    def test_seeds_differ(self):
        a = RandomSpreadPlacement(12, 9, seed=5)
        b = RandomSpreadPlacement(12, 9, seed=6)
        assert a.place_many(10, range(12)) != b.place_many(10, range(12))

    def test_a_stripe_index_always_gets_the_same_nodes(self):
        policy = RandomSpreadPlacement(12, 9, seed=5)
        first = policy.place(7, range(12))
        policy.place_many(20, range(12))
        assert policy.place(7, range(12)) == first

    def test_roughly_uniform(self):
        policy = RandomSpreadPlacement(16, 8, seed=0)
        counts = np.zeros(16, dtype=int)
        for i in range(400):
            for node in policy.place(i, range(16)):
                counts[node] += 1
        # each node expects 200 chunks; allow generous sampling noise
        assert counts.min() > 150 and counts.max() < 250


class TestLoadBalanced:
    def test_minimises_spread(self):
        policy = LoadBalancedPlacement(num_nodes=11, n=4)
        for i in range(50):
            policy.place(i, range(11))
        counts = policy.chunk_counts()
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_counts_track_placements(self):
        policy = LoadBalancedPlacement(num_nodes=8, n=4)
        policy.place(0, range(8))
        assert sum(policy.chunk_counts().values()) == 4

    def test_a_refused_place_moves_no_count(self):
        policy = LoadBalancedPlacement(num_nodes=8, n=4)
        policy.place(0, range(8))
        before = policy.chunk_counts()
        with pytest.raises(ValueError):
            policy.place(1, [0, 1, 2])
        assert policy.chunk_counts() == before

    def test_an_ineligible_node_is_filled_first_once_back(self):
        policy = LoadBalancedPlacement(num_nodes=5, n=4)
        for i in range(3):
            assert 4 not in policy.place(i, range(4))
        counts = policy.chunk_counts()
        assert counts[4] == 0 and all(counts[node] == 3 for node in range(4))
        assert 4 in policy.place(3, range(5))

    def test_beats_random_on_spread(self):
        lb = LoadBalancedPlacement(16, 9)
        rnd = RandomSpreadPlacement(16, 9, seed=1)
        lb_counts = np.zeros(16, dtype=int)
        rnd_counts = np.zeros(16, dtype=int)
        for i in range(60):
            for node in lb.place(i, range(16)):
                lb_counts[node] += 1
            for node in rnd.place(i, range(16)):
                rnd_counts[node] += 1
        assert lb_counts.std() <= rnd_counts.std()
