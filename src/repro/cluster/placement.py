"""Stripe-placement policies.

Where a stripe's n chunks land determines which nodes can help each
repair, so placement shapes repair performance long before a scheduler
runs.  Three classic policies are provided:

``round_robin``
    Stripe ``i`` starts at node ``(i * n) % N`` — deterministic, evenly
    rotated (HDFS-block style).
``random_spread``
    A seeded random n-subset per stripe — the uniform baseline most
    analyses assume.
``load_balanced``
    Greedy: always place on the n nodes currently holding the fewest
    chunks — minimises the per-node chunk count spread, which bounds the
    repair work any single failure can create.

All policies return placements of n *distinct* node ids drawn from the
``eligible`` nodes the caller hands :meth:`PlacementPolicy.place` (the
file layer hands the cluster's live nodes).  With every node eligible,
stripe ``i`` lands where the policy alone puts it.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np


class PlacementPolicy(abc.ABC):
    """Chooses the nodes that store each new stripe."""

    def __init__(self, num_nodes: int, n: int) -> None:
        if n > num_nodes:
            raise ValueError(f"cannot place {n} chunks on {num_nodes} nodes")
        self.num_nodes = num_nodes
        self.n = n

    def place(self, stripe_index: int, eligible: Sequence[int]) -> tuple[int, ...]:
        """Placement for the ``stripe_index``-th stripe among ``eligible``
        (ascending node ids)."""
        if self.n > len(eligible):
            raise ValueError(
                f"cannot place {self.n} chunks on {len(eligible)} eligible nodes"
            )
        return self._choose(stripe_index, eligible)

    @abc.abstractmethod
    def _choose(self, stripe_index: int, eligible: Sequence[int]) -> tuple[int, ...]:
        """:meth:`place` once ``eligible`` is known to hold n nodes."""

    def place_many(self, count: int, eligible: Sequence[int]) -> list[tuple[int, ...]]:
        """Placements for ``count`` consecutive stripes."""
        return [self.place(i, eligible) for i in range(count)]


class RoundRobinPlacement(PlacementPolicy):
    """Rotate stripes around the eligible nodes."""

    def _choose(self, stripe_index: int, eligible: Sequence[int]) -> tuple[int, ...]:
        m = len(eligible)
        start = (stripe_index * self.n) % m
        return tuple(eligible[(start + j) % m] for j in range(self.n))


class RandomSpreadPlacement(PlacementPolicy):
    """Seeded uniform random n-subsets."""

    def __init__(self, num_nodes: int, n: int, *, seed: int = 0) -> None:
        super().__init__(num_nodes, n)
        self.seed = seed

    def _choose(self, stripe_index: int, eligible: Sequence[int]) -> tuple[int, ...]:
        rng = np.random.default_rng((self.seed, stripe_index))
        picks = rng.choice(len(eligible), size=self.n, replace=False)
        return tuple(eligible[int(i)] for i in picks)


class LoadBalancedPlacement(PlacementPolicy):
    """Greedy fewest-chunks-first placement (stateful)."""

    def __init__(self, num_nodes: int, n: int) -> None:
        super().__init__(num_nodes, n)
        self._load = {node: 0 for node in range(num_nodes)}

    def _choose(self, stripe_index: int, eligible: Sequence[int]) -> tuple[int, ...]:
        chosen = sorted(eligible, key=lambda node: (self._load[node], node))[: self.n]
        for node in chosen:
            self._load[node] += 1
        return tuple(chosen)

    def chunk_counts(self) -> dict[int, int]:
        """Current per-node chunk counts (diagnostic)."""
        return dict(self._load)


POLICIES: dict[str, type[PlacementPolicy]] = {
    "round_robin": RoundRobinPlacement,
    "random_spread": RandomSpreadPlacement,
    "load_balanced": LoadBalancedPlacement,
}


def make_policy(name: str, num_nodes: int, n: int, **kwargs) -> PlacementPolicy:
    """Instantiate a policy by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise KeyError(f"unknown placement policy {name!r}; known: {sorted(POLICIES)}") from None
    return cls(num_nodes, n, **kwargs)
