"""``TDigest`` keeps its centroids bit for bit.

The merge loop holds the open centroid in locals instead of reading and
writing ``merged[-1]`` and ``self.*`` per point, points and centroids
are immutable ``(mean, weight)`` tuples instead of 2-lists, and ``add``
keeps ``min`` / ``max`` by comparison instead of calling ``min()`` /
``max()``; every arithmetic expression keeps its order.  The list-based
sketch as it stood before — ``add``, ``merge`` and the merge loop — is
frozen below as a ``TDigest`` subclass, and hypothesis programs of
weighted ``add``, ``merge`` and ``quantile`` calls must leave both
digests with the same centroid bits and answer every quantile with the
same float.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import TDigest


class ReferenceTDigest(TDigest):
    """The sketch with the list-based points, ``add``, ``merge`` and
    merge loop it had before (test-only)."""

    __slots__ = ()

    def add(self, value: float, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._buffer.append([float(value), float(weight)])
        self.count += weight
        self.sum += value * weight
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if len(self._buffer) >= self.delta:
            self._compress()

    def merge(self, other: "TDigest") -> None:
        if other.count == 0:
            return
        other._compress()
        self._buffer.extend([m, w] for m, w in other._centroids)
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._compress()

    def _compress(self) -> None:
        if not self._buffer and len(self._centroids) <= 2 * self.delta:
            return
        pts = sorted(self._centroids + self._buffer)
        self._buffer = []
        if not pts:
            return
        merged: list[list[float]] = []
        w_before = 0.0  # total weight of finalised centroids
        for mean, weight in pts:
            if merged:
                cand = merged[-1][1] + weight
                q = (w_before + cand / 2.0) / self.count
                bound = 4.0 * self.count * q * (1.0 - q) / self.delta
                if cand <= max(bound, 1.0):
                    merged[-1][0] = (
                        merged[-1][0] * merged[-1][1] + mean * weight
                    ) / cand
                    merged[-1][1] = cand
                    continue
                w_before += merged[-1][1]
            merged.append([mean, weight])
        self._centroids = merged


def bits(digest: TDigest) -> list[bytes]:
    """Every centroid and buffered point, then ``count`` / ``sum`` /
    ``min`` / ``max``, as IEEE bytes."""
    return (
        [struct.pack("<dd", m, w) for m, w in digest._centroids]
        + [struct.pack("<dd", m, w) for m, w in digest._buffer]
        + [struct.pack("<dddd", digest.count, digest.sum, digest.min, digest.max)]
    )


values = st.floats(-1e6, 1e6, allow_nan=False)
weights = st.one_of(st.just(1.0), st.floats(1e-3, 50.0))
quantiles = st.sampled_from([0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0])
step = st.one_of(
    st.tuples(st.just("add"), values, weights),
    st.tuples(st.just("add_many"), st.lists(values, min_size=1, max_size=80), weights),
    st.tuples(st.just("merge"), st.lists(values, max_size=120), weights),
    st.tuples(st.just("quantile"), quantiles, st.just(1.0)),
)


@settings(max_examples=150, deadline=None)
@given(delta=st.integers(8, 64), program=st.lists(step, max_size=40))
def test_compress_keeps_every_centroid_bit(delta, program):
    ours, ref = TDigest(delta), ReferenceTDigest(delta)
    for op, arg, weight in program:
        if op == "add":
            ours.add(arg, weight)
            ref.add(arg, weight)
        elif op == "add_many":
            for v in arg:
                ours.add(v, weight)
                ref.add(v, weight)
        elif op == "merge":
            other, other_ref = TDigest(delta), ReferenceTDigest(delta)
            for v in arg:
                other.add(v, weight)
                other_ref.add(v, weight)
            ours.merge(other)
            ref.merge(other_ref)
        else:
            assert struct.pack("<d", ours.quantile(arg)) == struct.pack(
                "<d", ref.quantile(arg)
            )
        assert bits(ours) == bits(ref)
    assert ours.num_centroids() == ref.num_centroids()
    assert bits(ours) == bits(ref)


def test_a_long_stream_keeps_every_centroid_bit():
    """A digest far past ``2 * delta`` points, as a fleet series is."""
    ours, ref = TDigest(64), ReferenceTDigest(64)
    for i in range(20_000):
        v = ((i * 7919) % 10_007) / 13.0
        w = 1.0 + (i % 5) * 0.25
        ours.add(v, w)
        ref.add(v, w)
    assert bits(ours) == bits(ref)
    for q in (0.001, 0.5, 0.999):
        assert ours.quantile(q) == ref.quantile(q)


def test_the_campaign_exposure_stream_keeps_every_centroid_bit():
    """Shaped like a lifetime campaign's exposure digest: ~32k degraded
    windows, heavy-tailed spans in seconds, each weighted by its group's
    size (200k stripes over 128 groups: 1,563 or 1,562)."""
    rng = np.random.default_rng(2023)
    spans = rng.exponential(4_000.0, 32_000) * rng.choice([1.0, 1.0, 1.0, 8.0], 32_000)
    sizes = np.where(rng.integers(128, size=32_000) < 64, 1_563, 1_562)
    ours, ref = TDigest(64), ReferenceTDigest(64)
    for span, size in zip(spans.tolist(), sizes.tolist()):
        ours.add(span, size)
        ref.add(span, size)
    assert bits(ours) == bits(ref)
    for q in (0.0, 0.5, 0.99, 1.0):
        assert struct.pack("<d", ours.quantile(q)) == struct.pack(
            "<d", ref.quantile(q)
        )
    assert bits(ours) == bits(ref)


@pytest.mark.parametrize(
    "stream",
    [
        [0.0, -0.0, 0.0],
        [-0.0, 0.0, -0.0],
        [math.nan, 1.0, -1.0],
        [1.0, math.nan, 2.0, -3.0],
        [-math.inf, math.inf, math.nan],
        [5, 5.0, 2, 2.0],
    ],
)
def test_min_and_max_keep_the_builtins_rules(stream):
    """``add``'s comparisons pick what ``min()`` / ``max()`` picked, sign
    of zero, NaN (never taken) and int-vs-float included."""
    ours, ref = TDigest(8), ReferenceTDigest(8)
    for value in stream:
        ours.add(value)
        ref.add(value)
        for attr in ("min", "max"):
            a, b = getattr(ours, attr), getattr(ref, attr)
            assert type(a) is type(b)
            assert struct.pack("<d", a) == struct.pack("<d", b)
