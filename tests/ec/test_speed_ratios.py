"""In-run speed ratios of the data plane: both sides are timed here.

Each gate times its two sides in alternating paired rounds inside the
test — a warm-up call each, then one call of each side per round with
the order flipped every round — and judges the median of the per-round
ratios.  Nothing is compared with a number recorded in another process
or on another machine, so host speed cancels in the ratio, and a burst
from a neighbour lands on both sides of the round it hits.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import pytest

from repro.ec import RSCode, kernels, use_backend
from repro.ec.backend import resolve
from repro.integrity import DIGEST_BLOCK_BYTES, chunk_digest

pytestmark = pytest.mark.ec

ROUNDS = 7


def _median_ratio(numerator, denominator, rounds: int = ROUNDS) -> float:
    """Median over paired rounds of ``numerator``'s wall time over
    ``denominator``'s."""
    sides = (numerator, denominator)
    for fn in sides:
        fn()  # table builds and first-touch page faults land here
    times: dict = {fn: [] for fn in sides}
    for i in range(rounds):
        for fn in sides if i % 2 == 0 else sides[::-1]:
            start = perf_counter()
            fn()
            times[fn].append(perf_counter() - start)
    return statistics.median(n / d for n, d in zip(times[numerator], times[denominator]))


def test_rounds_alternate_which_side_runs_first():
    """One side's calls never run as a block after the other's."""
    order = []
    _median_ratio(lambda: order.append("a"), lambda: order.append("b"), rounds=4)
    assert order == ["a", "b"] + ["a", "b", "b", "a"] * 2


def test_ratio_is_the_median_of_the_paired_rounds(monkeypatch):
    """Per-round ratios 2, 3, 8, 0.5, 5: the median, not the mean (3.7) or
    the ratio of the sums (19 / 6), and the slow warm-ups count for nothing."""
    now = [0.0]
    durations = {"n": iter([100, 2, 3, 8, 1, 5]), "d": iter([100, 1, 1, 1, 2, 1])}

    def side(name):
        def call():
            now[0] += next(durations[name])
        return call

    monkeypatch.setattr(f"{__name__}.perf_counter", lambda: now[0])
    assert _median_ratio(side("n"), side("d"), rounds=5) == 3.0


def test_fused_matmul_beats_naive():
    """The 4 x 10 matrix times 1 MiB chunks (RS(14, 10)'s parity rows):
    the fused kernel is the one that runs, so it must win its own cell."""
    rng = np.random.default_rng(2023)
    chunks = rng.integers(0, 256, size=(10, 1 << 20), dtype=np.uint8)
    mat = rng.integers(0, 256, size=(4, 10), dtype=np.uint8)
    out = np.empty((4, 1 << 20), dtype=np.uint8)
    naive, fused = resolve("naive"), resolve("fused")
    ratio = _median_ratio(
        lambda: naive.matmul_chunks(mat, chunks, out=out),
        lambda: fused.matmul_chunks(mat, chunks, out=out),
    )
    assert ratio > 1.0, f"fused matmul_chunks is {ratio:.2f}x naive"


def test_digest_costs_at_most_a_tenth_of_a_fused_decode(monkeypatch):
    """Verifying one rebuilt chunk (one 2 MiB digest block) stays a
    rounding error next to the fused (9, 6) decode that produced it.

    The decode loses data chunk 2 and the XOR parity P0 (index 6), so
    chunk 2 comes out of a gathered row.  With P0 alive it would be P0
    XOR the other data chunks: no table at all, checked by count."""
    code = RSCode(9, 6)
    rng = np.random.default_rng(2025)
    data = rng.integers(0, 256, size=(code.k, DIGEST_BLOCK_BYTES), dtype=np.uint8)
    stripe = code.encode(data)
    available = {i: stripe[i] for i in range(code.n) if i not in (2, code.k)}
    out = np.empty_like(data)
    with use_backend("fused"):
        cost = _median_ratio(
            lambda: chunk_digest(stripe[2]),
            lambda: code.decode(available, out=out),
        )
    assert 0 < cost <= 0.10, f"one digest costs {cost:.1%} of a fused decode"

    tables = []
    for name in ("fused_tables", "pair_table"):
        real = getattr(kernels, name)
        monkeypatch.setattr(
            kernels, name, lambda *a, real=real: (tables.append(a), real(*a))[1]
        )
    with use_backend("fused"):
        code.decode({**available, code.k: stripe[code.k]}, out=out)
        assert tables == []  # chunk 2 is P0 XOR the other data chunks
        code.decode(available, out=out)
        assert tables  # ... and the gate's decode gathers
    assert np.array_equal(out, data)
