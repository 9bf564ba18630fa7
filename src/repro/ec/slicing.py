"""Chunk <-> slice bookkeeping for pipelined repair.

Repair pipelining works on fixed-size *slices* of a chunk (paper §II-B):
each pipeline stage forwards per-slice partial sums, so the slice size sets
the pipelining granularity.  This module provides the pure bookkeeping —
splitting payloads, padding, and the segment arithmetic that maps a
pipeline's assigned byte range onto slice indices.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np


def split_chunk(chunk: np.ndarray, slice_size: int) -> list[np.ndarray]:
    """Split a chunk into ``ceil(len/slice_size)`` slices (views, not copies).

    The final slice may be shorter than ``slice_size``; callers that need
    uniform slices should pad first with :func:`pad_chunk`.
    """
    if slice_size <= 0:
        raise ValueError("slice_size must be positive")
    chunk = np.asarray(chunk, dtype=np.uint8)
    return [chunk[i : i + slice_size] for i in range(0, len(chunk), slice_size)]


def join_slices(slices: list[np.ndarray]) -> np.ndarray:
    """Inverse of :func:`split_chunk`."""
    if not slices:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate([np.asarray(s, dtype=np.uint8) for s in slices])


def pad_chunk(chunk: np.ndarray, slice_size: int) -> np.ndarray:
    """Zero-pad a chunk to a multiple of ``slice_size`` (copy)."""
    if slice_size <= 0:
        raise ValueError("slice_size must be positive")
    chunk = np.asarray(chunk, dtype=np.uint8)
    rem = len(chunk) % slice_size
    if rem == 0:
        return chunk.copy()
    return np.concatenate([chunk, np.zeros(slice_size - rem, dtype=np.uint8)])


def slice_count(chunk_size: int, slice_size: int) -> int:
    """Number of slices a chunk of ``chunk_size`` bytes splits into."""
    if slice_size <= 0 or chunk_size < 0:
        raise ValueError("slice_size must be positive and chunk_size non-negative")
    return math.ceil(chunk_size / slice_size) if chunk_size else 0


class Segment(namedtuple("Segment", "start stop")):
    """A half-open byte range ``[start, stop)`` of a chunk.

    FullRepair partitions the failed chunk into one segment per pipeline
    (paper Table III); segments are expressed in *throughput units* during
    scheduling and scaled to bytes at execution time.

    An immutable tuple-backed record (no per-instance ``__dict__``: the
    layout emits one per pipeline).
    """

    __slots__ = ()

    def __new__(cls, start: float, stop: float) -> "Segment":
        if stop < start:
            raise ValueError(f"segment stop {stop} < start {start}")
        return tuple.__new__(cls, (start, stop))

    @property
    def length(self) -> float:
        return self.stop - self.start

    def overlaps(self, other: "Segment") -> bool:
        """True if the two half-open ranges share any positive-length span."""
        return self.start < other.stop and other.start < self.stop

    def intersection(self, other: "Segment") -> "Segment | None":
        lo, hi = max(self.start, other.start), min(self.stop, other.stop)
        return Segment(lo, hi) if lo < hi else None

    def scaled(self, factor: float) -> "Segment":
        """Scale both endpoints, e.g. throughput units -> bytes."""
        return Segment(self.start * factor, self.stop * factor)

    def slice_span(self, slice_size: int) -> tuple[int, int]:
        """Half-open slice-index range covering this byte segment."""
        if slice_size <= 0:
            raise ValueError("slice_size must be positive")
        first = math.floor(self.start / slice_size)
        last = math.ceil(self.stop / slice_size)
        return first, last


def partition(total: float, weights: list[float]) -> list[Segment]:
    """Split ``[0, total)`` into contiguous segments proportional to weights.

    Zero-weight entries yield empty segments at their running position.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    wsum = sum(weights)
    segments: list[Segment] = []
    pos = 0.0
    for i, w in enumerate(weights):
        if wsum == 0:
            segments.append(Segment(pos, pos))
            continue
        if i == len(weights) - 1:
            nxt = total  # absorb rounding in the last segment
        else:
            nxt = pos + total * (w / wsum)
        segments.append(Segment(pos, nxt))
        pos = nxt
    return segments
