"""Segments of a chunk for pipelined repair.

FullRepair gives each elementary pipeline one contiguous segment of the
lost chunk, sized by the pipeline's throughput (paper Table III).
:class:`Segment` is that half-open range, in normalised positions while
planning; :func:`partition` splits a range in proportion to weights.
How a segment is cut into slices on the wire belongs to the data node:
one balanced ``bounds`` table per task (:mod:`repro.cluster.datanode`).
"""

from __future__ import annotations

from collections import namedtuple


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
