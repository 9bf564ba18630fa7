"""Control-plane message types for the master/data-node protocol.

The prototype mirrors the paper's implementation (§V-A): a master that
"controls the task flow, knows the bandwidth information in the entire
cluster network, and calculates and allocates tasks to each data node",
and data nodes that store chunks and execute the pipelined transfer tasks
assigned to them.  Messages are plain immutable records delivered through the
deterministic event queue with a configurable control-plane latency.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass


@dataclass(frozen=True)
class BandwidthReport:
    """Data node -> master: current available uplink/downlink (Mbps)."""

    node: int
    uplink_mbps: float
    downlink_mbps: float


@dataclass(frozen=True)
class TransferTask:
    """Master -> data node: one hop of one elementary pipeline.

    The node must send ``coeff * own_chunk[start:stop]`` (or, for hub
    nodes, the combined partial it assembles) for pipeline ``pipeline_id``
    to ``destination`` at ``rate_mbps``.
    """

    stripe_id: str
    pipeline_id: int
    chunk_index: int
    coeff: int
    start: int
    stop: int
    destination: int
    rate_mbps: float
    #: identifies the repair session (wire epoch) this task belongs to;
    #: distinct repairs of the same stripe (multi-failure) must not collide
    repair_id: str
    #: number of pipelining windows the segment is divided into; every
    #: task of a repair shares this count so slices line up across nodes
    num_slices: int
    #: nodes whose partials must arrive before this hub forwards
    wait_for: tuple[int, ...] = ()


class SliceData(
    namedtuple(
        "SliceData",
        "stripe_id pipeline_id source start stop payload repair_id checksum",
    )
):
    """Data node -> data node/requester: a partial-combination payload.

    ``source`` sent bytes ``[start, stop)`` of pipeline ``pipeline_id``
    as ``payload`` (a ``uint8`` array) for the repair epoch
    ``repair_id``.  ``checksum`` is the payload's CRC as the sender
    computed it; the receiving hop re-checksums and requests a
    retransmit on mismatch instead of folding a poisoned slice.

    An immutable tuple-backed record: one is built per slice hop, so an
    instance is one allocation with no per-field ``__setattr__``.  The
    repr leaves the payload out.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self)
            if name != "payload"
        )
        return f"SliceData({shown})"
