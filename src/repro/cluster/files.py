"""Striped-file layer: files spanning many stripes on a ClusterSystem.

Storage clients deal in files, not stripes: a file is chunked into
fixed-size pieces, every k consecutive pieces become one RS stripe (the
last group zero-padded), and stripes are placed by a pluggable
:mod:`~repro.cluster.placement` policy.  Reads reassemble the original
bytes, transparently taking the degraded-read path for chunks whose
nodes have failed — which is how end users actually experience repair
performance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..net import units
from .placement import PlacementPolicy, RoundRobinPlacement
from .system import ClusterSystem


@dataclass(frozen=True)
class FileEntry:
    """Catalog record of a stored file."""

    name: str
    size_bytes: int
    chunk_bytes: int
    stripe_ids: tuple[str, ...]

    @property
    def num_stripes(self) -> int:
        return len(self.stripe_ids)


class FileStore:
    """File namespace over an erasure-coded cluster.

    Parameters
    ----------
    system:
        The cluster to store into.
    chunk_bytes:
        Stripe chunk size (every file chunk is this long; GFS-style).
    placement:
        Stripe placement policy; defaults to round-robin.  Each write
        places its stripes among the nodes live at the time.
    """

    def __init__(
        self,
        system: ClusterSystem,
        *,
        chunk_bytes: int = 64 * units.KIB,
        placement: PlacementPolicy | None = None,
    ) -> None:
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        self.system = system
        self.chunk_bytes = chunk_bytes
        self.placement = placement or RoundRobinPlacement(
            system.num_nodes, system.code.n
        )
        self._catalog: dict[str, FileEntry] = {}
        #: stripe id -> owning file, so failure handling maps a node's
        #: stripes to files without scanning the whole catalog
        self._stripe_file: dict[str, str] = {}
        self._stripe_counter = 0

    # ------------------------------------------------------------------ #

    def write(self, name: str, payload: bytes | np.ndarray) -> FileEntry:
        """Store a file; returns its catalog entry.

        Every stripe is placed among the cluster's live nodes before the
        first one is written, so a refused placement stores nothing.
        Raises ``FileExistsError`` for duplicate names and ``ValueError``
        for empty payloads or too few live nodes.
        """
        if name in self._catalog:
            raise FileExistsError(f"file {name!r} already stored")
        data = np.frombuffer(bytes(payload), dtype=np.uint8).copy()
        if data.size == 0:
            raise ValueError("cannot store an empty file")
        k = self.system.code.k
        stripe_bytes = k * self.chunk_bytes
        num_stripes = -(-data.size // stripe_bytes)
        padded = np.zeros(num_stripes * stripe_bytes, dtype=np.uint8)
        padded[: data.size] = data
        live = self.system.live
        placements = [
            self.placement.place(self._stripe_counter + s, live)
            for s in range(num_stripes)
        ]
        stripe_ids = []
        for s, placement in enumerate(placements):
            sid = f"{name}#{s}"
            group = padded[s * stripe_bytes : (s + 1) * stripe_bytes]
            chunks = group.reshape(k, self.chunk_bytes)
            self.system.write_stripe(sid, chunks, placement=placement)
            stripe_ids.append(sid)
        self._stripe_counter += num_stripes
        entry = FileEntry(
            name=name,
            size_bytes=int(data.size),
            chunk_bytes=self.chunk_bytes,
            stripe_ids=tuple(stripe_ids),
        )
        self._catalog[name] = entry
        for sid in stripe_ids:
            self._stripe_file[sid] = name
        return entry

    def read(self, name: str, *, reader: int | None = None) -> tuple[bytes, float]:
        """Read a file back; returns ``(payload, simulated seconds)``.

        Healthy chunks stream directly; chunks on failed nodes take the
        degraded-read path (rebuilt at the reader on the fly).  The time
        is the sum of per-chunk times — a sequential reader.
        """
        entry = self.entry(name)
        k = self.system.code.k
        # views of the file's bytes, joined once (padding is read, not kept)
        pieces: list[np.ndarray] = []
        left = entry.size_bytes
        total_seconds = 0.0
        for sid in entry.stripe_ids:
            stripe_reader = self._reader_for(sid, preferred=reader)
            for chunk_index in range(k):
                payload, secs = self.system.degraded_read(
                    sid, chunk_index, reader=stripe_reader
                )
                total_seconds += secs
                if left > 0:
                    pieces.append(payload[:left])
                    left -= len(payload)
        return b"".join(pieces), total_seconds

    def entry(self, name: str) -> FileEntry:
        try:
            return self._catalog[name]
        except KeyError:
            raise FileNotFoundError(f"no such file: {name!r}") from None

    def files(self) -> list[str]:
        return sorted(self._catalog)

    def stripes_of(self, name: str) -> tuple[str, ...]:
        return self.entry(name).stripe_ids

    def affected_files(self, node: int) -> list[str]:
        """Files with at least one chunk on the given node.

        Both hops are index lookups — the master's node->stripes index
        and this store's stripe->file map — so the cost scales with the
        node's chunk count, not the namespace size (the recovery
        orchestrator asks on every failure event).
        """
        return sorted(
            {
                self._stripe_file[sid]
                for sid in self.system.stripes_on(node)
                if sid in self._stripe_file
            }
        )

    # ------------------------------------------------------------------ #

    def _reader_for(self, stripe_id: str, preferred: int | None) -> int:
        """A live node outside the stripe's placement to read through.

        Degraded reads rebuild lost chunks *at the reader*, which must
        therefore not already hold a chunk of the stripe; a preferred
        reader satisfying that is honoured, otherwise the lowest-id
        eligible node stands in.
        """
        eligible = self.system.spares(stripe_id)
        if preferred in eligible:
            return preferred
        if eligible:
            return eligible[0]
        raise RuntimeError(
            f"no live node outside the placement of {stripe_id!r} to read from"
        )
