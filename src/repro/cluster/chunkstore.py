"""Per-node chunk storage.

Each data node owns a :class:`ChunkStore` mapping ``(stripe_id,
chunk_index)`` to the chunk payload.  The store is the node's "disk",
and nothing outside the node may write through an alias of it: ``put``
stores a copy of its payload, and a read hands out either a copy
(:meth:`ChunkStore.get`, :meth:`ChunkStore.get_range`, for a caller
that must own a buffer) or a read-only :meth:`ChunkStore.view` without
one.  No stored array is ever written after it is stored: ``put``
stores a new array and ``corrupt`` is copy-on-write, so a view keeps
the bytes of the generation it was taken at for as long as its holder
keeps it, and writing to it raises.  Every chunk read of the cluster
is a view: a leaf sender takes one at assign and scales its slices
from it window by window, a hub scales its remainder from one, and a
direct or healthy degraded read returns one.

Every ``put`` also records a CRC digest of the *intended* payload
(:func:`repro.integrity.digest.chunk_digest`), so at-rest corruption —
bit rot flipped under the digest, or a torn write that garbled the tail
during the store — is detectable by :meth:`ChunkStore.verify` long
after the writer is gone; an intact ``put`` records that verdict too.
The corruption itself enters through the
fault hooks :meth:`corrupt` and :meth:`arm_torn_write`, driven by the
:class:`~repro.faults.injector.FaultInjector`.
"""

from __future__ import annotations

import numpy as np

from ..integrity.digest import chunk_digest


class ChunkStore:
    """In-memory chunk storage for one data node."""

    def __init__(self) -> None:
        self._chunks: dict[tuple[str, int], np.ndarray] = {}
        #: recorded CRC of each chunk as the writer intended it
        self._digests: dict[tuple[str, int], int] = {}
        #: armed torn write: (tail_fraction, rng) applied to the next put
        self._torn: tuple[float, np.random.Generator] | None = None
        #: store-wide mutation count, and its value at each chunk's last
        #: mutation: a chunk's stored bytes and recorded digest are
        #: unchanged for as long as its generation is
        self._mutations = 0
        self._generations: dict[tuple[str, int], int] = {}
        #: verify() verdicts, valid until the chunk's next mutation
        self._verdicts: dict[tuple[str, int], bool] = {}

    def put(self, stripe_id: str, chunk_index: int, payload: np.ndarray) -> bool:
        """Store a chunk (copies the payload), record its digest, and
        return whether the stored copy is intact.

        The digest always covers the payload the caller handed in; an
        armed torn write (:meth:`arm_torn_write`) garbles the stored
        tail *after* the digest is taken — exactly the failure a torn
        write is: the metadata says one thing, the disk another — and
        the put returns ``False``.  An intact put records the verdict
        ``True``: its digest covers exactly the bytes it stored.
        """
        arr = np.array(payload, dtype=np.uint8, copy=True)
        if arr.ndim != 1:
            raise ValueError("chunk payload must be a 1-D byte array")
        key = (stripe_id, chunk_index)
        digest = chunk_digest(arr)
        intact = self._torn is None or not len(arr)
        if not intact:
            tail_fraction, rng = self._torn
            self._torn = None  # a torn write is a one-shot event
            tail = max(1, int(len(arr) * tail_fraction))
            garble = rng.integers(1, 256, size=tail, dtype=np.uint8)
            np.bitwise_xor(arr[-tail:], garble, out=arr[-tail:])
        self._chunks[key] = arr
        self._digests[key] = digest
        self._mutated(key)
        if intact:
            self._verdicts[key] = True
        return intact

    def get(self, stripe_id: str, chunk_index: int) -> np.ndarray:
        """Fetch a chunk copy, for a caller that must own a buffer
        (a reader that only compares or concatenates takes a
        :meth:`view`); raises ``KeyError`` if absent."""
        return self._chunks[(stripe_id, chunk_index)].copy()

    def view(self, stripe_id: str, chunk_index: int) -> np.ndarray:
        """A read-only view of a stored chunk (no copy); ``KeyError`` if absent.

        The view keeps the bytes of the chunk's current generation: a
        later ``put`` or ``corrupt`` replaces the stored array rather
        than writing into it, and ``delete`` only drops the store's
        reference.  A reader that keeps it (a leaf sender from assign
        to its last send, a foreground read's record) therefore never
        sees a later mutation, and one done before the next mutation
        (the post-repair audit, the settle-time comparison) reads
        exactly what is stored.  Writing to the view raises
        ``ValueError``.
        """
        chunk = self._chunks[(stripe_id, chunk_index)].view()
        chunk.flags.writeable = False
        return chunk

    def get_range(
        self, stripe_id: str, chunk_index: int, start: int, stop: int
    ) -> np.ndarray:
        """Fetch a byte range of a chunk (copy; a hub scales its range
        from a :meth:`view` instead)."""
        chunk = self._chunks[(stripe_id, chunk_index)]
        if not 0 <= start <= stop <= len(chunk):
            raise ValueError(
                f"range [{start}, {stop}) outside chunk of {len(chunk)} bytes"
            )
        return chunk[start:stop].copy()

    def has(self, stripe_id: str, chunk_index: int) -> bool:
        return (stripe_id, chunk_index) in self._chunks

    def delete(self, stripe_id: str, chunk_index: int) -> None:
        """Drop a chunk; raises ``KeyError`` if absent."""
        key = (stripe_id, chunk_index)
        del self._chunks[key]
        for table in (self._digests, self._generations, self._verdicts):
            table.pop(key, None)

    def chunk_keys(self) -> list[tuple[str, int]]:
        """Every ``(stripe_id, chunk_index)`` stored, sorted."""
        return sorted(self._chunks)

    def stripe_chunks(self, stripe_id: str) -> list[int]:
        """Chunk indices of a stripe stored on this node."""
        return sorted(ci for sid, ci in self._chunks if sid == stripe_id)

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def bytes_stored(self) -> int:
        return sum(c.nbytes for c in self._chunks.values())

    # ---- integrity ---------------------------------------------------- #

    def digest(self, stripe_id: str, chunk_index: int) -> int:
        """The digest recorded at ``put``; raises ``KeyError`` if absent."""
        return self._digests[(stripe_id, chunk_index)]

    def verify(self, stripe_id: str, chunk_index: int) -> bool:
        """Whether the stored bytes still digest to the record.

        The bytes are re-digested at most once per generation: every
        at-rest mutation goes through this class (``put`` / ``delete`` /
        ``corrupt``), so between two of them the verdict cannot change;
        an intact ``put`` records its verdict, so only a torn put or a
        ``corrupt`` leaves a digest to take.
        """
        key = (stripe_id, chunk_index)
        ok = self._verdicts.get(key)
        if ok is None:
            ok = chunk_digest(self._chunks[key]) == self._digests[key]
            self._verdicts[key] = ok
        return ok

    def generation(self, stripe_id: str, chunk_index: int) -> int:
        """Changes whenever the chunk's stored bytes may have (0 = absent)."""
        return self._generations.get((stripe_id, chunk_index), 0)

    def _mutated(self, key: tuple[str, int]) -> None:
        self._mutations += 1
        self._generations[key] = self._mutations
        self._verdicts.pop(key, None)

    # ---- fault hooks (silent-corruption injection) --------------------- #

    def corrupt(
        self,
        stripe_id: str,
        chunk_index: int,
        *,
        flips: int = 8,
        seed: int = 0,
        fix_digest: bool = False,
    ) -> int:
        """Bit-rot: flip bytes of the stored chunk.

        Copy-on-write: the rotten bytes go into a fresh copy that
        replaces the stored array, so a :meth:`view` taken before keeps
        the bytes of its generation.  The recorded digest is left
        pointing at the original bytes, so :meth:`verify` fails —
        unless ``fix_digest`` re-records the digest over the rotten
        bytes, modelling rot that predates the digest (or a corrupted
        digest store): only parity-level verification can catch that
        variant.  Returns the number of bytes flipped.
        """
        key = (stripe_id, chunk_index)
        chunk = self._chunks[key]
        if not len(chunk):
            return 0
        rng = np.random.default_rng(seed)
        count = min(max(1, int(flips)), len(chunk))
        positions = rng.choice(len(chunk), size=count, replace=False)
        masks = rng.integers(1, 256, size=count, dtype=np.uint8)
        chunk = self._chunks[key] = chunk.copy()
        chunk[positions] ^= masks
        if fix_digest:
            self._digests[key] = chunk_digest(chunk)
        self._mutated(key)
        return count

    def arm_torn_write(self, tail_fraction: float = 0.25, seed: int = 0) -> None:
        """Arm a torn write: the *next* put garbles its stored tail.

        ``tail_fraction`` of the payload (at least one byte) is XORed
        with non-zero noise after the digest is recorded; re-arming
        before a put replaces the pending tear.
        """
        if not 0.0 < tail_fraction <= 1.0:
            raise ValueError("tail_fraction must be in (0, 1]")
        self._torn = (float(tail_fraction), np.random.default_rng(seed))
