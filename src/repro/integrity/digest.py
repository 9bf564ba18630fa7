"""Chunk digests and wire checksums (zero-dependency ``zlib.crc32``).

Digests are computed by chaining ``zlib.crc32`` over 2 MiB blocks.  For
a contiguous buffer the chained value equals the CRC of the whole
buffer, so the block size changes no digest: it only bounds the bytes
one C call reads, and the payload size up to which
:func:`slice_checksum` makes a single call.  It is not tied to the EC
kernels' block (:data:`repro.ec.kernels.SEGMENT_PAIRS`, sized to their
scratch); 2 MiB stays because nothing gains from moving it — a chunk of
a few MiB is digested in a few calls either way.

Two helpers, two granularities:

* :func:`chunk_digest` — the *at-rest* digest a
  :class:`~repro.cluster.chunkstore.ChunkStore` records per chunk on
  ``put`` and re-checks on scrub/verify.
* :func:`slice_checksum` — the *in-flight* checksum a
  :class:`~repro.cluster.datanode.DataNode` stamps on every
  :class:`~repro.cluster.messages.SliceData` it sends, verified at the
  receiving hop so wire corruption is caught one hop from its source
  and retransmitted instead of poisoning downstream partial sums.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Digest block granularity: bytes per chained ``zlib.crc32`` call.
DIGEST_BLOCK_BYTES = 2 * 1024 * 1024

_UINT8 = np.dtype(np.uint8)


def chunk_digest(payload: np.ndarray | bytes | bytearray | memoryview) -> int:
    """CRC-32 of a chunk payload, chained over 2 MiB blocks.

    Accepts any contiguous byte buffer; numpy arrays are viewed, not
    copied.  Returns an unsigned 32-bit value.
    """
    if isinstance(payload, np.ndarray):
        if payload.dtype != np.uint8:
            raise ValueError(f"digest payloads must be uint8, got {payload.dtype}")
        view = memoryview(np.ascontiguousarray(payload)).cast("B")
    else:
        view = memoryview(payload).cast("B")
    crc = 0
    for lo in range(0, len(view), DIGEST_BLOCK_BYTES):
        crc = zlib.crc32(view[lo : lo + DIGEST_BLOCK_BYTES], crc)
    return crc & 0xFFFFFFFF


def slice_checksum(payload: np.ndarray | bytes | bytearray | memoryview) -> int:
    """CRC-32 of one wire slice.

    Slices are bounded by the pipelining window (typically 64 KiB), far
    below the digest block size, so this is a single ``zlib.crc32``
    call on the buffer itself — the value :func:`chunk_digest` chains
    to, so a whole-chunk slice checksums to the chunk digest.  Anything
    else (a larger, non-byte or non-contiguous buffer, an ``ndarray``
    subclass) takes :func:`chunk_digest`'s path and its checks, which
    give the same value or raise.

    The guard runs twice per slice hop, so it tests identity, not
    equality or flags: a plain ``ndarray`` of the ``uint8`` dtype
    singleton.  Contiguity is ``zlib.crc32``'s own check — it refuses a
    non-contiguous array with ``ValueError``.
    """
    if (
        payload.__class__ is np.ndarray
        and payload.dtype is _UINT8
        and payload.nbytes <= DIGEST_BLOCK_BYTES
    ):
        try:
            return zlib.crc32(payload)
        except ValueError:  # not C-contiguous
            pass
    return chunk_digest(payload)
