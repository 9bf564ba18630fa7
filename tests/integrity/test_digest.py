"""Chunk digests and slice checksums: definition, blocking, input types."""

import zlib

import numpy as np
import pytest

from repro.integrity import DIGEST_BLOCK_BYTES, chunk_digest, slice_checksum

pytestmark = pytest.mark.integrity


class TestChunkDigest:
    def test_matches_whole_buffer_crc32(self):
        rng = np.random.default_rng(0)
        payload = rng.integers(0, 256, 64 * 1024, dtype=np.uint8)
        assert chunk_digest(payload) == zlib.crc32(payload.tobytes())

    def test_block_chaining_equals_monolithic_crc(self):
        # spans three digest blocks with a ragged tail, so the chained
        # value must still equal the CRC of the whole buffer
        rng = np.random.default_rng(1)
        payload = rng.integers(
            0, 256, 2 * DIGEST_BLOCK_BYTES + 4097, dtype=np.uint8
        )
        assert chunk_digest(payload) == zlib.crc32(payload.tobytes())

    def test_accepts_bytes_bytearray_memoryview(self):
        rng = np.random.default_rng(2)
        arr = rng.integers(0, 256, 4096, dtype=np.uint8)
        raw = arr.tobytes()
        expected = chunk_digest(arr)
        assert chunk_digest(raw) == expected
        assert chunk_digest(bytearray(raw)) == expected
        assert chunk_digest(memoryview(raw)) == expected

    def test_rejects_non_uint8_arrays(self):
        with pytest.raises(ValueError, match="uint8"):
            chunk_digest(np.zeros(16, dtype=np.uint16))

    def test_single_byte_flip_changes_digest(self):
        rng = np.random.default_rng(3)
        payload = rng.integers(0, 256, 4096, dtype=np.uint8)
        before = chunk_digest(payload)
        payload[1234] ^= 0x40
        assert chunk_digest(payload) != before

    def test_empty_payload(self):
        assert chunk_digest(np.zeros(0, dtype=np.uint8)) == 0

    def test_unsigned_32_bit_range(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            payload = rng.integers(0, 256, 512, dtype=np.uint8)
            digest = chunk_digest(payload)
            assert 0 <= digest <= 0xFFFFFFFF


class TestSliceChecksum:
    def test_whole_chunk_slice_equals_chunk_digest(self):
        rng = np.random.default_rng(5)
        payload = rng.integers(0, 256, 4096, dtype=np.uint8)
        assert slice_checksum(payload) == chunk_digest(payload)

    def test_every_buffer_shape_agrees_with_chunk_digest(self):
        # the single-call path (contiguous uint8, at most one digest
        # block) and the fallback must be one definition
        rng = np.random.default_rng(7)
        big = rng.integers(0, 256, DIGEST_BLOCK_BYTES + 4099, dtype=np.uint8)
        for payload in (
            big[:0], big[5:6], big[3:4099], big[:DIGEST_BLOCK_BYTES], big,
            big[::2], big[:8192].reshape(2, 4096), big[:64].tobytes(),
        ):
            assert slice_checksum(payload) == chunk_digest(payload)
        with pytest.raises(ValueError, match="uint8"):
            slice_checksum(np.zeros(16, dtype=np.uint16))

    def test_detects_in_flight_flip(self):
        rng = np.random.default_rng(6)
        payload = rng.integers(0, 256, 4096, dtype=np.uint8)
        stamp = slice_checksum(payload)
        wire = payload.copy()
        wire[77] ^= 0x01
        assert slice_checksum(wire) != stamp


def _seed_slice_checksum(payload):
    """``slice_checksum`` as it was before the identity guard, verbatim."""
    if (
        isinstance(payload, np.ndarray)
        and payload.dtype == np.uint8
        and payload.nbytes <= DIGEST_BLOCK_BYTES
        and payload.flags.c_contiguous
    ):
        return zlib.crc32(payload)
    return chunk_digest(payload)


class _Tagged(np.ndarray):
    """An ``ndarray`` subclass: not the plain class the guard admits."""


def _guard_inputs() -> dict:
    rng = np.random.default_rng(8)
    big = rng.integers(0, 256, DIGEST_BLOCK_BYTES + 1, dtype=np.uint8)
    frozen = big[:1024]
    frozen.flags.writeable = False
    return {
        "0 B": big[:0],
        "1 B": big[:1],
        "1 KiB": big[:1024].copy(),
        "2 MiB": big[:DIGEST_BLOCK_BYTES],
        "2 MiB + 1": big,
        "strided": big[:4096:3],
        "fortran 2-D": np.asfortranarray(big[:4096].reshape(64, 64)),
        "read-only": frozen,
        "subclass": big[:1024].view(_Tagged),
        "bytes": big[:1024].tobytes(),
        "bytearray": bytearray(big[:1024].tobytes()),
        "memoryview": memoryview(big[:1024].tobytes()),
        "int16": big[:1024].view(np.int16),
    }


#: inputs the guard hands to ``chunk_digest`` (everything else is one
#: ``zlib.crc32`` call)
_FALLBACK = {"2 MiB + 1", "strided", "fortran 2-D", "subclass", "bytes",
             "bytearray", "memoryview", "int16"}


class TestSliceChecksumGuard:
    """The identity guard (plain ``ndarray``, the ``uint8`` singleton,
    ``zlib.crc32``'s own contiguity check) gives every input the value,
    or the exception type and text, the flag-reading guard gave."""

    @staticmethod
    def _outcome(checksum, payload):
        try:
            return checksum(payload)
        except Exception as exc:  # compared by type and text
            return type(exc), str(exc)

    @pytest.mark.parametrize("name", list(_guard_inputs()))
    def test_same_outcome_as_the_seed_guard(self, name, monkeypatch):
        from repro.integrity import digest

        payload = _guard_inputs()[name]
        want = self._outcome(_seed_slice_checksum, payload)
        fallbacks = []
        real = digest.chunk_digest
        monkeypatch.setattr(
            digest, "chunk_digest", lambda p: fallbacks.append(p) or real(p))
        assert self._outcome(slice_checksum, payload) == want
        assert len(fallbacks) == (name in _FALLBACK)
        if name == "int16":
            assert want == (ValueError, "digest payloads must be uint8, got int16")
        else:  # the CRC of the bytes in C order
            raw = payload.tobytes() if isinstance(payload, np.ndarray) else bytes(payload)
            assert want == zlib.crc32(raw)
