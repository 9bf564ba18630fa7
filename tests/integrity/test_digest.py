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
