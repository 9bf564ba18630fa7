"""Per-node chunk storage."""

import numpy as np
import pytest

from repro.cluster import ChunkStore


@pytest.fixture
def store():
    s = ChunkStore()
    s.put("s1", 0, np.arange(32, dtype=np.uint8))
    s.put("s1", 3, np.full(16, 7, dtype=np.uint8))
    s.put("s2", 0, np.zeros(8, dtype=np.uint8))
    return s


class TestChunkStore:
    def test_roundtrip(self, store):
        assert np.array_equal(store.get("s1", 0), np.arange(32, dtype=np.uint8))

    def test_put_copies(self, store):
        payload = np.zeros(4, dtype=np.uint8)
        store.put("s3", 1, payload)
        payload[0] = 99
        assert store.get("s3", 1)[0] == 0

    def test_get_copies(self, store):
        a = store.get("s1", 0)
        a[0] = 99
        assert store.get("s1", 0)[0] == 0

    def test_get_range(self, store):
        assert np.array_equal(
            store.get_range("s1", 0, 4, 8), np.array([4, 5, 6, 7], dtype=np.uint8)
        )

    def test_get_range_bounds_checked(self, store):
        with pytest.raises(ValueError):
            store.get_range("s1", 0, 0, 100)
        with pytest.raises(ValueError):
            store.get_range("s1", 0, -1, 4)

    def test_missing_raises(self, store):
        with pytest.raises(KeyError):
            store.get("s1", 1)

    def test_has(self, store):
        assert store.has("s1", 3)
        assert not store.has("s1", 4)

    def test_delete(self, store):
        store.delete("s1", 3)
        assert not store.has("s1", 3)
        with pytest.raises(KeyError):
            store.delete("s1", 3)

    def test_stripe_chunks(self, store):
        assert store.stripe_chunks("s1") == [0, 3]
        assert store.stripe_chunks("nope") == []

    def test_len_and_bytes(self, store):
        assert len(store) == 3
        assert store.bytes_stored == 32 + 16 + 8

    def test_a_view_keeps_the_bytes_of_its_generation(self, store):
        # corrupt is copy-on-write and put stores a new array, so a view
        # taken before either still reads what was stored when it was taken
        clean = store.get("s1", 0)
        view = store.view("s1", 0)
        assert not view.flags.writeable
        assert store.corrupt("s1", 0, flips=8, seed=3) == 8
        assert not np.array_equal(store.get("s1", 0), clean)
        assert np.array_equal(view, clean)
        store.put("s1", 0, np.zeros(32, dtype=np.uint8))
        store.delete("s1", 0)
        assert np.array_equal(view, clean)

    def test_rejects_2d_payload(self, store):
        with pytest.raises(ValueError):
            store.put("s4", 0, np.zeros((2, 2), dtype=np.uint8))


class TestVerifyMemo:
    """``verify`` digests a chunk once per mutation, not once per call."""

    @pytest.fixture
    def digests(self, monkeypatch):
        """Calls of ``chunk_digest`` made by the store, as a growing list."""
        from repro.cluster import chunkstore

        calls = []
        real = chunkstore.chunk_digest

        def counting(payload):
            calls.append(len(payload))
            return real(payload)

        monkeypatch.setattr(chunkstore, "chunk_digest", counting)
        return calls

    def _verify_twice(self, store, digests, key=("s1", 0)):
        """``(verdict, digests taken)`` of two back-to-back verifies."""
        before = len(digests)
        first = store.verify(*key)
        assert store.verify(*key) is first
        return first, len(digests) - before

    def test_unchanged_chunk_is_digested_once(self, store, digests):
        assert self._verify_twice(store, digests) == (True, 1)
        assert self._verify_twice(store, digests) == (True, 0)
        store.get("s1", 0)
        store.get_range("s1", 0, 2, 9)
        store.put("s1", 3, np.ones(16, dtype=np.uint8))  # another chunk
        del digests[:]
        assert self._verify_twice(store, digests) == (True, 0)

    def test_put_redigests(self, store, digests):
        store.verify("s1", 0)
        store.put("s1", 0, np.arange(32, dtype=np.uint8))  # same bytes
        del digests[:]
        assert self._verify_twice(store, digests) == (True, 1)

    def test_delete_then_put_redigests(self, store, digests):
        before = store.generation("s1", 0)
        store.verify("s1", 0)
        store.delete("s1", 0)
        assert store.generation("s1", 0) == 0
        with pytest.raises(KeyError):
            store.verify("s1", 0)
        store.put("s1", 0, np.arange(32, dtype=np.uint8))
        assert store.generation("s1", 0) not in (0, before)
        del digests[:]
        assert self._verify_twice(store, digests) == (True, 1)

    def test_corrupt_redigests_and_false_sticks(self, store, digests):
        store.verify("s1", 0)
        store.corrupt("s1", 0, flips=4, seed=1)
        del digests[:]
        assert self._verify_twice(store, digests) == (False, 1)
        assert self._verify_twice(store, digests) == (False, 0)
        store.put("s1", 0, np.arange(32, dtype=np.uint8))  # healed
        assert self._verify_twice(store, digests)[0] is True

    def test_corrupt_with_fixed_digest_redigests(self, store, digests):
        store.verify("s1", 0)
        store.corrupt("s1", 0, flips=4, seed=1, fix_digest=True)
        del digests[:]
        assert self._verify_twice(store, digests) == (True, 1)

    def test_torn_write_is_not_hidden_by_the_memo(self, store, digests):
        store.verify("s1", 0)
        store.arm_torn_write(tail_fraction=0.5, seed=2)
        assert self._verify_twice(store, digests) == (True, 0)  # only armed
        store.put("s1", 0, np.arange(32, dtype=np.uint8))
        del digests[:]
        assert self._verify_twice(store, digests) == (False, 1)

    def test_every_mutation_moves_the_generation(self, store):
        seen = [store.generation("s1", 0)]
        store.put("s1", 0, np.arange(32, dtype=np.uint8))
        seen.append(store.generation("s1", 0))
        store.corrupt("s1", 0, flips=1)
        seen.append(store.generation("s1", 0))
        store.corrupt("s1", 0, flips=1, fix_digest=True)
        seen.append(store.generation("s1", 0))
        assert len(set(seen)) == len(seen) and 0 not in seen
        untouched = store.generation("s1", 3)
        store.verify("s1", 0)
        store.get("s1", 0)
        assert store.generation("s1", 0) == seen[-1]
        assert store.generation("s1", 3) == untouched
