"""Parity-consistency checking, localization, and the stripe audit."""

import numpy as np
import pytest

from repro.ec import RSCode
from repro.integrity import audit_stripe, check_consistency, localize_corruption

pytestmark = pytest.mark.integrity

N, K = 9, 6
CHUNK = 2048


@pytest.fixture()
def stripe():
    code = RSCode(N, K)
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, (K, CHUNK), dtype=np.uint8)
    return code, code.encode(data)


class TestCheckConsistency:
    def test_clean_codeword_is_consistent(self, stripe):
        code, chunks = stripe
        values = {i: chunks[i] for i in range(N)}
        assert check_consistency(code, values) == (True, None)
        # any row outside the decode set is predicted, held or not
        held = {i: chunks[i] for i in range(N - 1)}
        for lost in range(K, N):
            ok, predicted = check_consistency(code, held, predict=lost)
            assert ok and np.array_equal(predicted, chunks[lost])

    def test_corrupt_surplus_chunk_trips(self, stripe):
        code, chunks = stripe
        values = {i: chunks[i].copy() for i in range(N)}
        values[8][100] ^= 0xFF  # outside the k-lowest decode set
        ok, _ = check_consistency(code, values)
        assert not ok

    def test_corrupt_decode_set_chunk_trips(self, stripe):
        # corruption inside the decode set skews the prediction, so the
        # clean surplus chunks disagree with it — still detected
        code, chunks = stripe
        values = {i: chunks[i].copy() for i in range(N)}
        values[0][0] ^= 0x55
        ok, _ = check_consistency(code, values)
        assert not ok

    def test_exactly_k_values_is_vacuous(self, stripe):
        code, chunks = stripe
        values = {i: chunks[i].copy() for i in range(K)}
        values[0][0] ^= 0x55  # no surplus left to contradict it
        ok, _ = check_consistency(code, values)
        assert ok

    def test_fewer_than_k_raises(self, stripe):
        code, chunks = stripe
        with pytest.raises(ValueError, match="at least k"):
            check_consistency(code, {i: chunks[i] for i in range(K - 1)})


class TestLocalizeCorruption:
    def test_single_culprit_with_two_surplus(self, stripe):
        code, chunks = stripe
        values = {i: chunks[i].copy() for i in range(K + 2)}
        values[3][10] ^= 0x80
        assert localize_corruption(code, values) == (3,)

    def test_one_surplus_is_ambiguous(self, stripe):
        # with k+1 values every removal drops to exactly k (vacuously
        # consistent), so localization cannot pin the culprit
        code, chunks = stripe
        values = {i: chunks[i].copy() for i in range(K + 1)}
        values[3][10] ^= 0x80
        culprits = localize_corruption(code, values)
        assert len(culprits) > 1 and 3 in culprits

    def test_two_culprits_unexplainable(self, stripe):
        code, chunks = stripe
        values = {i: chunks[i].copy() for i in range(N)}
        values[2][0] ^= 0x01
        values[7][0] ^= 0x01
        assert localize_corruption(code, values) == ()


class TestAuditStripe:
    LOST = 4

    def _stored(self, chunks, exclude=()):
        return {
            i: chunks[i].copy()
            for i in range(N)
            if i != self.LOST and i not in exclude
        }

    def test_clean_repair_passes(self, stripe):
        code, chunks = stripe
        report = audit_stripe(
            code, self.LOST, chunks[self.LOST], self._stored(chunks)
        )
        assert report.ok is True
        assert report.culprits == ()
        assert report.rebuilt_ok is True
        assert report.checked == N - 1

    def test_digest_bad_chunk_is_a_culprit(self, stripe):
        code, chunks = stripe
        report = audit_stripe(
            code, self.LOST, chunks[self.LOST],
            self._stored(chunks, exclude=(2,)), digest_bad=(2,),
        )
        assert report.ok is False
        assert report.culprits == (2,)
        assert report.rebuilt_ok is True  # the rebuilt value itself is fine

    def test_wrong_rebuilt_detected_and_healed(self, stripe):
        code, chunks = stripe
        poisoned = chunks[self.LOST].copy()
        poisoned[500] ^= 0x22
        report = audit_stripe(code, self.LOST, poisoned, self._stored(chunks))
        assert report.ok is False
        assert report.rebuilt_ok is False
        # the surplus pins down the true value: the healing payload
        assert np.array_equal(report.predicted, chunks[self.LOST])

    @pytest.mark.parametrize("at", [0, 700, CHUNK - 1])
    def test_a_wrong_block_after_clean_ones_heals_byte_exact(
        self, stripe, at, monkeypatch
    ):
        # 256-byte blocks: the prediction agrees with the rebuilt bytes
        # for every block before ``at`` and the healing row must still
        # hold them
        from repro.integrity import verify

        monkeypatch.setattr(verify, "BLOCK_BYTES", 256)
        code, chunks = stripe
        poisoned = chunks[self.LOST].copy()
        poisoned[at] ^= 0x22
        report = audit_stripe(code, self.LOST, poisoned, self._stored(chunks))
        assert report.rebuilt_ok is False and report.predicted is not poisoned
        assert np.array_equal(report.predicted, chunks[self.LOST])

    def test_a_rebuilt_value_of_the_wrong_length_is_wrong(self, stripe):
        code, chunks = stripe
        for rebuilt in (chunks[self.LOST][:-1], np.append(chunks[self.LOST], 0)):
            report = audit_stripe(code, self.LOST, rebuilt, self._stored(chunks))
            assert report.ok is False and report.rebuilt_ok is False
            assert np.array_equal(report.predicted, chunks[self.LOST])

    def test_a_clean_audit_builds_no_chunk_sized_row(self, monkeypatch):
        import tracemalloc

        from repro.integrity import verify

        size, block = 1 << 20, 1 << 14
        monkeypatch.setattr(verify, "BLOCK_BYTES", block)
        code = RSCode(N, K)
        rng = np.random.default_rng(8)
        chunks = code.encode(rng.integers(0, 256, (K, size), dtype=np.uint8))
        stored = {i: chunks[i] for i in range(N) if i != self.LOST}
        rebuilt = chunks[self.LOST].copy()
        audit_stripe(code, self.LOST, rebuilt, stored)  # warm the tables

        def peak(value):
            tracemalloc.start()
            try:
                report = audit_stripe(code, self.LOST, value, stored)
                return report, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        report, clean = peak(rebuilt)
        assert report.ok is True and report.predicted is rebuilt
        assert clean < size // 4  # the (n - k) x block prediction, no row
        rebuilt[-1] ^= 1
        report, healed = peak(rebuilt)
        assert report.rebuilt_ok is False
        assert healed >= size  # the gate has teeth: a wrong one builds the row

    def test_silent_stored_rot_localized(self, stripe):
        # rot whose digest was re-recorded: stored values disagree with
        # each other and only leave-one-out can name the culprit
        code, chunks = stripe
        stored = self._stored(chunks)
        stored[6][9] ^= 0x10
        report = audit_stripe(code, self.LOST, chunks[self.LOST], stored)
        assert report.ok is False
        assert report.culprits == (6,)
        assert report.localized
        assert report.rebuilt_ok is True

    def test_too_few_clean_chunks_is_unverifiable(self, stripe):
        code, chunks = stripe
        stored = {i: chunks[i] for i in range(K - 1)}
        report = audit_stripe(code, self.LOST, chunks[self.LOST], stored)
        assert report.ok is None
        assert report.culprits == ()

    def test_too_few_clean_with_digest_bad_is_corrupt(self, stripe):
        code, chunks = stripe
        stored = {i: chunks[i] for i in range(K - 1)}
        report = audit_stripe(
            code, self.LOST, chunks[self.LOST], stored, digest_bad=(8,)
        )
        assert report.ok is False
        assert report.culprits == (8,)

    def test_exactly_k_clean_chunks_are_unverifiable(self, stripe):
        # no surplus: a rebuild decoded from k values that hold rot under
        # a matching digest agrees with them, and is still wrong
        code, chunks = stripe
        stored = {i: chunks[i].copy() for i in range(K + 1) if i != self.LOST}
        stored[0][9] ^= 0x10
        _, rebuilt = check_consistency(code, stored, predict=self.LOST)
        assert not np.array_equal(rebuilt, chunks[self.LOST])
        report = audit_stripe(code, self.LOST, rebuilt, stored)
        assert report.ok is None
        assert report.culprits == () and report.predicted is None
        report = audit_stripe(code, self.LOST, rebuilt, stored, digest_bad=(8,))
        assert report.ok is False and report.culprits == (8,)
