"""Reed-Solomon codes: encode/decode/repair round-trips and invariants."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import RSCode, matrix
from repro.integrity import audit_stripe


def make_stripe(code: RSCode, length: int = 256, seed: int = 0):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (code.k, length), dtype=np.uint8)
    return data, code.encode(data)


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RSCode(4, 4)
        with pytest.raises(ValueError):
            RSCode(3, 0)
        with pytest.raises(ValueError):
            RSCode(300, 100)

    def test_repr_mentions_params(self):
        assert "9" in repr(RSCode(9, 6)) and "6" in repr(RSCode(9, 6))


class TestEncode:
    def test_systematic(self):
        code = RSCode(6, 4)
        data, stripe = make_stripe(code)
        assert np.array_equal(stripe[:4], data)

    def test_stripe_shape(self):
        code = RSCode(9, 6)
        _, stripe = make_stripe(code, length=100)
        assert stripe.shape == (9, 100)

    def test_wrong_data_shape_raises(self):
        code = RSCode(6, 4)
        with pytest.raises(ValueError):
            code.encode(np.zeros((3, 10), dtype=np.uint8))

    def test_linearity(self):
        """encode(a ^ b) == encode(a) ^ encode(b)."""
        code = RSCode(5, 3)
        da, sa = make_stripe(code, seed=1)
        db, sb = make_stripe(code, seed=2)
        combined = code.encode(np.bitwise_xor(da, db))
        assert np.array_equal(combined, np.bitwise_xor(sa, sb))

    def test_zero_data_zero_parity(self):
        code = RSCode(6, 4)
        stripe = code.encode(np.zeros((4, 16), dtype=np.uint8))
        assert not stripe.any()


class TestDecode:
    @pytest.mark.parametrize("n,k", [(5, 3), (6, 4), (9, 6)])
    def test_decode_from_every_k_subset(self, n, k):
        code = RSCode(n, k)
        data, stripe = make_stripe(code, length=64)
        for subset in combinations(range(n), k):
            got = code.decode({i: stripe[i] for i in subset})
            assert np.array_equal(got, data), subset

    def test_decode_with_extra_chunks(self):
        code = RSCode(6, 4)
        data, stripe = make_stripe(code)
        got = code.decode({i: stripe[i] for i in range(6)})
        assert np.array_equal(got, data)

    def test_decode_too_few_raises(self):
        code = RSCode(6, 4)
        _, stripe = make_stripe(code)
        with pytest.raises(ValueError):
            code.decode({0: stripe[0], 1: stripe[1]})

    @given(st.integers(0, 2**32 - 1), st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_decode_random_subsets_property(self, seed, length):
        code = RSCode(9, 6)
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, (6, length), dtype=np.uint8)
        stripe = code.encode(data)
        subset = rng.choice(9, 6, replace=False)
        got = code.decode({int(i): stripe[int(i)] for i in subset})
        assert np.array_equal(got, data)


class TestRepair:
    @pytest.mark.parametrize("n,k", [(5, 3), (6, 4), (9, 6), (14, 10)])
    def test_repair_every_chunk(self, n, k):
        code = RSCode(n, k)
        _, stripe = make_stripe(code, length=32)
        for lost in range(n):
            available = {i: stripe[i] for i in range(n) if i != lost}
            got = code.repair(lost, available)
            assert np.array_equal(got, stripe[lost]), lost

    def test_repair_equation_coefficients_nonzero(self):
        """MDS repair never has a passive helper (paper's pipelining premise)."""
        code = RSCode(9, 6)
        for lost in range(9):
            for helpers in [tuple(i for i in range(9) if i != lost)[:6]]:
                eq = code.repair_equation(lost, helpers)
                assert all(c != 0 for c in eq.coeffs)

    @pytest.mark.parametrize("n,k", [(5, 3), (6, 4), (9, 6), (12, 8), (14, 10)])
    def test_a_lost_data_chunk_is_the_xor_of_the_rest_and_p0(self, n, k):
        """P0 is XOR parity: the other data chunks and P0 rebuild a lost
        data chunk with all-ones coefficients, and the data rebuild P0."""
        code = RSCode(n, k)
        for lost in range(k):
            helpers = tuple(i for i in range(k + 1) if i != lost)
            assert code.repair_equation(lost, helpers).coeffs == (1,) * k
        assert code.repair_equation(k, tuple(range(k))).coeffs == (1,) * k

    def test_repair_equation_evaluate(self):
        code = RSCode(6, 4)
        _, stripe = make_stripe(code)
        eq = code.repair_equation(2, (0, 1, 4, 5))
        got = eq.evaluate({i: stripe[i] for i in eq.helpers})
        assert np.array_equal(got, stripe[2])

    def test_repair_equation_missing_helper_chunk(self):
        code = RSCode(6, 4)
        _, stripe = make_stripe(code)
        eq = code.repair_equation(2, (0, 1, 4, 5))
        with pytest.raises(KeyError):
            eq.evaluate({0: stripe[0]})

    def test_repair_equation_default_helpers(self):
        code = RSCode(6, 4)
        eq = code.repair_equation(0)
        assert eq.helpers == (1, 2, 3, 4)

    def test_repair_equation_validation(self):
        code = RSCode(6, 4)
        with pytest.raises(ValueError):
            code.repair_equation(6)  # out of range
        with pytest.raises(ValueError):
            code.repair_equation(0, (0, 1, 2, 3))  # includes lost
        with pytest.raises(ValueError):
            code.repair_equation(0, (1, 1, 2, 3))  # duplicate
        with pytest.raises(ValueError):
            code.repair_equation(0, (1, 2, 3))  # too few

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_repair_random_helper_sets(self, seed):
        code = RSCode(9, 6)
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, (6, 48), dtype=np.uint8)
        stripe = code.encode(data)
        lost = int(rng.integers(0, 9))
        pool = [i for i in range(9) if i != lost]
        helpers = tuple(int(x) for x in rng.choice(pool, 6, replace=False))
        eq = code.repair_equation(lost, helpers)
        got = eq.evaluate({i: stripe[i] for i in helpers})
        assert np.array_equal(got, stripe[lost])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_equation_matches_a_direct_inversion_in_helper_order(self, seed):
        """Coefficients come from the inverse cached for the sorted helper
        set, reordered: bit-identical to inverting ``G[helpers]`` as given."""
        code = RSCode(9, 6)
        rng = np.random.default_rng(seed)
        lost = int(rng.integers(0, 9))
        pool = [i for i in range(9) if i != lost]
        helpers = tuple(int(x) for x in rng.choice(pool, 6, replace=False))
        direct = matrix.matmul(
            code.generator[lost][None, :],
            matrix.inverse(code.generator[list(helpers)]),
        )[0]
        eq = code.repair_equation(lost, helpers)
        assert eq.helpers == helpers
        assert eq.coeffs == tuple(int(c) for c in direct)

    def test_one_audit_of_a_fresh_code_inverts_once(self, monkeypatch):
        """The n - k predicted rows of an audit share one decode set, so a
        cold (14,10) code inverts one k x k matrix, not one per row."""
        code = RSCode(14, 10)
        _, stripe = make_stripe(code)
        calls = []
        real = matrix.inverse
        monkeypatch.setattr(
            matrix, "inverse", lambda a: (calls.append(1), real(a))[1]
        )
        lost = 0
        stored = {i: stripe[i] for i in range(14) if i != lost}
        report = audit_stripe(code, lost, stripe[lost].copy(), stored)
        assert report.ok and report.rebuilt_ok
        assert len(calls) == 1

    def test_repair_linear_combination_pipelinable(self):
        """Partial sums over helper prefixes telescope to the lost chunk —
        the algebra behind chain pipelining (paper Eq. 1)."""
        code = RSCode(5, 3)
        _, stripe = make_stripe(code)
        eq = code.repair_equation(0, (1, 2, 3))
        from repro.ec import gf256

        partial = np.zeros_like(stripe[0])
        for coeff, helper in zip(eq.coeffs, eq.helpers):
            partial = np.bitwise_xor(partial, gf256.mul_chunk(coeff, stripe[helper]))
        assert np.array_equal(partial, stripe[0])


class TestVerifyStripe:
    def test_valid_stripe(self):
        code = RSCode(6, 4)
        _, stripe = make_stripe(code)
        assert code.verify_stripe(stripe)

    def test_corrupted_stripe(self):
        code = RSCode(6, 4)
        _, stripe = make_stripe(code)
        stripe = stripe.copy()
        stripe[5, 0] ^= 1
        assert not code.verify_stripe(stripe)

    def test_wrong_shape_raises(self):
        code = RSCode(6, 4)
        with pytest.raises(ValueError):
            code.verify_stripe(np.zeros((5, 8), dtype=np.uint8))


class TestEquationCache:
    def test_cache_returns_identical_object(self):
        code = RSCode(9, 6)
        a = code.repair_equation(0, (1, 2, 3, 4, 5, 6))
        b = code.repair_equation(0, (1, 2, 3, 4, 5, 6))
        assert a is b

    def test_cache_distinguishes_helper_sets(self):
        code = RSCode(9, 6)
        a = code.repair_equation(0, (1, 2, 3, 4, 5, 6))
        b = code.repair_equation(0, (1, 2, 3, 4, 5, 7))
        assert a is not b and a.coeffs != b.coeffs

    def test_cache_bounded(self):
        code = RSCode(9, 6)
        code.CACHE_LIMIT = 4
        from itertools import combinations

        for helpers in list(combinations(range(1, 9), 6))[:10]:
            code.repair_equation(0, helpers)
        assert len(code._equation_cache) <= 4

    def test_cached_equation_still_correct(self):
        code = RSCode(6, 4)
        _, stripe = make_stripe(code)
        for _ in range(3):
            eq = code.repair_equation(1, (0, 2, 4, 5))
            got = eq.evaluate({i: stripe[i] for i in eq.helpers})
            assert np.array_equal(got, stripe[1])
