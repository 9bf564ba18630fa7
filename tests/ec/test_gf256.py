"""GF(2^8) arithmetic: table correctness, field axioms, chunk kernels."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ec import gf256, matrix

elems = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


def one_row(coeffs, chunks, out=None):
    """A linear combination: the one-row ``matvec_chunks`` product."""
    row = np.array([coeffs], dtype=np.uint8)
    return matrix.matvec_chunks(row, np.array(chunks), out=out)


class TestTables:
    def test_exp_table_starts_at_one(self):
        assert gf256.EXP_TABLE[0] == 1

    def test_exp_table_periodic(self):
        assert np.array_equal(gf256.EXP_TABLE[:255], gf256.EXP_TABLE[255:510])

    def test_exp_covers_all_nonzero_elements(self):
        assert sorted(set(int(x) for x in gf256.EXP_TABLE[:255])) == list(
            range(1, 256)
        )

    def test_log_exp_roundtrip(self):
        for a in range(1, 256):
            assert gf256.EXP_TABLE[gf256.LOG_TABLE[a]] == a

    def test_log_of_zero_is_sentinel(self):
        assert gf256.LOG_TABLE[0] == -1

    def test_generator_order_is_255(self):
        # g^255 == 1 and no smaller positive power is 1
        assert int(gf256.power(gf256.GENERATOR, 255)) == 1
        powers = {int(gf256.power(gf256.GENERATOR, e)) for e in range(1, 255)}
        assert 1 not in powers

    def test_mul_table_matches_log_form(self):
        a = np.arange(256, dtype=np.uint8)
        for b in (1, 2, 3, 87, 255):
            via_table = gf256.MUL_TABLE[a, b]
            expected = np.zeros(256, dtype=np.uint8)
            logs = (gf256.LOG_TABLE[a[1:]] + gf256.LOG_TABLE[b]) % 255
            expected[1:] = gf256.EXP_TABLE[logs]
            assert np.array_equal(via_table, expected)

    def test_inv_table(self):
        for a in range(1, 256):
            assert int(gf256.mul(a, gf256.INV_TABLE[a])) == 1

    def test_inv_table_zero_entry_is_zero(self):
        assert gf256.INV_TABLE[0] == 0


class TestScalarOps:
    def test_add_is_xor(self):
        assert int(gf256.add(0b1010, 0b0110)) == 0b1100

    def test_sub_equals_add(self):
        assert gf256.sub is gf256.add

    def test_mul_by_zero(self):
        assert int(gf256.mul(0, 123)) == 0
        assert int(gf256.mul(123, 0)) == 0

    def test_mul_by_one(self):
        for a in (1, 7, 200, 255):
            assert int(gf256.mul(a, 1)) == a

    def test_known_product(self):
        # 2 * 2 = 4 (polynomial x * x = x^2, no reduction)
        assert int(gf256.mul(2, 2)) == 4
        # 0x80 * 2 = 0x100 reduced by 0x11B -> 0x1B
        assert int(gf256.mul(0x80, 2)) == 0x1B

    def test_div_inverse_of_mul(self):
        assert int(gf256.div(gf256.mul(87, 19), 19)) == 87

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf256.div(5, 0)

    def test_div_array_with_one_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf256.div(np.array([1, 2]), np.array([3, 0]))

    def test_inv_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf256.inv(0)

    def test_power_zero_exponent(self):
        assert int(gf256.power(0, 0)) == 1
        assert int(gf256.power(77, 0)) == 1

    def test_power_of_zero(self):
        assert int(gf256.power(0, 5)) == 0

    def test_power_matches_repeated_mul(self):
        acc = 1
        for e in range(1, 10):
            acc = int(gf256.mul(acc, 3))
            assert int(gf256.power(3, e)) == acc

    def test_power_negative_exponent_raises(self):
        with pytest.raises(ValueError):
            gf256.power(3, -1)

    def test_power_array_input(self):
        out = gf256.power(np.array([0, 1, 2], dtype=np.uint8), 2)
        assert list(out) == [0, 1, 4]


class TestFieldAxioms:
    @given(elems, elems)
    def test_add_commutative(self, a, b):
        assert int(gf256.add(a, b)) == int(gf256.add(b, a))

    @given(elems, elems)
    def test_mul_commutative(self, a, b):
        assert int(gf256.mul(a, b)) == int(gf256.mul(b, a))

    @given(elems, elems, elems)
    def test_mul_associative(self, a, b, c):
        left = gf256.mul(gf256.mul(a, b), c)
        right = gf256.mul(a, gf256.mul(b, c))
        assert int(left) == int(right)

    @given(elems, elems, elems)
    def test_distributive(self, a, b, c):
        left = gf256.mul(a, gf256.add(b, c))
        right = gf256.add(gf256.mul(a, b), gf256.mul(a, c))
        assert int(left) == int(right)

    @given(elems)
    def test_additive_inverse_is_self(self, a):
        assert int(gf256.add(a, a)) == 0

    @given(nonzero)
    def test_multiplicative_inverse(self, a):
        assert int(gf256.mul(a, gf256.inv(a))) == 1

    @given(nonzero, nonzero)
    def test_no_zero_divisors(self, a, b):
        assert int(gf256.mul(a, b)) != 0

    @given(elems, nonzero)
    def test_div_mul_roundtrip(self, a, b):
        assert int(gf256.mul(gf256.div(a, b), b)) == a


class TestChunkKernels:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.chunk = rng.integers(0, 256, 4096, dtype=np.uint8)
        self.other = rng.integers(0, 256, 4096, dtype=np.uint8)

    def test_mul_chunk_zero_coeff(self):
        assert not gf256.mul_chunk(0, self.chunk).any()

    def test_mul_chunk_one_is_copy(self):
        out = gf256.mul_chunk(1, self.chunk)
        assert np.array_equal(out, self.chunk)
        assert out is not self.chunk

    def test_mul_chunk_matches_elementwise(self):
        out = gf256.mul_chunk(77, self.chunk)
        expected = gf256.mul(np.full_like(self.chunk, 77), self.chunk)
        assert np.array_equal(out, expected)

    def test_one_row_accumulates_a_scaled_chunk(self):
        got = one_row([1, 5], [self.chunk, self.other])[0]
        expected = np.bitwise_xor(self.chunk, gf256.mul_chunk(5, self.other))
        assert np.array_equal(got, expected)

    def test_one_row_zero_coeff_adds_nothing(self):
        got = one_row([1, 0], [self.chunk, self.other])[0]
        assert np.array_equal(got, self.chunk)

    def test_one_row_single_term(self):
        out = one_row([9], [self.chunk])[0]
        assert np.array_equal(out, gf256.mul_chunk(9, self.chunk))

    def test_one_row_linearity(self):
        d1 = one_row([3, 7], [self.chunk, self.other])[0]
        manual = np.bitwise_xor(
            gf256.mul_chunk(3, self.chunk), gf256.mul_chunk(7, self.other)
        )
        assert np.array_equal(d1, manual)

    def test_one_row_of_no_chunks_is_zero(self):
        got = matrix.matvec_chunks(np.zeros((1, 0), np.uint8), np.zeros((0, 16), np.uint8))
        assert got.shape == (1, 16) and not got.any()

    def test_one_row_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            one_row([1, 2], [self.chunk])

    def test_one_row_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            matrix.matvec_chunks(
                np.array([[1, 2]], np.uint8), [self.chunk, self.chunk[:10]]
            )


class TestOutParameters:
    """Preallocated-buffer forms of the data-plane kernels."""

    def setup_method(self):
        rng = np.random.default_rng(11)
        self.chunk = rng.integers(0, 256, 4096, dtype=np.uint8)
        self.other = rng.integers(0, 256, 4096, dtype=np.uint8)

    @pytest.mark.parametrize("coeff", [0, 1, 2, 7, 255])
    def test_mul_chunk_out_matches_allocating(self, coeff):
        out = np.empty_like(self.chunk)
        result = gf256.mul_chunk(coeff, self.chunk, out=out)
        assert result is out
        assert np.array_equal(out, gf256.mul_chunk(coeff, self.chunk))

    def test_mul_chunk_out_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            gf256.mul_chunk(3, self.chunk, out=np.empty(10, dtype=np.uint8))

    def test_mul_chunk_out_dtype_mismatch_raises(self):
        with pytest.raises(ValueError):
            gf256.mul_chunk(3, self.chunk, out=np.empty_like(self.chunk, dtype=np.uint16))

    @pytest.mark.parametrize("coeff", [0, 1, 9])
    def test_one_row_out_matches_plain(self, coeff):
        out = np.empty((1, len(self.chunk)), dtype=np.uint8)
        chunks = [self.other, self.chunk]
        result = one_row([1, coeff], chunks, out=out)
        assert result is out
        assert np.array_equal(out, one_row([1, coeff], chunks))

    def test_one_row_out_matches_allocating(self):
        coeffs = [3, 7, 11]
        chunks = [self.chunk, self.other, self.chunk ^ self.other]
        out = np.empty((1, len(self.chunk)), dtype=np.uint8)
        result = one_row(coeffs, chunks, out=out)
        assert result is out
        assert np.array_equal(out, one_row(coeffs, chunks))

    def test_one_row_out_is_overwritten_not_accumulated(self):
        out = np.full((1, len(self.chunk)), 0xFF, dtype=np.uint8)
        one_row([1], [self.chunk], out=out)
        assert np.array_equal(out[0], self.chunk)

    def test_one_row_out_bad_buffer_raises(self):
        with pytest.raises(ValueError):
            one_row([1], [self.chunk], out=np.empty((1, 3), dtype=np.uint8))
