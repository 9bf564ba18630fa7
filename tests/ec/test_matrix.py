"""GF(2^8) matrix algebra: products, inversion, code-matrix builders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ec import gf256, matrix

gf_matrix = lambda r, c: hnp.arrays(  # noqa: E731
    np.uint8, (r, c), elements=st.integers(0, 255)
)


class TestMatmul:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, (4, 4), dtype=np.uint8)
        assert np.array_equal(matrix.matmul(matrix.identity(4), a), a)
        assert np.array_equal(matrix.matmul(a, matrix.identity(4)), a)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            matrix.matmul(np.zeros((2, 3), np.uint8), np.zeros((2, 3), np.uint8))

    def test_known_small_product(self):
        a = np.array([[1, 2]], dtype=np.uint8)
        b = np.array([[3], [4]], dtype=np.uint8)
        expected = gf256.add(gf256.mul(1, 3), gf256.mul(2, 4))
        assert matrix.matmul(a, b)[0, 0] == int(expected)

    @given(gf_matrix(3, 4), gf_matrix(4, 2), gf_matrix(2, 3))
    @settings(max_examples=30, deadline=None)
    def test_associative(self, a, b, c):
        left = matrix.matmul(matrix.matmul(a, b), c)
        right = matrix.matmul(a, matrix.matmul(b, c))
        assert np.array_equal(left, right)

    def test_matvec_chunks_matches_matmul(self):
        rng = np.random.default_rng(1)
        m = rng.integers(0, 256, (3, 5), dtype=np.uint8)
        chunks = rng.integers(0, 256, (5, 7), dtype=np.uint8)
        assert np.array_equal(
            matrix.matvec_chunks(m, chunks), matrix.matmul(m, chunks)
        )

    def test_matvec_chunks_shape_check(self):
        with pytest.raises(ValueError):
            matrix.matvec_chunks(np.zeros((2, 3), np.uint8), np.zeros((4, 5), np.uint8))


class TestInverse:
    def test_identity_inverse(self):
        assert np.array_equal(matrix.inverse(matrix.identity(5)), matrix.identity(5))

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.integers(0, 256, (4, 4), dtype=np.uint8)
            if not matrix.is_invertible(a):
                continue
            inv = matrix.inverse(a)
            assert np.array_equal(matrix.matmul(a, inv), matrix.identity(4))
            assert np.array_equal(matrix.matmul(inv, a), matrix.identity(4))

    def test_singular_raises(self):
        a = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(np.linalg.LinAlgError):
            matrix.inverse(a)

    def test_zero_matrix_singular(self):
        assert not matrix.is_invertible(np.zeros((3, 3), dtype=np.uint8))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            matrix.inverse(np.zeros((2, 3), dtype=np.uint8))

    def test_pivot_swapping(self):
        # leading zero forces a row swap
        a = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        inv = matrix.inverse(a)
        assert np.array_equal(matrix.matmul(a, inv), matrix.identity(2))


class TestConstructions:
    def test_cauchy_all_nonzero(self):
        c = matrix.cauchy(4, 10)
        assert (c != 0).all()

    def test_cauchy_square_submatrices_invertible(self):
        c = matrix.cauchy(4, 4)
        assert matrix.is_invertible(c)
        assert matrix.is_invertible(c[:2, :2])
        assert matrix.is_invertible(c[1:3, 2:4])

    def test_cauchy_size_limit(self):
        with pytest.raises(ValueError):
            matrix.cauchy(200, 100)

    def test_systematic_generator_top_is_identity(self):
        g = matrix.systematic_generator(9, 6)
        assert np.array_equal(g[:6], matrix.identity(6))

    @pytest.mark.parametrize("n,k", [(5, 3), (6, 4), (9, 6), (12, 8), (14, 10)])
    def test_systematic_generator_parity_row_zero_is_xor(self, n, k):
        """The first parity row is all ones (ISA-L's XOR parity); the
        other parity rows are the Cauchy block's, column-scaled."""
        g = matrix.systematic_generator(n, k)
        assert np.array_equal(g[k], np.ones(k, dtype=np.uint8))
        assert (g[k + 1 :] > 1).any(axis=1).all()

    @pytest.mark.parametrize("n,k", [(5, 3), (6, 4), (9, 6), (12, 8), (14, 10)])
    def test_systematic_generator_mds(self, n, k):
        """Every k-subset of rows is invertible (MDS property): all
        C(n, k) of them, 1,001 for (14, 10)."""
        from itertools import combinations

        g = matrix.systematic_generator(n, k)
        for rows in combinations(range(n), k):
            assert matrix.is_invertible(g[list(rows)]), rows

    def test_systematic_generator_bad_params(self):
        with pytest.raises(ValueError):
            matrix.systematic_generator(4, 4)
        with pytest.raises(ValueError):
            matrix.systematic_generator(3, 0)


class TestMatvecChunksOut:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.mat = np.asarray(rng.integers(0, 256, (4, 6)), dtype=np.uint8)
        self.chunks = rng.integers(0, 256, (6, 2048), dtype=np.uint8)

    def test_out_matches_allocating(self):
        out = np.empty((4, 2048), dtype=np.uint8)
        result = matrix.matvec_chunks(self.mat, self.chunks, out=out)
        assert result is out
        assert np.array_equal(out, matrix.matvec_chunks(self.mat, self.chunks))

    def test_out_is_overwritten(self):
        out = np.full((4, 2048), 0xAA, dtype=np.uint8)
        matrix.matvec_chunks(self.mat, self.chunks, out=out)
        assert np.array_equal(out, matrix.matvec_chunks(self.mat, self.chunks))

    def test_bad_out_shape_raises(self):
        with pytest.raises(ValueError):
            matrix.matvec_chunks(
                self.mat, self.chunks, out=np.empty((3, 2048), dtype=np.uint8)
            )

    def test_bad_out_dtype_raises(self):
        with pytest.raises(ValueError):
            matrix.matvec_chunks(
                self.mat, self.chunks, out=np.empty((4, 2048), dtype=np.uint16)
            )
