"""Matrix algebra over GF(2^8) for Reed-Solomon code construction.

Everything operates on 2-D ``uint8`` numpy arrays.  Matrix products are
table-gather + XOR-reduce kernels (no Python inner loops); inversion is
Gauss-Jordan elimination with partial "pivot-nonzero" search, which is exact
over a finite field (no conditioning concerns).
"""

from __future__ import annotations

import numpy as np

from . import gf256


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(2^8) matrix product ``a @ b``.

    ``a`` is (m, p), ``b`` is (p, q); returns (m, q).  The kernel gathers
    the full outer product from the 64 KiB multiplication table and
    XOR-reduces along the shared axis, which vectorises well for the small
    coding matrices used here (p, q <= 32).
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
    # products[i, l, j] = a[i, l] * b[l, j]
    products = gf256.MUL_TABLE[a[:, :, None], b[None, :, :]]
    return np.bitwise_xor.reduce(products, axis=1)


def matvec_chunks(
    matrix: np.ndarray, chunks: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply a coding matrix to a stack of chunks.

    Parameters
    ----------
    matrix:
        (m, p) coefficient matrix.
    chunks:
        (p, L) array — p chunks of L bytes each.
    out:
        Optional pre-allocated (m, L) uint8 result buffer, for callers
        that encode/decode repeatedly with a steady stripe shape.

    Returns
    -------
    (m, L) array of combined chunks (``out`` when given).  This is the
    whole-stripe encode / decode kernel: row ``i`` is
    ``sum_l matrix[i, l] * chunks[l]``.  A single scratch row is reused
    for every coefficient gather, so the kernel allocates nothing beyond
    the result (and nothing at all with ``out``).
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    chunks = np.asarray(chunks, dtype=np.uint8)
    if matrix.ndim != 2 or chunks.ndim != 2 or matrix.shape[1] != chunks.shape[0]:
        raise ValueError(f"incompatible shapes {matrix.shape} x {chunks.shape}")
    m, p = matrix.shape
    length = chunks.shape[1]
    if out is None:
        out = np.zeros((m, length), dtype=np.uint8)
    else:
        if out.shape != (m, length) or out.dtype != np.uint8:
            raise ValueError(
                f"out must be a uint8 array of shape {(m, length)}, got "
                f"{out.dtype} {out.shape}"
            )
        out[...] = 0
    scratch = np.empty(length, dtype=np.uint8)
    for i in range(m):
        acc = out[i]
        for l in range(p):
            c = int(matrix[i, l])
            if c == 1:
                np.bitwise_xor(acc, chunks[l], out=acc)
            elif c:
                np.take(gf256.MUL_TABLE[c], chunks[l], out=scratch)
                np.bitwise_xor(acc, scratch, out=acc)
    return out


def identity(n: int) -> np.ndarray:
    """The n x n identity matrix over GF(2^8)."""
    return np.eye(n, dtype=np.uint8)


def inverse(a: np.ndarray) -> np.ndarray:
    """Invert a square GF(2^8) matrix by Gauss-Jordan elimination.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the matrix is singular.
    """
    a = np.asarray(a, dtype=np.uint8)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    n = a.shape[0]
    work = a.copy()
    out = identity(n)
    for col in range(n):
        # find a row at/below `col` with a nonzero pivot
        pivot_rows = np.nonzero(work[col:, col])[0]
        if pivot_rows.size == 0:
            raise np.linalg.LinAlgError("matrix is singular over GF(2^8)")
        pr = col + int(pivot_rows[0])
        if pr != col:
            work[[col, pr]] = work[[pr, col]]
            out[[col, pr]] = out[[pr, col]]
        pivot_inv = int(gf256.INV_TABLE[work[col, col]])
        work[col] = gf256.MUL_TABLE[pivot_inv][work[col]]
        out[col] = gf256.MUL_TABLE[pivot_inv][out[col]]
        # eliminate the column from every other row
        factors = work[:, col].copy()
        factors[col] = 0
        rows = np.nonzero(factors)[0]
        if rows.size:
            work[rows] ^= gf256.MUL_TABLE[factors[rows, None], work[col][None, :]]
            out[rows] ^= gf256.MUL_TABLE[factors[rows, None], out[col][None, :]]
    return out


def is_invertible(a: np.ndarray) -> bool:
    """True if the square matrix has an inverse over GF(2^8)."""
    try:
        inverse(a)
        return True
    except np.linalg.LinAlgError:
        return False


def cauchy(rows: int, cols: int) -> np.ndarray:
    """Cauchy matrix C[i, j] = 1 / (x_i + y_j) with disjoint x, y sets.

    Every square submatrix of a Cauchy matrix is invertible, which makes it
    the standard choice for the parity block of a systematic RS generator
    matrix (:func:`systematic_generator` scales its columns).
    """
    if rows + cols > 256:
        raise ValueError("rows + cols must be <= 256 for disjoint Cauchy sets")
    x = np.arange(rows, dtype=np.uint8)
    y = np.arange(rows, rows + cols, dtype=np.uint8)
    return gf256.INV_TABLE[x[:, None] ^ y[None, :]]


def systematic_generator(n: int, k: int) -> np.ndarray:
    """Build the (n, k) systematic RS generator matrix.

    The first k rows are the identity (data chunks are stored verbatim);
    the remaining n - k rows are a Cauchy block whose column j is scaled
    by 1 / C[0, j], so the first parity row is all ones: plain XOR
    parity, as in ISA-L's ``gf_gen_rs_matrix``.  Scaling a column by a
    non-zero factor scales the determinant of every square submatrix
    through it, so every k-subset of rows stays invertible (MDS).
    """
    if not (0 < k < n):
        raise ValueError(f"require 0 < k < n, got n={n} k={k}")
    block = cauchy(n - k, k)
    return np.vstack([identity(k), gf256.MUL_TABLE[block, gf256.INV_TABLE[block[0]]]])
