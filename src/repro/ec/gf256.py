"""Vectorised arithmetic over the Galois field GF(2^8).

Reed-Solomon coding (and therefore every repair pipeline in this library)
performs all chunk arithmetic in GF(2^8): addition is bitwise XOR and
multiplication is carried out through discrete log/antilog tables built
from a primitive element of the field.  The tables are built once at import
time and every operation is exposed both element-wise (for clarity in
tests) and as vectorised numpy kernels (for encoding/repairing real chunk
payloads at speed, per the "vectorise the inner loop" guidance for
HPC Python).

The field is constructed modulo the AES polynomial
``x^8 + x^4 + x^3 + x + 1`` (0x11B) with generator 3, the same construction
used by ISA-L and jerasure, so coefficients are interoperable with common
storage stacks.
"""

from __future__ import annotations

import numpy as np

#: The irreducible polynomial defining GF(2^8), in integer form (0x11B).
PRIMITIVE_POLY = 0x11B

#: A generator (primitive element) of the multiplicative group.
GENERATOR = 3

#: Field order.
ORDER = 256


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build the antilog (exp) and log tables for the field.

    ``exp[i] = g**i`` for ``i`` in ``[0, 510)`` (doubled so products of two
    logs never need a modular reduction), and ``log[exp[i]] = i`` for
    ``i < 255``.  ``log[0]`` is set to a sentinel that is never read by the
    checked public API.
    """
    exp = np.zeros(510, dtype=np.int32)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by GENERATOR using carry-less shift-and-add
        y, g, acc = x, GENERATOR, 0
        while g:
            if g & 1:
                acc ^= y
            y <<= 1
            if y & 0x100:
                y ^= PRIMITIVE_POLY
            g >>= 1
        x = acc
    exp[255:510] = exp[0:255]
    log[0] = -1  # sentinel: log of zero is undefined
    return exp, log


EXP_TABLE, LOG_TABLE = _build_tables()

# 64 KiB full multiplication table: MUL_TABLE[a, b] = a*b in GF(2^8).
# Used for the hottest chunk kernels (one gather instead of three).
_a = np.arange(256, dtype=np.int32)
_nz = _a[1:]
MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
MUL_TABLE[1:, 1:] = EXP_TABLE[
    (LOG_TABLE[_nz][:, None] + LOG_TABLE[_nz][None, :]) % 255
].astype(np.uint8)

#: INV_TABLE[a] = a**-1; INV_TABLE[0] = 0 (never read by checked API).
INV_TABLE = np.zeros(256, dtype=np.uint8)
INV_TABLE[1:] = EXP_TABLE[(255 - LOG_TABLE[_nz]) % 255].astype(np.uint8)
del _a, _nz


def add(a, b):
    """Field addition (== subtraction): bitwise XOR.

    Accepts scalars or numpy arrays (broadcasting applies); returns the
    same shape with dtype ``uint8``.
    """
    return np.bitwise_xor(np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8))


#: Field subtraction is identical to addition in characteristic 2.
sub = add


def mul(a, b):
    """Field multiplication of scalars or arrays (broadcasting applies)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    return MUL_TABLE[a, b]


def div(a, b):
    """Field division ``a / b``.

    Raises
    ------
    ZeroDivisionError
        If any element of ``b`` is zero.
    """
    b = np.asarray(b, dtype=np.uint8)
    if np.any(b == 0):
        raise ZeroDivisionError("division by zero in GF(2^8)")
    return MUL_TABLE[np.asarray(a, dtype=np.uint8), INV_TABLE[b]]


def inv(a):
    """Multiplicative inverse of scalars or arrays.

    Raises
    ------
    ZeroDivisionError
        If any element is zero.
    """
    a = np.asarray(a, dtype=np.uint8)
    if np.any(a == 0):
        raise ZeroDivisionError("zero has no inverse in GF(2^8)")
    return INV_TABLE[a]


def power(a, e: int):
    """Field exponentiation ``a ** e`` for a non-negative integer ``e``.

    ``a ** 0 == 1`` for every ``a`` including zero (empty product), matching
    the convention used when building Vandermonde matrices.
    """
    if e < 0:
        raise ValueError("negative exponents are not supported; use inv()")
    arr = np.asarray(a, dtype=np.uint8)
    scalar_input = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if e == 0:
        out = np.ones_like(arr)
    else:
        out = np.zeros_like(arr)
        nz = arr != 0
        logs = (LOG_TABLE[arr[nz]].astype(np.int64) * e) % 255
        out[nz] = EXP_TABLE[logs].astype(np.uint8)
    return out[0] if scalar_input else out


def mul_chunk(coeff: int, chunk: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Multiply every byte of ``chunk`` by the scalar ``coeff``.

    This is the data-plane kernel used by encoding and pipelined repair:
    a single table gather over the chunk (no Python-level loop).  With
    ``out`` given the gather writes into it directly (no allocation) —
    ``out`` must have the chunk's shape and dtype ``uint8`` and may not
    alias ``chunk``.
    """
    chunk = np.asarray(chunk, dtype=np.uint8)
    c = int(coeff) & 0xFF
    if out is None:
        if c == 0:
            return np.zeros_like(chunk)
        if c == 1:
            return chunk.copy()
        return MUL_TABLE[c][chunk]
    if out.shape != chunk.shape or out.dtype != np.uint8:
        raise ValueError("out must match the chunk's shape with dtype uint8")
    if c == 0:
        out[...] = 0
    elif c == 1:
        out[...] = chunk
    else:
        np.take(MUL_TABLE[c], chunk, out=out)
    return out
