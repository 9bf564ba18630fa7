"""Erasure-coding substrate: GF(2^8), coding matrices, RS codes.

Chunk-sized arithmetic runs on one data plane, the ``fused`` multi-row
gather kernels of :mod:`repro.ec.kernels`, through two operations:
``matmul_chunks`` (every linear combination: encode, decode, repair,
audit) and ``mul_chunk`` (one coefficient times one chunk).  The
``naive`` reference kernels stay as the oracle tests substitute through
:func:`repro.ec.backend.use_backend`.
"""

from . import backend, gf256, kernels, matrix
from .backend import available_backends, get_backend, resolve, use_backend
from .rs import RepairEquation, RSCode

__all__ = [
    "backend",
    "gf256",
    "kernels",
    "matrix",
    "RSCode",
    "RepairEquation",
    "available_backends",
    "get_backend",
    "resolve",
    "use_backend",
]
