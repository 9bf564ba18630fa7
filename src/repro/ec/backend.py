"""The GF(2^8) data plane: one fast implementation and its oracle.

Every chunk-sized GF operation in the library goes through the object
:func:`get_backend` returns, as one of two operations: ``matmul_chunks``
(a coefficient matrix times chunks: encode, decode, the post-repair
audit and the one-row repair combination) and ``mul_chunk`` (one
coefficient times one chunk: datanode segment scaling).  There are two
backends:

``fused``
    What runs.  Pair-product tables plus fused multi-row gather tables
    (:mod:`repro.ec.kernels`): one gather covers two payload bytes times
    up to four output rows, with blocked segments and packed
    accumulators.
``naive``
    The reference kernels of :mod:`repro.ec.gf256` /
    :mod:`repro.ec.matrix`: one 256-entry gather per (coefficient,
    chunk).  Never selected by library code; it is the oracle the
    equivalence tests and the speed-ratio gates of
    ``tests/ec/test_speed_ratios.py`` compare against.

The two are byte-identical by construction (GF arithmetic is exact);
``tests/ec/test_backends.py`` proves it property-style and
``tests/cluster/test_backend_oracle.py`` proves it for whole repairs.
:func:`use_backend` is the only selection seam: a scoped substitution
that lets a test run the oracle, or a counting fake, under real callers.
There is deliberately no constructor argument, process-wide setter or
startup switch — ``docs/DATAPLANE.md`` ("The oracle seam") records the
measurements behind that.

Tiny payloads take the naive path inside ``fused`` too: below
:data:`MIN_TABLE_BYTES` a blocked kernel's Python-level segment loop
costs more than the single gather it saves.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import gf256, kernels, matrix

#: Payload bytes below which the fused backend defers to naive kernels
#: (the blocked loop has ~µs fixed cost; a 256-entry gather on a few
#: KiB does not).
MIN_TABLE_BYTES = 4096

#: The operations that have a caller in ``src/``: ``mul_chunk`` (the
#: datanode's per-window scaling) and ``matmul_chunks`` (``RSCode``
#: encode / decode / repair and the integrity audit).
_PROTOCOL = ("mul_chunk", "matmul_chunks")


class NaiveBackend:
    """Reference kernels — the seed data plane, kept as oracle."""

    name = "naive"

    def mul_chunk(self, coeff, chunk, out=None):
        return gf256.mul_chunk(coeff, chunk, out=out)

    def matmul_chunks(self, mat, chunks, out=None):
        chunks = np.asarray(chunks, dtype=np.uint8)
        return matrix.matvec_chunks(mat, chunks, out=out)


class FusedBackend:
    """Pair tables + fused multi-row gathers — the data plane that runs."""

    name = "fused"

    def mul_chunk(self, coeff, chunk, out=None):
        chunk = np.asarray(chunk, dtype=np.uint8)
        if chunk.shape[-1] < MIN_TABLE_BYTES:
            return gf256.mul_chunk(coeff, chunk, out=out)
        return kernels.mul_chunk_blocked(coeff, chunk, out=out)

    def matmul_chunks(self, mat, chunks, out=None):
        mat = np.asarray(mat, dtype=np.uint8)
        if isinstance(chunks, np.ndarray) and chunks.ndim == 2:
            chunk_list = [chunks[i] for i in range(chunks.shape[0])]
        else:
            chunk_list = [np.asarray(c, dtype=np.uint8) for c in chunks]
        length = chunk_list[0].shape[0] if chunk_list else 0
        if length < MIN_TABLE_BYTES:
            return matrix.matvec_chunks(mat, np.asarray(chunks), out=out)
        return kernels.fused_matmul(mat, chunk_list, out=out)


_BACKENDS = {"naive": NaiveBackend(), "fused": FusedBackend()}

_current = _BACKENDS["fused"]


def available_backends() -> tuple[str, ...]:
    """The backend names :func:`resolve` accepts: oracle, then fast path."""
    return tuple(_BACKENDS)


def resolve(backend):
    """Coerce a backend name or protocol object into a backend.

    Anything that is not a registered name must itself provide
    ``mul_chunk`` and ``matmul_chunks`` (a test's counting fake, say).
    """
    if isinstance(backend, str):
        instance = _BACKENDS.get(backend)
        if instance is None:
            raise ValueError(
                f"unknown EC backend {backend!r}; "
                f"choose from {', '.join(_BACKENDS)}"
            )
        return instance
    for method in _PROTOCOL:
        if not callable(getattr(backend, method, None)):
            raise TypeError(f"backend object lacks required method {method!r}")
    return backend


def get_backend():
    """The backend every data-plane caller dispatches to (``fused``)."""
    return _current


@contextlib.contextmanager
def use_backend(backend):
    """Run the enclosed block on another backend — the oracle seam.

    The substitution is process-wide for the duration of the block, so
    it belongs in tests and benchmarks, not in library code.
    """
    global _current
    previous, _current = _current, resolve(backend)
    try:
        yield _current
    finally:
        _current = previous
