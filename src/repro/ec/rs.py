"""Systematic (n, k) Reed-Solomon codes over GF(2^8).

An :class:`RSCode` encodes k data chunks into an n-chunk stripe, decodes the
originals back from *any* k surviving chunks, and — the operation this whole
library revolves around — produces the **repair coefficients** that express
one lost chunk as a GF linear combination of k helper chunks.  The linearity
of that combination is what makes repair *pipelinable*: partial sums computed
at intermediate nodes are the same size as the original slices, so they can
be streamed hop by hop (paper §II-A/§II-B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend as ec_backend
from . import matrix


@dataclass(frozen=True)
class RepairEquation:
    """A single-chunk repair recipe: ``lost = sum_i coeffs[i] * chunks[helpers[i]]``.

    Attributes
    ----------
    lost:
        Index (0-based, stripe-wide) of the chunk being rebuilt.
    helpers:
        Tuple of k distinct stripe indices supplying data.
    coeffs:
        Field coefficients aligned with ``helpers``; all non-zero.
    """

    lost: int
    helpers: tuple[int, ...]
    coeffs: tuple[int, ...]

    def evaluate(
        self,
        chunks: dict[int, np.ndarray],
        *,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """Rebuild the lost chunk from a ``{stripe_index: chunk}`` mapping.

        ``out``/``scratch`` are reused caller buffers (chunk shape,
        uint8).
        """
        missing = [h for h in self.helpers if h not in chunks]
        if missing:
            raise KeyError(f"helper chunks missing from input: {missing}")
        return ec_backend.get_backend().dot(
            self.coeffs,
            [chunks[h] for h in self.helpers],
            out=out,
            scratch=scratch,
        )


class RSCode:
    """A systematic (n, k) Reed-Solomon code.

    Parameters
    ----------
    n:
        Total chunks per stripe (data + parity).
    k:
        Data chunks per stripe.  Any k of the n chunks reconstruct the data.
    construction:
        Parity construction passed to
        :func:`repro.ec.matrix.systematic_generator`.

    Chunk-sized arithmetic goes to :func:`repro.ec.backend.get_backend`
    at each call, so a test's ``use_backend`` scope applies to codes
    built outside it.
    """

    #: Max distinct (lost, helper-set) entries memoised per code instance.
    CACHE_LIMIT = 1024

    def __init__(self, n: int, k: int, *, construction: str = "cauchy") -> None:
        if not (0 < k < n):
            raise ValueError(f"require 0 < k < n, got n={n} k={k}")
        if n > 255:
            raise ValueError("GF(2^8) RS codes support n <= 255")
        self.n = int(n)
        self.k = int(k)
        self.generator = matrix.systematic_generator(n, k, construction=construction)
        # repair equations involve a k x k inversion; schedulers ask for
        # the same (lost, helpers) combination once per elementary
        # pipeline, so memoise (bounded FIFO eviction)
        self._equation_cache: dict[tuple[int, tuple[int, ...]], RepairEquation] = {}
        # decode matrices are likewise memoised per surviving index set
        self._decode_cache: dict[tuple[int, ...], np.ndarray] = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RSCode(n={self.n}, k={self.k})"

    # ------------------------------------------------------------------ #
    # whole-stripe operations                                            #
    # ------------------------------------------------------------------ #

    def encode(
        self, data_chunks: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Encode k data chunks into the full n-chunk stripe.

        ``data_chunks`` is a (k, L) uint8 array; returns (n, L).  Rows
        ``0..k-1`` of the result equal the input (systematic code); only
        the parity rows are computed (:meth:`parity`).
        ``out`` (an (n, L) uint8 buffer) makes steady-state encoding
        allocation-free.
        """
        data_chunks = self._data_array(data_chunks)
        length = data_chunks.shape[1]
        if out is None:
            out = np.empty((self.n, length), dtype=np.uint8)
        elif out.shape != (self.n, length) or out.dtype != np.uint8:
            raise ValueError(
                f"out must be a uint8 array of shape {(self.n, length)}"
            )
        np.copyto(out[: self.k], data_chunks)
        self.parity(out[: self.k], out=out[self.k :])
        return out

    def parity(
        self, data_chunks: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The n - k parity chunks of k data chunks, on the EC data plane.

        ``data_chunks`` is a (k, L) uint8 array; returns (n - k, L).
        The computed half of :meth:`encode`, for a caller that already
        holds the data rows and needs no second copy of them.  ``out``
        is an (n - k, L) uint8 buffer that must not alias the input.
        """
        return ec_backend.get_backend().matmul_chunks(
            self.generator[self.k :], self._data_array(data_chunks), out=out
        )

    def _data_array(self, data_chunks: np.ndarray) -> np.ndarray:
        data_chunks = np.asarray(data_chunks, dtype=np.uint8)
        if data_chunks.ndim != 2 or data_chunks.shape[0] != self.k:
            raise ValueError(
                f"expected (k={self.k}, L) data array, got {data_chunks.shape}"
            )
        return data_chunks

    def decode(
        self,
        available: dict[int, np.ndarray] | None = None,
        *,
        out: np.ndarray | None = None,
        **kwargs,
    ) -> np.ndarray:
        """Reconstruct the k data chunks from any k available stripe chunks.

        Parameters
        ----------
        available:
            Mapping from stripe index to chunk payload with at least k
            entries.
        out:
            Optional (k, L) uint8 result buffer (no allocation in the
            steady state; must not alias the input chunks).

        Returns
        -------
        (k, L) array of the original data chunks.
        """
        if available is None:
            available = kwargs
        if len(available) < self.k:
            raise ValueError(
                f"need at least k={self.k} chunks to decode, got {len(available)}"
            )
        indices = tuple(sorted(available)[: self.k])
        decode_matrix = self._decode_cache.get(indices)
        if decode_matrix is None:
            decode_matrix = matrix.inverse(self.generator[list(indices)])
            if len(self._decode_cache) >= self.CACHE_LIMIT:
                self._decode_cache.pop(next(iter(self._decode_cache)))
            self._decode_cache[indices] = decode_matrix
        chunks = [np.asarray(available[i], dtype=np.uint8) for i in indices]
        return ec_backend.get_backend().matmul_chunks(decode_matrix, chunks, out=out)

    # ------------------------------------------------------------------ #
    # single-chunk repair                                                #
    # ------------------------------------------------------------------ #

    def repair_equation(
        self, lost: int, helpers: tuple[int, ...] | list[int] | None = None
    ) -> RepairEquation:
        """Compute the linear combination that rebuilds chunk ``lost``.

        Parameters
        ----------
        lost:
            Stripe index of the failed chunk.
        helpers:
            Exactly k surviving stripe indices to draw from.  Defaults to
            the k lowest surviving indices.

        Returns
        -------
        RepairEquation
            With all-nonzero coefficients (helpers whose coefficient would
            be zero are rejected — the caller should pick a different set).
        """
        if not 0 <= lost < self.n:
            raise ValueError(f"lost index {lost} out of range [0, {self.n})")
        if helpers is None:
            helpers = [i for i in range(self.n) if i != lost][: self.k]
        helpers = tuple(int(h) for h in helpers)
        if len(helpers) != self.k:
            raise ValueError(f"need exactly k={self.k} helpers, got {len(helpers)}")
        if len(set(helpers)) != self.k or lost in helpers:
            raise ValueError("helpers must be distinct and exclude the lost chunk")
        cached = self._equation_cache.get((lost, helpers))
        if cached is not None:
            return cached
        # Decode matrix for the helper set expresses each *data* chunk as a
        # combination of helper chunks; the lost row of G times that matrix
        # expresses the lost chunk itself.
        sub = self.generator[list(helpers)]
        decode_matrix = matrix.inverse(sub)  # (k, k): data from helpers
        lost_row = self.generator[lost][None, :]  # (1, k): lost from data
        coeffs = matrix.matmul(lost_row, decode_matrix)[0]
        if np.any(coeffs == 0):
            raise ValueError(
                f"helper set {helpers} gives a zero coefficient for chunk {lost}; "
                "choose a different helper set"
            )
        equation = RepairEquation(
            lost=lost, helpers=helpers, coeffs=tuple(int(c) for c in coeffs)
        )
        if len(self._equation_cache) >= self.CACHE_LIMIT:
            self._equation_cache.pop(next(iter(self._equation_cache)))
        self._equation_cache[(lost, helpers)] = equation
        return equation

    def repair(
        self,
        lost: int,
        available: dict[int, np.ndarray],
        *,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """Rebuild chunk ``lost`` from any k chunks in ``available``.

        ``out``/``scratch`` are optional reusable chunk-shaped uint8
        buffers forwarded to :meth:`RepairEquation.evaluate`.
        """
        helpers = tuple(sorted(i for i in available if i != lost)[: self.k])
        eq = self.repair_equation(lost, helpers)
        return eq.evaluate(available, out=out, scratch=scratch)

    def verify_stripe(self, stripe: np.ndarray) -> bool:
        """True if an (n, L) stripe is a valid codeword of this code."""
        stripe = np.asarray(stripe, dtype=np.uint8)
        if stripe.ndim != 2 or stripe.shape[0] != self.n:
            raise ValueError(f"expected (n={self.n}, L) stripe, got {stripe.shape}")
        reencoded = self.encode(stripe[: self.k])
        return bool(np.array_equal(reencoded, stripe))
