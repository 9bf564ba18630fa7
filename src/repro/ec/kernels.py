"""High-throughput blocked GF(2^8) kernels: nibble tables, fused gathers.

This module is the data plane behind the ``fused`` backend of
:mod:`repro.ec.backend`.  The naive kernels in :mod:`repro.ec.gf256`
perform one 256-entry table gather per (coefficient, chunk) pair — one
gathered byte per input byte — which tops out a few hundred MB/s in
numpy because the per-element gather cost dominates.  The kernels here
restructure the work around three ideas:

**Split-nibble table construction.**  Multiplication by a constant ``c``
is GF(2)-linear, so it splits over the high/low 4-bit nibbles of the
input byte: ``c*b == c*(b & 0x0F) ^ c*(b & 0xF0)``.  Every lookup table
in this module is composed from the two 16-entry nibble tables
(:func:`nibble_tables`) by XOR outer products — first into the 256-entry
byte row (:func:`coeff_row`), then into the 65536-entry *pair-product*
table (:func:`pair_table`)::

    PAIR[b0 | b1 << 8] = c*b0 | (c*b1) << 8        (uint16)

A pair table maps one little-endian ``uint16`` load — two adjacent
payload bytes — to both products in a single gather, halving the number
of gather operations per byte.

**Fused multi-row tables.**  An RS encode/decode computes ``m`` output
rows from the same ``p`` input chunks.  For each input column the pair
tables of up to four rows are packed into one wide-value table
(:func:`fused_tables`)::

    FUSED[v] = PAIR_r0[v] | PAIR_r1[v] << 16 | PAIR_r2[v] << 32 | ...

so a single gather yields two input bytes times four output rows — eight
GF multiplies per gathered element.  Accumulation happens in the packed
domain (one wide XOR per column) and the rows are unpacked once per
segment at the end.

**Blocking.**  All kernels walk the chunk in segments of
:data:`SEGMENT_PAIRS` uint16 elements (128 KiB of payload), so the
per-segment scratch — widened index, gather destination, packed
accumulators — is ~1.75 MiB whatever the chunk size.  It lives in a
reusable :class:`Workspace` (thread-local by default), making
steady-state encode/decode allocation-free.  Why the block is this
size is the :data:`SEGMENT_PAIRS` note.

All kernels are byte-identical to the :mod:`repro.ec.gf256` reference —
the property suite in ``tests/ec/test_backends.py`` proves it across
random coefficients, odd lengths and aliasing edge cases.
"""

from __future__ import annotations

import threading

import numpy as np

from . import gf256

#: uint16 elements (= 2 input bytes each) processed per cache block.
#: Timed on a 4x10 fused matmul at 1-64 MiB against a 2 MiB block
#: (``1 << 20``, 8 MiB scratch arrays): in a fresh process, where those
#: arrays are new mmaps, this block took 0.99-1.11x its time; once the
#: process had freed a few large arrays, so that glibc served them from
#: the heap, the 2 MiB block ran 1.7-3.3x slower than this one, which
#: stayed within 0.74-1.55x of its own fresh time
#: (``tools/kernel_block_sweep.py``; docs/DATAPLANE.md).
SEGMENT_PAIRS = 1 << 16

#: Fused-table cache budget (bytes).  A (14, 10) decode matrix costs
#: ~12.5 MiB of fused tables, so the default keeps a handful of distinct
#: decode matrices warm alongside the encode generator.
MAX_FUSED_CACHE_BYTES = 96 * 1024 * 1024

_U16 = np.uint16
_U32 = np.uint32
_U64 = np.uint64


# --------------------------------------------------------------------- #
# table construction (split-nibble composition)                         #
# --------------------------------------------------------------------- #

def nibble_tables(coeff: int) -> tuple[np.ndarray, np.ndarray]:
    """The 16-entry low/high nibble product tables of ``coeff``.

    ``lo[x] == coeff * x`` and ``hi[x] == coeff * (x << 4)`` for nibble
    values ``x in [0, 16)``.  These are the primitive tables every other
    lookup structure in this module is composed from.
    """
    c = int(coeff) & 0xFF
    nibbles = np.arange(16, dtype=np.uint8)
    lo = gf256.MUL_TABLE[c, nibbles]
    hi = gf256.MUL_TABLE[c, nibbles << 4]
    return lo.copy(), hi.copy()


def coeff_row(coeff: int) -> np.ndarray:
    """The 256-entry byte-product row ``row[b] = coeff * b``.

    Composed from the nibble tables by an XOR outer product — the
    split-nibble identity ``c*b = c*(b & 0xF0) ^ c*(b & 0x0F)``.
    """
    lo, hi = nibble_tables(coeff)
    return np.bitwise_xor.outer(hi, lo).reshape(256)


def _pair_products(coeff: int) -> np.ndarray:
    """The uint16 pair-product table of ``coeff``, built uncached."""
    row = coeff_row(coeff).astype(_U16)
    return ((row[:, None] << _U16(8)) | row[None, :]).reshape(65536)


_pair_cache: dict[int, np.ndarray] = {}
_table_lock = threading.Lock()


def pair_table(coeff: int) -> np.ndarray:
    """The 65536-entry uint16 pair-product table of ``coeff`` (cached).

    ``PAIR[b0 | b1 << 8] = (coeff*b0) | (coeff*b1) << 8``: indexing it
    with the little-endian uint16 view of a payload multiplies two
    adjacent bytes in one gather.  At most 256 tables exist (128 KiB
    each), so the cache is never evicted.
    """
    c = int(coeff) & 0xFF
    table = _pair_cache.get(c)
    if table is None:
        with _table_lock:
            table = _pair_cache.get(c)
            if table is None:
                table = _pair_products(c)
                table.setflags(write=False)
                _pair_cache[c] = table
    return table


def _group_dtype(width: int) -> tuple[np.dtype, int]:
    """(packed dtype, uint16 words per element) for a row group."""
    if width == 1:
        return np.dtype(_U16), 1
    if width == 2:
        return np.dtype(_U32), 2
    return np.dtype(_U64), 4


def _gather_cost(*runs: int) -> tuple[int, int]:
    """(gathers, uint16 words gathered) per input pair when runs of rows
    of these lengths are fused: :class:`FusedTables` packs each run four
    rows to a group."""
    widths = [min(4, rows - s) for rows in runs for s in range(0, rows, 4)]
    return len(widths), sum(_group_dtype(w)[1] for w in widths)


class FusedTables:
    """Packed multi-row gather tables for one coefficient matrix.

    ``groups`` is a list of ``(row_start, width, dtype, tables)`` tuples
    where ``tables[l]`` is the wide-value pair table fusing rows
    ``row_start .. row_start+width`` of input column ``l``.  Columns
    whose coefficients are all zero within a group carry ``None``.
    """

    __slots__ = ("groups", "nbytes")

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.uint8)
        m, p = matrix.shape
        self.groups: list[tuple[int, int, np.dtype, list[np.ndarray | None]]] = []
        self.nbytes = 0
        for start in range(0, m, 4):
            width = min(4, m - start)
            dtype, _words = _group_dtype(width)
            tables: list[np.ndarray | None] = []
            for l in range(p):
                coeffs = matrix[start : start + width, l]
                if not coeffs.any():
                    tables.append(None)
                    continue
                if width == 1:
                    # single row: the shared pair table IS the fused table
                    tables.append(pair_table(int(coeffs[0])))
                    continue
                # a gather reads only the packed table: caching the rows'
                # pair tables would keep 128 KiB per distinct coefficient
                packed = np.zeros(65536, dtype=dtype)
                for j, c in enumerate(coeffs):
                    if c:
                        packed |= _pair_products(int(c)).astype(dtype) << dtype.type(16 * j)
                packed.setflags(write=False)
                tables.append(packed)
                self.nbytes += packed.nbytes
            self.groups.append((start, width, dtype, tables))


_fused_cache: dict[bytes, FusedTables] = {}
_fused_cache_bytes = 0


def fused_tables(matrix: np.ndarray) -> FusedTables:
    """Build (or fetch) the fused row-group tables for ``matrix``.

    Cached by matrix content with LRU eviction bounded by
    :data:`MAX_FUSED_CACHE_BYTES` — steady-state encode (one generator
    matrix) and repeated decodes against the same helper sets never
    rebuild.
    """
    global _fused_cache_bytes
    matrix = np.asarray(matrix, dtype=np.uint8)
    key = matrix.shape[0].to_bytes(2, "big") + matrix.tobytes()
    with _table_lock:
        cached = _fused_cache.pop(key, None)
        if cached is not None:
            _fused_cache[key] = cached  # re-insert: most recently used
            return cached
    built = FusedTables(matrix)
    with _table_lock:
        _fused_cache[key] = built
        _fused_cache_bytes += built.nbytes
        while _fused_cache_bytes > MAX_FUSED_CACHE_BYTES and len(_fused_cache) > 1:
            oldest_key = next(iter(_fused_cache))
            _fused_cache_bytes -= _fused_cache.pop(oldest_key).nbytes
    return built


def clear_table_caches() -> None:
    """Drop all cached tables (tests / memory-pressure hook)."""
    global _fused_cache_bytes
    with _table_lock:
        _pair_cache.clear()
        _fused_cache.clear()
        _fused_cache_bytes = 0


# --------------------------------------------------------------------- #
# workspace                                                             #
# --------------------------------------------------------------------- #

class Workspace:
    """Reusable per-thread scratch for the blocked kernels.

    Holds the widened gather index, the packed gather destination, one
    packed accumulator per row group and the unpack staging buffer.
    Steady-state kernels allocate nothing once a workspace is warm.
    """

    __slots__ = ("idx", "val", "accs", "tmp16", "pairbuf")

    def __init__(self) -> None:
        n = SEGMENT_PAIRS
        self.idx = np.empty(n, dtype=np.intp)
        self.val = np.empty(n, dtype=_U64)
        self.accs: dict[int, np.ndarray] = {}
        self.tmp16 = np.empty(n, dtype=_U16)
        self.pairbuf = np.empty(2 * n, dtype=np.uint8)

    def acc(self, group: int) -> np.ndarray:
        buf = self.accs.get(group)
        if buf is None:
            buf = np.empty(SEGMENT_PAIRS, dtype=_U64)
            self.accs[group] = buf
        return buf


_tls = threading.local()


def _workspace() -> Workspace:
    ws = getattr(_tls, "ws", None)
    if ws is None:
        ws = _tls.ws = Workspace()
    return ws


def _pairs_view(chunk: np.ndarray) -> np.ndarray | None:
    """uint16 view of a chunk's even-length prefix, if representable.

    Chunks that are non-contiguous or start at an odd address (slices of
    larger buffers) return ``None`` and take the copy-per-segment path.
    """
    if not chunk.flags.c_contiguous:
        return None
    pairs = chunk[: chunk.shape[0] & ~1].view(_U16)
    return pairs if pairs.flags.aligned else None


def _check_no_overlap(out: np.ndarray, chunks, what: str) -> None:
    for c in chunks:
        if np.shares_memory(out, c):
            raise ValueError(f"{what} must not alias any input chunk")


# --------------------------------------------------------------------- #
# blocked kernels                                                       #
# --------------------------------------------------------------------- #

def fused_matmul(
    matrix: np.ndarray,
    chunks,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Blocked fused GF matrix x chunks product — the fast matvec.

    Parameters
    ----------
    matrix:
        (m, p) uint8 coefficient matrix.
    chunks:
        (p, L) uint8 array or sequence of p equal-length 1-D uint8
        arrays (a sequence avoids the stack copy for callers holding
        separate chunk buffers).
    out:
        Optional (m, L) uint8 result buffer; must not alias any input.

    Returns the (m, L) result, byte-identical to
    :func:`repro.ec.matrix.matvec_chunks`.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    m, p = matrix.shape
    if isinstance(chunks, np.ndarray) and chunks.ndim == 2:
        chunk_list = [chunks[i] for i in range(chunks.shape[0])]
    else:
        chunk_list = [np.asarray(c) for c in chunks]
    if len(chunk_list) != p:
        raise ValueError(f"expected {p} chunks, got {len(chunk_list)}")
    for c in chunk_list:
        if c.dtype != np.uint8 or c.ndim != 1:
            raise ValueError("chunks must be 1-D uint8 arrays")
    length = chunk_list[0].shape[0] if chunk_list else 0
    for c in chunk_list[1:]:
        if c.shape[0] != length:
            raise ValueError("all chunks must have the same length")
    if out is None:
        out = np.empty((m, length), dtype=np.uint8)
    else:
        if out.shape != (m, length) or out.dtype != np.uint8:
            raise ValueError(
                f"out must be a uint8 array of shape {(m, length)}, got "
                f"{out.dtype} {out.shape}"
            )
        _check_no_overlap(out, chunk_list, "out")
    if length == 0 or m == 0:  # covers p == 0: no chunks, so no length
        out[...] = 0
        return out

    # Rows whose coefficients are all 0/1 are copies and XOR folds — a
    # systematic decode matrix is mostly identity rows, and routing them
    # through the gather tables would run memcpy-speed work at gather
    # speed (~2.5x slower).  Peel them off only when the dense rows left
    # then gather less per input pair (a gather fewer, or as many but
    # narrower): an all-ones parity row beside three dense rows rides the
    # spare lane of their uint64 group for free, where peeling it would
    # add a copy and p - 1 XOR passes to unchanged gathers.
    is_dense = (matrix > 1).any(axis=1)
    dense = np.flatnonzero(is_dense)
    runs = np.split(dense, np.flatnonzero(np.diff(dense) > 1) + 1) if dense.size else []
    if _gather_cost(*map(len, runs)) < _gather_cost(m):
        for r in np.flatnonzero(~is_dense):
            row_out = out[r]
            ones = np.flatnonzero(matrix[r])
            if ones.size == 0:
                row_out[...] = 0
                continue
            np.copyto(row_out, chunk_list[ones[0]])
            for l in ones[1:]:
                np.bitwise_xor(row_out, chunk_list[l], out=row_out)
        for run in runs:  # maximal contiguous runs keep views
            a, b = run[0], run[-1] + 1
            fused_matmul(matrix[a:b], chunk_list, out[a:b])
        return out

    tables = fused_tables(matrix)

    ws = _workspace()
    idx, val, tmp16, pairbuf = ws.idx, ws.val, ws.tmp16, ws.pairbuf
    half = length // 2
    pair_views = [_pairs_view(c) for c in chunk_list]
    seg = SEGMENT_PAIRS

    for s in range(0, half, seg):
        e = min(s + seg, half)
        n = e - s
        fresh = [True] * len(tables.groups)
        for l in range(p):
            pv = pair_views[l]
            if pv is not None:
                src = pv[s:e]
            else:
                # unaligned / non-contiguous chunk: stage the segment
                pairbuf[: 2 * n] = chunk_list[l][2 * s : 2 * e]
                src = pairbuf[: 2 * n].view(_U16)
            widened = False
            for g, (start, width, dtype, col_tables) in enumerate(tables.groups):
                table = col_tables[l]
                if table is None:
                    continue
                if not widened:
                    idx[:n] = src  # one widen, shared by every row group
                    widened = True
                acc = ws.acc(g) if dtype == _U64 else ws.acc(g).view(dtype)
                if fresh[g]:
                    # first contributing column: gather straight into the
                    # accumulator, skipping a block-sized copy
                    np.take(table, idx[:n], out=acc[:n], mode="clip")
                    fresh[g] = False
                else:
                    dst = val[:n] if dtype == _U64 else val.view(dtype)[:n]
                    np.take(table, idx[:n], out=dst, mode="clip")
                    np.bitwise_xor(acc[:n], dst, out=acc[:n])
        for g, (start, width, dtype, _col_tables) in enumerate(tables.groups):
            if fresh[g]:
                out[start : start + width, 2 * s : 2 * e] = 0
                continue
            _words = {1: 1, 2: 2}.get(width, 4)
            acc16 = ws.acc(g).view(_U16)[: n * _words].reshape(n, _words)
            for j in range(width):
                row = out[start + j, 2 * s : 2 * e]
                if row.flags["C_CONTIGUOUS"] and not row.ctypes.data & 1:
                    # unpack straight into the output row's uint16 view
                    np.copyto(row.view(_U16), acc16[:, j])
                else:
                    np.copyto(tmp16[:n], acc16[:, j])
                    row[...] = tmp16[:n].view(np.uint8)[: 2 * n]

    if length & 1:  # odd tail byte: scalar-ish gather over the matrix
        last = np.array([c[-1] for c in chunk_list], dtype=np.uint8)
        products = gf256.MUL_TABLE[matrix, last[None, :]]
        out[:, -1] = np.bitwise_xor.reduce(products, axis=1)
    return out


def mul_chunk_blocked(
    coeff: int,
    chunk: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Pair-table scalar x chunk product (:func:`gf256.mul_chunk` twin).

    When the chunk and the output both start at even addresses and are
    contiguous, the pairs are gathered from :func:`pair_table` straight
    into the output's ``uint16`` view, one segment of
    :data:`SEGMENT_PAIRS` at a time through the workspace's index
    buffer: no 1 x 1 matrix, fused-table lookup, packed accumulator or
    unpack copy.  Anything else takes :func:`fused_matmul`.
    """
    chunk = np.asarray(chunk)
    if chunk.dtype != np.uint8 or chunk.ndim != 1:
        raise ValueError("chunk must be a 1-D uint8 array")
    c = int(coeff) & 0xFF
    if out is None:
        if c == 0:
            return np.zeros_like(chunk)
        if c == 1:
            return chunk.copy()
        out = np.empty_like(chunk)
    else:
        if out.shape != chunk.shape or out.dtype != np.uint8:
            raise ValueError("out must match the chunk's shape with dtype uint8")
        if np.shares_memory(out, chunk):
            raise ValueError("out must not alias chunk")
        if c == 0:
            out[...] = 0
            return out
        if c == 1:
            np.copyto(out, chunk)
            return out
    src = _pairs_view(chunk)
    dst = _pairs_view(out)
    if src is None or dst is None:
        return fused_matmul(np.array([[c]], dtype=np.uint8), [chunk], out[None, :])[0]
    table = pair_table(c)
    idx = _workspace().idx
    half = len(src)
    for s in range(0, half, SEGMENT_PAIRS):
        e = min(s + SEGMENT_PAIRS, half)
        n = e - s
        idx[:n] = src[s:e]
        np.take(table, idx[:n], out=dst[s:e], mode="clip")
    if len(chunk) & 1:
        out[-1] = gf256.MUL_TABLE[c, chunk[-1]]
    return out
