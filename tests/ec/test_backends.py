"""Backend equivalence: the fast path is byte-identical to naive.

The fused backend restructures GF(2^8) arithmetic around pair-product
and packed multi-row gather tables; because field arithmetic is exact,
it must agree with the
:mod:`repro.ec.gf256` / :mod:`repro.ec.matrix` reference kernels to the
byte on *every* input — random coefficients (including the 0 and 1 fast
paths), odd lengths, unaligned views, and caller-provided ``out=``
buffers.  Hypothesis drives the small-size property sweep; fixed-seed
tests cover the blocked-kernel sizes the sweep would make slow.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.reproduction import CODES
from repro.ec import RSCode, available_backends, backend as ec_backend
from repro.ec import gf256, kernels, matrix
from repro.ec.backend import MIN_TABLE_BYTES

pytestmark = pytest.mark.ec

FAST_BACKENDS = ("fused",)
BIG = MIN_TABLE_BYTES * 5 + 3  # odd, well above the naive-fallback gate


def _chunks(rng: np.random.Generator, k: int, length: int) -> np.ndarray:
    return rng.integers(0, 256, size=(k, length), dtype=np.uint8)


# --------------------------------------------------------------------- #
# hypothesis property sweep (small sizes, exhaustive edge shapes)       #
# --------------------------------------------------------------------- #

coeff_lists = st.lists(st.integers(0, 255), min_size=1, max_size=6)


@given(
    coeffs=coeff_lists,
    length=st.integers(1, 130),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_one_row_fused_matmul_matches_naive(coeffs, length, seed):
    """A repair equation's product: one output row, any 0/1/dense mix."""
    rng = np.random.default_rng(seed)
    chunks = _chunks(rng, len(coeffs), length)
    row = np.array([coeffs], dtype=np.uint8)
    expected = matrix.matvec_chunks(row, chunks)
    got = kernels.fused_matmul(row, list(chunks))
    assert np.array_equal(expected, got)


@given(
    m=st.integers(1, 7),
    p=st.integers(1, 6),
    length=st.integers(1, 130),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_fused_matmul_matches_naive(m, p, length, seed):
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, 256, size=(m, p), dtype=np.uint8)
    chunks = _chunks(rng, p, length)
    expected = matrix.matvec_chunks(mat, chunks)
    got = kernels.fused_matmul(mat, list(chunks))
    assert np.array_equal(expected, got)


@given(
    coeff=st.integers(0, 255),
    length=st.integers(1, 130),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_mul_chunk_blocked_matches_naive(coeff, length, seed):
    rng = np.random.default_rng(seed)
    chunk = _chunks(rng, 1, length)[0]
    assert np.array_equal(
        gf256.mul_chunk(coeff, chunk), kernels.mul_chunk_blocked(coeff, chunk)
    )


# --------------------------------------------------------------------- #
# blocked-size equivalence (above the naive-fallback gate)              #
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", FAST_BACKENDS)
@pytest.mark.parametrize(
    "rows,length", [("dense", BIG), ("one", BIG), ("one", 2 * MIN_TABLE_BYTES)]
)
def test_backend_matmul_equivalence(name, rows, length):
    rng = np.random.default_rng(12)
    if rows == "dense":
        mat = rng.integers(0, 256, size=(9, 6), dtype=np.uint8)
        mat[2] = 0  # an all-zero output row
        mat[:, 3] = 0  # an all-zero input column
    else:
        # a repair equation's one row, with the 0 / 1 fast paths
        # alongside general coefficients
        mat = np.array([[0, 1, 173, 1, 0, 255]], dtype=np.uint8)
    chunks = _chunks(rng, 6, length)
    expected = matrix.matvec_chunks(mat, chunks)
    be = ec_backend.resolve(name)
    out = np.empty((len(mat), length), dtype=np.uint8)
    got = be.matmul_chunks(mat, chunks, out=out)
    assert got is out
    assert np.array_equal(expected, got)


#: One output row per letter: ``o`` all ones, ``c`` a copy (one 1),
#: ``x`` a 0/1 mix, ``z`` zeros, ``d`` dense (some coefficient > 1) —
#: mapped to the rows ``fused_matmul`` hands its gather tables, one run
#: of rows per comma.  0/1 rows ride the dense rows' groups unless peeling
#: them leaves fewer gathers per input pair, or as many but narrower.
ROW_MIXES = {
    "o": "", "c": "", "z": "", "x": "", "d": "d",
    "od": "d", "dz": "d", "cx": "",
    "oddd": "oddd", "dddo": "dddo", "dodd": "dodd", "dddz": "dddz",
    "oddz": "dd", "cdz": "d", "dxd": "dxd",
    "odddd": "dddd", "dddod": "dddod", "ddddoddd": "ddddoddd",
    "oddddddd": "oddddddd", "dddddddo": "dddddddo", "cozdddd": "dddd",
    "dzdcdod": "dzdcdod", "ddodddddd": "dd,dddddd", "ccccccccd": "d",
    "ooooxxxxz": "",
}


@pytest.mark.parametrize("mix", sorted(ROW_MIXES))
@pytest.mark.parametrize("length", [1, 7, BIG, 2 * kernels.SEGMENT_PAIRS + 3])
def test_fused_matmul_peels_or_rides_0_1_rows(mix, length, monkeypatch):
    rng = np.random.default_rng(len(mix) * 1009 + length)
    p = 5
    rows = {
        "o": lambda: np.ones(p, np.uint8),
        "c": lambda: np.eye(p, dtype=np.uint8)[rng.integers(p)],
        "x": lambda: rng.integers(0, 2, p, dtype=np.uint8),
        "z": lambda: np.zeros(p, np.uint8),
        "d": lambda: rng.integers(2, 256, p, dtype=np.uint8),
    }
    mat = np.array([rows[kind]() for kind in mix], dtype=np.uint8)
    chunks = _chunks(rng, p, length)
    fused = []
    real = kernels.fused_tables
    monkeypatch.setattr(
        kernels, "fused_tables", lambda m: (fused.append(m.copy()), real(m))[1]
    )
    got = kernels.fused_matmul(mat, list(chunks))
    assert np.array_equal(got, matrix.matvec_chunks(mat, chunks))
    # which rows went through the gather tables, by kind and by run
    kinds = {r.tobytes(): kind for r, kind in zip(mat, mix)}
    ran = ",".join("".join(kinds[r.tobytes()] for r in m) for m in fused)
    assert ran == ROW_MIXES[mix]


def _rs_operation(code: RSCode, op: str, data: np.ndarray) -> np.ndarray:
    """One code-level operation of the data plane, on the current backend."""
    stripe = code.encode(data)
    if op == "encode":
        return stripe
    if op == "decode":
        # the lowest n - k data rows are lost, so parity must stand in
        return code.decode({i: stripe[i] for i in range(code.n - code.k, code.n)})
    return code.repair(code.n - 1, {i: stripe[i] for i in range(code.k)})


@pytest.mark.parametrize("op", ["encode", "decode", "repair"])
@pytest.mark.parametrize("n,k", CODES)
def test_rs_operations_agree_across_backends(n, k, op):
    """Every code of the evaluation encodes, decodes from parity and
    repairs a parity chunk to the reference kernels' bytes on every backend."""
    code = RSCode(n, k)
    data = _chunks(np.random.default_rng(n * 100 + k), k, BIG)
    parity = matrix.matvec_chunks(code.generator[k:], data)
    expected = {"encode": np.vstack([data, parity]), "decode": data,
                "repair": parity[-1]}[op]
    for name in ("naive", *FAST_BACKENDS):
        with ec_backend.use_backend(name):
            assert np.array_equal(_rs_operation(code, op, data), expected), name


@pytest.mark.parametrize("name", FAST_BACKENDS)
def test_backend_unaligned_views(name):
    """Odd-offset slices of a larger buffer (no uint16 view) still agree."""
    rng = np.random.default_rng(13)
    backing = rng.integers(0, 256, size=(4, BIG + 7), dtype=np.uint8)
    chunks = [row[3 : 3 + BIG] for row in backing]  # odd start address
    row = np.array([[9, 1, 88, 250]], dtype=np.uint8)
    expected = matrix.matvec_chunks(row, np.stack(chunks))
    got = ec_backend.resolve(name).matmul_chunks(row, chunks)
    assert np.array_equal(expected, got)


@pytest.mark.parametrize("name", FAST_BACKENDS)
def test_out_aliasing_input_rejected(name):
    rng = np.random.default_rng(14)
    chunks = _chunks(rng, 3, BIG)
    be = ec_backend.resolve(name)
    with pytest.raises(ValueError, match="alias"):
        be.matmul_chunks(
            np.array([[5, 6, 7]], dtype=np.uint8), chunks, out=chunks[:1]
        )
    with pytest.raises(ValueError, match="alias"):
        be.matmul_chunks(
            np.full((2, 3), 7, dtype=np.uint8), chunks, out=chunks[:2]
        )
    with pytest.raises(ValueError, match="alias"):
        be.mul_chunk(42, chunks[0], out=chunks[0])


# --------------------------------------------------------------------- #
# the single-coefficient kernel: pair gathers straight into the output  #
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("coeff", [0, 1, 0x53, 255])
@pytest.mark.parametrize("length", [0, 1, 2, BIG, BIG + 1, 2 * 1000 + 1])
@pytest.mark.parametrize("chunk_offset", [0, 1])
@pytest.mark.parametrize("out_offset", [None, 0, 1])
def test_mul_chunk_blocked_matches_the_oracle(
    coeff, length, chunk_offset, out_offset, monkeypatch
):
    """Even and odd lengths and addresses of input and output, across
    segment boundaries (``SEGMENT_PAIRS`` shrunk to 1000 pairs)."""
    monkeypatch.setattr(kernels, "SEGMENT_PAIRS", 1000)
    rng = np.random.default_rng(length + 7 * chunk_offset)
    chunk = rng.integers(0, 256, length + 1, dtype=np.uint8)[chunk_offset:][:length]
    expected = ec_backend.NaiveBackend().mul_chunk(coeff, chunk)
    out = None
    if out_offset is not None:
        out = np.full(length + 1, 0xAA, dtype=np.uint8)[out_offset:][:length]
    got = kernels.mul_chunk_blocked(coeff, chunk, out=out)
    assert np.array_equal(got, expected)
    assert out is None or np.array_equal(out, expected)


def test_strided_inputs_take_the_staged_path():
    """A non-contiguous chunk has no ``uint16`` view: it is staged per
    segment, and the result still matches the oracle."""
    rng = np.random.default_rng(15)
    backing = rng.integers(0, 256, size=(3, 2 * BIG), dtype=np.uint8)
    strided = [row[::2] for row in backing]
    assert kernels._pairs_view(strided[0]) is None
    naive = ec_backend.NaiveBackend()
    assert np.array_equal(
        kernels.mul_chunk_blocked(0x53, strided[0]), naive.mul_chunk(0x53, strided[0])
    )
    mat = rng.integers(2, 256, size=(2, 3), dtype=np.uint8)
    assert np.array_equal(
        kernels.fused_matmul(mat, strided), naive.matmul_chunks(mat, strided)
    )


def test_mul_chunk_blocked_gathers_aligned_inputs_without_the_matrix_path(
    monkeypatch,
):
    rng = np.random.default_rng(5)
    backing = rng.integers(0, 256, BIG + 1, dtype=np.uint8)
    fused = []
    real = kernels.fused_matmul
    monkeypatch.setattr(
        kernels, "fused_matmul",
        lambda *a, **k: (fused.append(1), real(*a, **k))[1],
    )
    kernels.mul_chunk_blocked(0x53, backing[:BIG])
    assert fused == []  # even address: one pair gather per pair
    kernels.mul_chunk_blocked(0x53, backing[1:])
    assert fused == [1]  # odd address: the staged matrix path


def test_mul_chunk_blocked_refuses_overlapping_out():
    buf = np.random.default_rng(6).integers(0, 256, BIG + 2, dtype=np.uint8)
    for out in (buf[:BIG], buf[1 : BIG + 1], buf[2 : BIG + 2]):
        with pytest.raises(ValueError, match="alias"):
            kernels.mul_chunk_blocked(0x53, buf[:BIG], out=out)


def test_zero_and_one_coefficient_fast_paths():
    rng = np.random.default_rng(15)
    chunks = _chunks(rng, 3, BIG)
    for name in FAST_BACKENDS:
        be = ec_backend.resolve(name)
        assert not be.matmul_chunks(np.zeros((1, 3), np.uint8), chunks).any()
        expected = chunks[0] ^ chunks[1] ^ chunks[2]
        got = be.matmul_chunks(np.ones((1, 3), np.uint8), chunks)
        assert np.array_equal(got[0], expected)
        assert np.array_equal(be.mul_chunk(1, chunks[0]), chunks[0])
        assert not be.mul_chunk(0, chunks[0]).any()


def test_small_payloads_defer_to_naive_but_agree():
    rng = np.random.default_rng(16)
    chunks = _chunks(rng, 4, MIN_TABLE_BYTES // 2)
    row = np.array([[3, 0, 1, 200]], dtype=np.uint8)
    expected = matrix.matvec_chunks(row, chunks)
    for name in FAST_BACKENDS:
        got = ec_backend.resolve(name).matmul_chunks(row, chunks)
        assert np.array_equal(expected, got)


# --------------------------------------------------------------------- #
# dispatch layer                                                        #
# --------------------------------------------------------------------- #

def test_available_backends_registry():
    assert available_backends() == ("naive", "fused")
    assert ec_backend.get_backend().name == "fused"


def test_resolve_names_and_instances():
    be = ec_backend.resolve("naive")
    assert be.name == "naive"
    assert ec_backend.resolve(be) is be
    with pytest.raises(ValueError, match="unknown EC backend"):
        ec_backend.resolve("table")
    with pytest.raises(TypeError, match="lacks required method"):
        ec_backend.resolve(object())

    class TwoOperations:
        mul_chunk = matmul_chunks = staticmethod(lambda *a, **k: None)

    fake = TwoOperations()
    assert ec_backend.resolve(fake) is fake  # the whole protocol

    class NoMatmul:
        mul_chunk = staticmethod(lambda *a, **k: None)

    with pytest.raises(TypeError, match="'matmul_chunks'"):
        ec_backend.resolve(NoMatmul())


def test_use_backend_scoping():
    before = ec_backend.get_backend()
    with ec_backend.use_backend("naive") as be:
        assert be.name == "naive"
        assert ec_backend.get_backend() is be
    assert ec_backend.get_backend() is before
    with pytest.raises(RuntimeError):
        with ec_backend.use_backend("naive"):
            raise RuntimeError("the scope must unwind on error too")
    assert ec_backend.get_backend() is before


def test_use_backend_rejects_none():
    before = ec_backend.get_backend()
    with pytest.raises(TypeError, match="lacks required method"):
        with ec_backend.use_backend(None):
            pass
    assert ec_backend.get_backend() is before


def test_use_backend_reaches_codes_built_outside_the_scope():
    """The seam is the only selector: RSCode holds no backend of its own."""
    rng = np.random.default_rng(18)
    data = _chunks(rng, 4, BIG)
    code = RSCode(6, 4)
    calls = []

    class Counting(ec_backend.NaiveBackend):
        def matmul_chunks(self, mat, chunks, out=None):
            calls.append("matmul_chunks")
            return super().matmul_chunks(mat, chunks, out=out)

    fast = code.encode(data)
    with ec_backend.use_backend(Counting()):
        slow = code.encode(data)
        rebuilt = code.repair(1, {i: slow[i] for i in (0, 2, 3, 5)})
    assert calls == ["matmul_chunks", "matmul_chunks"]
    assert np.array_equal(fast, slow)
    assert np.array_equal(rebuilt, data[1])


@pytest.mark.parametrize("with_out", [False, True])
def test_repair_is_one_matmul_chunks_call(with_out):
    """``RSCode.repair`` reaches the data plane through exactly one
    one-row ``matmul_chunks`` product, whatever else the backend has."""
    code = RSCode(6, 4)
    stripe = code.encode(_chunks(np.random.default_rng(21), 4, BIG))
    oracle = ec_backend.NaiveBackend()
    calls = []

    class Recording:
        def __getattr__(self, name):
            method = getattr(oracle, name)

            def record(*args, **kwargs):
                calls.append((name, np.shape(args[0])))
                return method(*args, **kwargs)

            return record

    out = np.empty(BIG, dtype=np.uint8) if with_out else None
    with ec_backend.use_backend(Recording()):
        rebuilt = code.repair(4, {i: stripe[i] for i in (0, 1, 2, 5)}, out=out)
    assert calls == [("matmul_chunks", (1, 4))]
    assert np.array_equal(rebuilt, stripe[4])
    assert out is None or rebuilt is out


def test_rscode_decode_matrix_memoised():
    rng = np.random.default_rng(19)
    code = RSCode(6, 4)
    data = _chunks(rng, 4, 512)
    stripe = code.encode(data)
    avail = {i: stripe[i] for i in (0, 2, 4, 5)}
    assert np.array_equal(code.decode(avail), data)
    assert (0, 2, 4, 5) in code._decode_cache
    cached = code._decode_cache[(0, 2, 4, 5)]
    assert np.array_equal(code.decode(avail), data)
    assert code._decode_cache[(0, 2, 4, 5)] is cached


def test_fused_table_construction_identities():
    """Nibble/pair tables compose exactly to the full product row."""
    for c in (0, 1, 2, 87, 173, 255):
        row = kernels.coeff_row(c)
        assert np.array_equal(row, gf256.MUL_TABLE[c])
        pair = kernels.pair_table(c)
        b = np.arange(256, dtype=np.uint16)
        idx = (b[:, None] << 8 | b[None, :]).reshape(-1)
        lo = gf256.MUL_TABLE[c][idx & 0xFF].astype(np.uint16)
        hi = gf256.MUL_TABLE[c][idx >> 8].astype(np.uint16)
        assert np.array_equal(pair[idx], lo | hi << 8)


def test_fused_cache_bounded(monkeypatch):
    monkeypatch.setattr(kernels, "MAX_FUSED_CACHE_BYTES", 4 * 1024 * 1024)
    kernels.clear_table_caches()
    rng = np.random.default_rng(20)
    for _ in range(12):  # each (8, 6) matrix costs ~3 MiB of fused tables
        mat = rng.integers(1, 256, size=(8, 6), dtype=np.uint8)
        kernels.fused_tables(mat)
    assert kernels._fused_cache_bytes <= 2 * 4 * 1024 * 1024
    kernels.clear_table_caches()


def test_blocked_kernels_reject_malformed_input():
    """Shape / dtype / count checks raise before any table is touched."""
    a, b = np.zeros(8, dtype=np.uint8), np.ones(8, dtype=np.uint8)
    bad = {
        "2-D": lambda: kernels.fused_matmul(np.zeros(3, dtype=np.uint8), [a]),
        "expected 2 chunks": lambda: kernels.fused_matmul(np.ones((1, 2), np.uint8), [a]),
        "1-D uint8": lambda: kernels.fused_matmul(np.ones((1, 1), np.uint8), [a.astype(np.int32)]),
        "same length": lambda: kernels.fused_matmul(np.ones((1, 2), np.uint8), [a, b[:4]]),
        "out must be": lambda: kernels.fused_matmul(
            np.ones((1, 1), np.uint8), [a], out=np.zeros((2, 8), np.uint8)
        ),
        "1-D uint8 arrays": lambda: kernels.fused_matmul(np.ones((1, 1), np.uint8), [a.reshape(2, 4)]),
        "out must be a uint8 array of shape \\(1, 8\\)": lambda: kernels.fused_matmul(
            np.array([[2]], np.uint8), [a], out=np.zeros((1, 4), np.uint8)
        ),
        "chunk must be a 1-D": lambda: kernels.mul_chunk_blocked(2, a.reshape(2, 4)),
        "out must match the chunk's shape": lambda: kernels.mul_chunk_blocked(
            2, a, out=np.zeros(4, np.uint8)
        ),
    }
    for message, call in bad.items():
        with pytest.raises(ValueError, match=message):
            call()


def test_blocked_kernels_degenerate_shapes():
    """2-D chunk arrays, empty products, XOR-only rows, and the 0 / 1
    coefficients written through ``out`` all match the oracle."""
    rng = np.random.default_rng(15)
    chunks = rng.integers(0, 256, (3, 64), dtype=np.uint8)
    mat = np.array([[1, 1, 1], [0, 0, 0], [7, 0, 9]], dtype=np.uint8)
    assert np.array_equal(kernels.fused_matmul(mat, chunks), matrix.matvec_chunks(mat, chunks))
    assert kernels.fused_matmul(np.zeros((0, 3), np.uint8), chunks).shape == (0, 64)
    assert kernels.fused_matmul(np.zeros((2, 0), np.uint8), []).shape == (2, 0)
    out = np.full(64, 0xAA, dtype=np.uint8)
    assert not kernels.mul_chunk_blocked(0, chunks[0], out=out).any()
    assert np.array_equal(kernels.mul_chunk_blocked(1, chunks[0], out=out), chunks[0])
