"""The block-wise audit returns what the whole-stripe audit returned.

:mod:`tests.integrity.reference_audit` keeps the decode -> re-encode
audit the cluster ran before; :func:`repro.integrity.audit_stripe` now
predicts only the rows outside the decode set, one column block at a
time, over read-only inputs.  Every :class:`AuditReport` field must be
identical — ``ok``, ``culprits``, ``localized``, ``rebuilt_ok``, the
``predicted`` bytes and ``checked`` — for three codes, lengths either
side of every block edge, and each way a stripe can be off its codeword.
A stored set handed in as already proven (``proven=``) predicts only the
lost row; on every consistent case it must return the same report,
``proven`` and ``predicted is rebuilt`` included.

Block edges are exercised at :data:`SMALL_BLOCK` (patched in, so a
length of two blocks stays cheap) and once at the real
:data:`repro.integrity.verify.BLOCK_BYTES`.  Corruption sits in the last
byte, so only a loop that reaches every column — the trailing partial
block included — sees it; two mutants of the loop prove the suite
notices one that does not.
"""

from __future__ import annotations

import inspect
import sys
import types

import numpy as np
import pytest

from repro.ec import RSCode
from repro.ec.backend import MIN_TABLE_BYTES
from repro.integrity import verify

from . import reference_audit

pytestmark = pytest.mark.integrity

CODES = ((6, 4), (9, 6), (14, 10))
#: a block the fused kernels run on (>= MIN_TABLE_BYTES), small enough
#: that two of them cost nothing
SMALL_BLOCK = 2 * MIN_TABLE_BYTES
SCENARIOS = (
    "clean", "decode_set", "surplus", "rebuilt", "digest_bad",
    "two_culprits", "k_values", "k_plus_1",
)


def _lengths(block: int) -> tuple[int, ...]:
    return (MIN_TABLE_BYTES // 4 + 1, block - 1, block, block + 1, 2 * block + 3)


def _flip(chunk: np.ndarray, at: int) -> np.ndarray:
    chunk = chunk.copy()
    chunk[at] ^= 0x5A
    return chunk


def _audit_inputs(n: int, k: int, length: int, lost: int, scenario: str):
    """``(code, lost, rebuilt, stored, digest_bad)`` for one case."""
    code = RSCode(n, k)
    rng = np.random.default_rng((n, length, lost))
    chunks = code.encode(rng.integers(0, 256, (k, length), dtype=np.uint8))
    order = [i for i in range(n) if i != lost]
    stored = {i: chunks[i] for i in order}
    rebuilt, digest_bad = chunks[lost].copy(), ()
    last = length - 1
    if scenario == "decode_set":
        stored[order[0]] = _flip(chunks[order[0]], last)
    elif scenario == "surplus":
        stored[order[-1]] = _flip(chunks[order[-1]], last)
    elif scenario == "rebuilt":
        rebuilt = _flip(rebuilt, last)
    elif scenario == "digest_bad":
        del stored[order[2]]
        digest_bad = (order[2],)
    elif scenario == "two_culprits":
        stored[order[0]] = _flip(chunks[order[0]], 0)
        stored[order[-1]] = _flip(chunks[order[-1]], last)
    elif scenario in ("k_values", "k_plus_1"):
        keep = order[: k if scenario == "k_values" else k + 1]
        stored = {i: stored[i] for i in keep}
        stored[order[0]] = _flip(chunks[order[0]], last)
    for value in stored.values():
        value.setflags(write=False)  # the cluster hands in store views
    return code, lost, rebuilt, stored, digest_bad


def _fields(audit_stripe, case) -> tuple:
    """Every :class:`AuditReport` field ``audit_stripe`` returns on a case."""
    code, lost, rebuilt, stored, digest_bad = _audit_inputs(*case)
    report = audit_stripe(code, lost, rebuilt, stored, digest_bad=digest_bad)
    predicted = None if report.predicted is None else report.predicted.tobytes()
    return (
        report.ok, report.culprits, report.localized, report.rebuilt_ok,
        predicted, report.checked,
    )


SMALL_CASES = [
    (n, k, length, lost, scenario)
    for n, k in CODES
    for length in _lengths(SMALL_BLOCK)
    for lost in (1, n - 1)
    for scenario in SCENARIOS
]


@pytest.fixture
def small_block(monkeypatch):
    monkeypatch.setattr(verify, "BLOCK_BYTES", SMALL_BLOCK)


@pytest.mark.parametrize(
    "case", SMALL_CASES, ids=["rs{}-{}-L{}-lost{}-{}".format(*c) for c in SMALL_CASES]
)
def test_report_matches_whole_stripe_audit(small_block, case):
    want = _fields(reference_audit.audit_stripe, case)
    assert _fields(verify.audit_stripe, case) == want


REAL_CASES = [
    (9, 6, length, 1, scenario)
    for length in _lengths(verify.BLOCK_BYTES)[1:]
    for scenario in ("clean", "rebuilt")
] + [(9, 6, 2 * verify.BLOCK_BYTES + 3, 1, "surplus")]


@pytest.mark.parametrize("case", REAL_CASES)
def test_real_block_edges(case):
    want = _fields(reference_audit.audit_stripe, case)
    assert _fields(verify.audit_stripe, case) == want


def test_the_scenarios_reach_every_verdict():
    # the cases cover each AuditReport outcome, so equality is not vacuous
    verdicts = set()
    for case in SMALL_CASES:
        if case[2] == SMALL_BLOCK + 1:
            ok, culprits, localized, rebuilt_ok, _, _ = _fields(
                reference_audit.audit_stripe, case
            )
            verdicts.add((ok, bool(culprits), localized, rebuilt_ok))
    assert verdicts >= {
        (True, False, True, True),  # clean
        (False, True, True, True),  # culprit localized, rebuilt fine
        (False, False, True, False),  # rebuilt wrong, healed value known
        (False, False, False, None),  # corruption not localizable
    }


# --------------------------------------------------------------------- #
# a proven stored set: the lost row alone, and the same report           #
# --------------------------------------------------------------------- #

#: scenarios whose stored values lie on one codeword
CONSISTENT = ("clean", "rebuilt", "digest_bad")


def _report(case, proven_all: bool) -> tuple:
    """Every field of ``verify.audit_stripe``'s report on a case, with the
    stored set declared proven or not, plus ``predicted is rebuilt``."""
    code, lost, rebuilt, stored, digest_bad = _audit_inputs(*case)
    report = verify.audit_stripe(
        code, lost, rebuilt, stored, digest_bad=digest_bad,
        proven=set(stored) if proven_all else (),
    )
    predicted = None if report.predicted is None else report.predicted.tobytes()
    return (
        report.ok, report.culprits, report.localized, report.rebuilt_ok,
        predicted, report.checked, report.proven, report.predicted is rebuilt,
    )


PROVEN_CASES = [c for c in SMALL_CASES if c[4] in CONSISTENT] + [
    c for c in REAL_CASES if c[4] in CONSISTENT
]


@pytest.mark.parametrize(
    "case", PROVEN_CASES,
    ids=["rs{}-{}-L{}-lost{}-{}".format(*c) for c in PROVEN_CASES],
)
def test_a_proven_stored_set_audits_like_the_full_check(case, monkeypatch):
    if case in SMALL_CASES:
        monkeypatch.setattr(verify, "BLOCK_BYTES", SMALL_BLOCK)
    fast, slow = _report(case, True), _report(case, False)
    assert fast == slow
    assert fast[:6] == _fields(reference_audit.audit_stripe, case)
    stored = _audit_inputs(*case)[3]  # at most k values prove nothing
    assert fast[6] == (tuple(sorted(stored)) if len(stored) > case[1] else ())


def test_the_proven_cases_reach_both_rebuild_verdicts(small_block):
    # a clean rebuild is returned as itself; a wrong one gets the healing row
    seen = {_report(c, True)[3:8:4] for c in PROVEN_CASES}
    assert seen >= {(True, True), (False, False)}


def test_a_proven_set_predicts_only_the_lost_row(small_block, monkeypatch):
    code, lost, rebuilt, stored, _ = _audit_inputs(
        14, 10, 2 * SMALL_BLOCK + 3, 1, "clean"
    )
    rows = []
    backend = type(verify.get_backend())
    real = backend.matmul_chunks
    monkeypatch.setattr(
        backend, "matmul_chunks",
        lambda self, m, *a, **kw: (rows.append(len(m)), real(self, m, *a, **kw))[1],
    )
    for proven, want in (((), [4, 4, 4]), (set(stored), [1, 1, 1])):
        rows.clear()
        verify.audit_stripe(code, lost, rebuilt, stored, proven=proven)
        assert rows == want  # n - k rows, or the lost one, per block


@pytest.mark.parametrize(
    "scenario, proven",
    [("clean", "all"), ("rebuilt", "all"), ("digest_bad", "all"),
     ("surplus", "all_but_culprit"), ("decode_set", "all_but_culprit"),
     ("two_culprits", "none"), ("k_values", "none"), ("k_plus_1", "none")],
)
def test_the_report_names_what_it_proved(small_block, scenario, proven):
    case = (9, 6, SMALL_BLOCK + 1, 1, scenario)
    stored = sorted(_audit_inputs(*case)[3])
    culprit = {"surplus": stored[-1], "decode_set": stored[0]}.get(scenario)
    want = {
        "all": tuple(stored),
        "all_but_culprit": tuple(i for i in stored if i != culprit),
        "none": (),
    }[proven]
    assert _report(case, False)[6] == want


# --------------------------------------------------------------------- #
# the suite has teeth: mutants of the block loop must fail it            #
# --------------------------------------------------------------------- #

LOOP = "for start in range(0, length, BLOCK_BYTES):"
MUTANTS = {
    "first_block_only": "for start in range(0, min(length, 1), BLOCK_BYTES):",
    "skip_trailing_partial_block": (
        "for start in range(0, length - length % BLOCK_BYTES, BLOCK_BYTES):"
    ),
}


def _mutant(loop: str, monkeypatch) -> types.ModuleType:
    source = inspect.getsource(verify)
    assert source.count(LOOP) == 1
    module = types.ModuleType("verify_mutant")
    module.__package__ = verify.__package__
    monkeypatch.setitem(sys.modules, module.__name__, module)  # for @dataclass
    exec(compile(source.replace(LOOP, loop), "<mutant>", "exec"), module.__dict__)
    module.BLOCK_BYTES = SMALL_BLOCK
    return module


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_mutant_block_loop_fails_the_suite(name, monkeypatch):
    mutant = _mutant(MUTANTS[name], monkeypatch)
    for case in SMALL_CASES:
        if _fields(mutant.audit_stripe, case) != _fields(
            reference_audit.audit_stripe, case
        ):
            return
    pytest.fail(f"mutant {name} passed every equivalence case")
