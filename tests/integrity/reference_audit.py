"""Test-only oracle: the whole-stripe post-repair audit.

This module preserves the original audit of :mod:`repro.integrity.verify`:
``check_consistency`` decodes all k data rows from the k lowest-indexed
values and re-encodes the full (n, L) stripe to compare the surplus
rows.  The audit in ``src/`` predicts only the n - k rows outside the
decode set, block by block over the stored chunks, and must return an
identical :class:`~repro.integrity.verify.AuditReport` on every input
(``test_audit_equivalence.py``).  Nothing in ``src/`` imports it.  Do
not "optimise" this file — its value is being frozen.
"""

from __future__ import annotations

import numpy as np

from repro.ec.rs import RSCode
from repro.integrity.verify import AuditReport


def check_consistency(
    code: RSCode, values: dict[int, np.ndarray]
) -> tuple[bool, np.ndarray]:
    """Decode from the k lowest values, re-encode, compare the rest.

    Returns ``(consistent, predicted)`` with ``predicted`` the (n, L)
    codeword implied by the decode set.
    """
    if len(values) < code.k:
        raise ValueError(
            f"need at least k={code.k} chunks to check consistency, "
            f"got {len(values)}"
        )
    data = code.decode(values)
    predicted = code.encode(data)
    decode_set = set(sorted(values)[: code.k])
    ok = all(
        np.array_equal(predicted[i], values[i])
        for i in values
        if i not in decode_set
    )
    return ok, predicted


def localize_corruption(
    code: RSCode, values: dict[int, np.ndarray]
) -> tuple[int, ...]:
    """Leave-one-out: the indices whose removal restores consistency."""
    culprits = []
    for candidate in sorted(values):
        rest = {i: v for i, v in values.items() if i != candidate}
        if len(rest) < code.k:
            continue
        ok, _ = check_consistency(code, rest)
        if ok:
            culprits.append(candidate)
    return tuple(culprits)


def audit_stripe(
    code: RSCode,
    lost_index: int,
    rebuilt: np.ndarray,
    stored: dict[int, np.ndarray],
    digest_bad: tuple[int, ...] = (),
) -> AuditReport:
    """Digest verdicts + whole-stripe parity consistency."""
    culprits = tuple(sorted(digest_bad))
    if len(stored) < code.k:
        return AuditReport(
            ok=False if culprits else None,
            culprits=culprits,
            checked=len(stored) + len(digest_bad),
        )
    stored_ok, predicted = check_consistency(code, stored)
    if stored_ok:
        rebuilt_ok = bool(np.array_equal(predicted[lost_index], rebuilt))
        return AuditReport(
            ok=(not culprits) and rebuilt_ok,
            culprits=culprits,
            rebuilt_ok=rebuilt_ok,
            predicted=predicted[lost_index],
            checked=len(stored) + len(digest_bad),
        )
    located = localize_corruption(code, stored)
    if len(located) == 1:
        clean = {i: v for i, v in stored.items() if i != located[0]}
        _, predicted = check_consistency(code, clean)
        rebuilt_ok = bool(np.array_equal(predicted[lost_index], rebuilt))
        return AuditReport(
            ok=False,
            culprits=tuple(sorted((*culprits, *located))),
            rebuilt_ok=rebuilt_ok,
            predicted=predicted[lost_index],
            checked=len(stored) + len(digest_bad),
        )
    return AuditReport(
        ok=False,
        culprits=culprits,
        localized=False,
        checked=len(stored) + len(digest_bad),
    )
