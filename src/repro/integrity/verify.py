"""Codeword-consistency verification and corruption localization.

A systematic (n, k) RS stripe carries ``n - k`` chunks of surplus
parity.  Any k known chunk values determine the whole codeword, so a
set of more than k values can be *checked*: predict the other rows from
k of them and compare the prediction against every value held.  A
mismatch proves at least one value is off the codeword — the signature
of silent corruption that per-chunk digests alone cannot prove (a
digest only says the bytes changed since ``put``; parity says the
bytes disagree with the rest of the stripe).

With at least two chunks of surplus among the values held, a *single*
corrupt value can also be localized by leave-one-out: remove
one candidate, re-check the rest; only removing the culprit restores
consistency.  (Removing an innocent chunk leaves the corrupt one in the
set, and with surplus remaining the check still trips.)

:func:`audit_stripe` packages the policy the cluster uses after every
repair: digest scan first (cheap, localizes rot whose digest no longer
matches), then parity consistency over the digest-clean values, then
leave-one-out localization — returning the culprits to quarantine and
the predicted true value of the rebuilt chunk when the surplus pins it
down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ec import kernels
from ..ec.backend import get_backend
from ..ec.rs import RSCode

#: Columns predicted per data-plane call: one segment of the blocked
#: kernels, so a check holds ``(n - k) x BLOCK_BYTES`` of prediction at
#: a time whatever the chunk size.
BLOCK_BYTES = 2 * kernels.SEGMENT_PAIRS


def check_consistency(
    code: RSCode,
    values: dict[int, np.ndarray],
    *,
    predict: int | None = None,
    rebuilt: np.ndarray | None = None,
) -> tuple[bool, np.ndarray | None]:
    """Do ``values`` (stripe index -> chunk) lie on one codeword?

    The k lowest-indexed values are the decode set; each of the n - k
    rows outside it is one linear combination of them
    (:meth:`RSCode.repair_equation`).  Those rows are predicted one
    column block of :data:`BLOCK_BYTES` at a time, reading the values in
    place, and compared against every other value held; the check stops
    at the first block that disagrees.

    Returns ``(consistent, row)``: ``row`` is the predicted value of
    stripe index ``predict`` (which must lie outside the decode set), or
    ``None`` when ``predict`` is ``None`` or the values are
    inconsistent.  Given ``rebuilt`` (a candidate value of ``predict``),
    the prediction is compared with it block by block instead of
    stored: when every block agrees, ``row`` *is* ``rebuilt``, and a
    chunk-sized row is built only from the first block that disagrees.
    Requires at least k values; with exactly k the check is vacuous
    (always consistent).
    """
    if len(values) < code.k:
        raise ValueError(
            f"need at least k={code.k} chunks to check consistency, "
            f"got {len(values)}"
        )
    ordered = sorted(values)
    decode_set = tuple(ordered[: code.k])
    rows = [i for i in range(code.n) if i not in decode_set]
    matrix = np.array(
        [code.repair_equation(i, decode_set).coeffs for i in rows],
        dtype=np.uint8,
    )
    inputs = [values[i] for i in decode_set]
    surplus = [(rows.index(i), values[i]) for i in ordered[code.k :]]
    target = None if predict is None else rows.index(predict)
    length = len(inputs[0])
    block = np.empty((len(rows), min(length, BLOCK_BYTES)), dtype=np.uint8)
    if rebuilt is not None and len(rebuilt) != length:
        rebuilt = None  # cannot agree: predict the row outright
    row = None
    if predict is not None and rebuilt is None:
        row = np.empty(length, dtype=np.uint8)
    matmul = get_backend().matmul_chunks
    for start in range(0, length, BLOCK_BYTES):
        stop = min(start + BLOCK_BYTES, length)
        predicted = matmul(
            matrix, [v[start:stop] for v in inputs],
            out=block[:, : stop - start],
        )
        for r, value in surplus:
            if not np.array_equal(predicted[r], value[start:stop]):
                return False, None
        if target is None:
            continue
        if row is None:
            if np.array_equal(predicted[target], rebuilt[start:stop]):
                continue
            row = np.empty(length, dtype=np.uint8)
            row[:start] = rebuilt[:start]
        row[start:stop] = predicted[target]
    if row is None and target is not None:
        row = rebuilt  # the prediction agreed with it everywhere
    return True, row


def localize_corruption(
    code: RSCode, values: dict[int, np.ndarray]
) -> tuple[int, ...]:
    """Leave-one-out localization of a single corrupt chunk.

    Returns the stripe indices whose removal makes the remaining values
    consistent.  Exactly one index means the corruption is localized;
    several mean the surplus is too thin to pin it down (every removal
    that drops the value count to k is vacuously consistent); none
    means no single-chunk removal explains the inconsistency (multiple
    corrupt chunks).
    """
    culprits = []
    for candidate in sorted(values):
        rest = {i: v for i, v in values.items() if i != candidate}
        if len(rest) < code.k:
            continue
        ok, _ = check_consistency(code, rest)
        if ok:
            culprits.append(candidate)
    return tuple(culprits)


@dataclass
class AuditReport:
    """Verdict of one post-repair stripe audit.

    Attributes
    ----------
    ok:
        ``True`` — every digest matched and the stripe (stored values
        plus the rebuilt chunk) is a consistent codeword.  ``False`` —
        corruption was detected.  ``None`` — at most k clean chunks
        survive, so no surplus parity can check anything (unverifiable,
        not clean).
    culprits:
        Stripe indices proven corrupt: digest mismatches plus any
        parity-localized chunk.  Empty when the corruption could not be
        localized (see ``localized``).
    localized:
        False only when parity proved corruption exists but
        leave-one-out could not pin it to a single stored chunk.
    rebuilt_ok:
        Whether the rebuilt value itself matches the codeword implied
        by the clean stored chunks (``None`` when undetermined).
    predicted:
        The surplus-parity prediction of the rebuilt chunk's true
        value, when the clean stored chunks pin it down — the healing
        value for a wrong decode.  When the rebuilt chunk checks out
        this is the ``rebuilt`` array itself, not a copy.
    checked:
        Number of stored chunks whose digests were scanned.
    """

    ok: bool | None
    culprits: tuple[int, ...] = ()
    localized: bool = True
    rebuilt_ok: bool | None = None
    predicted: np.ndarray | None = field(default=None, repr=False)
    checked: int = 0

    @property
    def unverifiable(self) -> bool:
        """No surplus parity survived to check the rebuilt value with;
        any culprit is a digest's, and says nothing about the rebuild."""
        return self.rebuilt_ok is None and self.localized


def audit_stripe(
    code: RSCode,
    lost_index: int,
    rebuilt: np.ndarray,
    stored: dict[int, np.ndarray],
    digest_bad: tuple[int, ...] = (),
) -> AuditReport:
    """Audit a repaired stripe: digest verdicts + parity consistency.

    Parameters
    ----------
    code:
        The stripe's RS code.
    lost_index:
        Stripe index of the chunk that was rebuilt.
    rebuilt:
        The repair's output for ``lost_index``.
    stored:
        Stripe index -> payload of every *digest-clean* stored chunk
        available for checking (live, non-quarantined holders).
    digest_bad:
        Stripe indices whose stored digest failed verification — they
        are culprits a priori and must not appear in ``stored``.
    """
    culprits = tuple(sorted(digest_bad))
    if len(stored) <= code.k:
        # no surplus: k clean values predict the rest of a codeword they
        # always lie on, and a rebuild decoded from them agrees with it
        # whatever they hold; digests are the only verdict
        return AuditReport(
            ok=False if culprits else None,
            culprits=culprits,
            checked=len(stored) + len(digest_bad),
        )
    stored_ok, predicted = check_consistency(
        code, stored, predict=lost_index, rebuilt=rebuilt
    )
    if stored_ok:
        # clean stored chunks agree on one codeword; it pins the lost value
        rebuilt_ok = predicted is rebuilt
        return AuditReport(
            ok=(not culprits) and rebuilt_ok,
            culprits=culprits,
            rebuilt_ok=rebuilt_ok,
            predicted=predicted,
            checked=len(stored) + len(digest_bad),
        )
    # stored chunks are inconsistent *despite* clean digests (rot that
    # kept its digest, e.g. a deliberately silent flip): leave-one-out
    located = localize_corruption(code, stored)
    if len(located) == 1:
        clean = {i: v for i, v in stored.items() if i != located[0]}
        _, predicted = check_consistency(
            code, clean, predict=lost_index, rebuilt=rebuilt
        )
        rebuilt_ok = predicted is rebuilt
        return AuditReport(
            ok=False,
            culprits=tuple(sorted((*culprits, *located))),
            rebuilt_ok=rebuilt_ok,
            predicted=predicted,
            checked=len(stored) + len(digest_bad),
        )
    return AuditReport(
        ok=False,
        culprits=culprits,
        localized=False,
        checked=len(stored) + len(digest_bad),
    )
