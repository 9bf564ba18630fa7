"""Algorithm 1 — Maximum Pipelined Repair Throughput Calculation.

Computes FullRepair's ``t_max``: the largest aggregate repair throughput
any multi-pipeline schedule can achieve under the four constraints of
paper §III-B (uplink, downlink, storage, repairing).

The uplink phase is a water-filling computation: nodes whose uplink would
exceed the achievable throughput are "picked" into ``E`` and later capped
(they contribute a full slice to *every* repaired slice), leaving the
remaining nodes to share the other ``k - |E|`` slots, i.e. it finds the
largest ``c`` with ``sum_i min(U_i, c) >= k * c``.

The downlink phase solves the paper's Lines 13-25 fixpoint — alternately
the aggregate downlink constraint ``c <= (D_0 + sum_i D_i) / k`` and the
repairing constraint ``D_i <= (k - 1) * U_i`` — in closed form.

**Closed form.**  Both phases sort once and scan breakpoints, in plain
Python (repair helper sets are ``n - 1 <= 13`` wide for every code the
paper evaluates, where numpy's per-call overhead costs more than the
arithmetic):

* the uplink water-filling sorts the helper uplinks once and scans the
  suffix-sum breakpoints (the per-round ``sum``/``max`` Python loop of
  the paper's pseudocode lives on under ``tests/core/`` as the
  equivalence oracle);
* the downlink phase exploits that each helper's contribution to the
  feasibility condition is ``(k-1) * min(c, a_h)`` with the single
  breakpoint ``a_h = min(U_h, D_h / (k-1))`` — sorting the breakpoints
  once and scanning prefix sums yields the *greatest* fixpoint exactly,
  which is what the (monotone, from-above) alternation converges to.

``_downlink_fixpoint`` (bisection) is kept as an independent oracle; the
test-suite cross-checks it, the seed loop and the LP in
:mod:`repro.core.optimality`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..net.bandwidth import RepairContext

#: Convergence tolerance of the downlink fixpoint (Mbps).
FIXPOINT_TOL = 1e-9

#: Iteration cap on the paper's alternating loop before the exact solver
#: takes over.
MAX_ALTERNATIONS = 256


@dataclass(frozen=True)
class ThroughputResult:
    """Output of Algorithm 1.

    Attributes
    ----------
    t_max:
        Maximum pipelined repair throughput (Mbps).
    uplink:
        Adjusted helper uplinks (Table II's "after Algorithm 1" row),
        keyed by helper id.  Picked nodes are capped at ``t_max``.
    downlink:
        Adjusted helper downlinks after the repairing constraint.
    picked:
        Helper ids moved into ``E`` during the uplink phase.
    """

    t_max: float
    uplink: dict[int, float]
    downlink: dict[int, float]
    picked: tuple[int, ...]


def max_pipelined_throughput(context: RepairContext) -> ThroughputResult:
    """Run Algorithm 1 on a repair context (sort-once closed form).

    Raises ``ValueError`` if no positive throughput is achievable (e.g.
    fewer than k helpers with usable uplink, or a zero requester
    downlink).  Output is equivalent (within float rounding) to the seed
    loop implementation preserved in ``tests/core/reference_planner.py``.
    """
    k = context.k
    helpers = list(context.helpers)
    m = len(helpers)
    snapshot = context.snapshot
    up = snapshot.uplink[helpers].tolist()
    down = snapshot.downlink[helpers].tolist()
    d0 = float(snapshot.downlink[context.requester])

    # ---- Lines 2-12: limit by uplinks (sort-once water-filling) ------
    # Picking order is descending uplink, ties broken by ascending node
    # id — identical to the seed's max(pool, key=(up, -h)) loop.  After
    # sorting once, the loop state at step j is fully determined:
    # pool = sorted[j:], pool_max = up[order[j]], pool_sum = suffix[j].
    order = sorted(range(m), key=lambda i: (-up[i], helpers[i]))
    suffix = [0.0] * (m + 1)
    for j in range(m - 1, -1, -1):
        suffix[j] = suffix[j + 1] + up[order[j]]
    steps = min(k, m)
    jstar = 0
    for j in range(steps):
        denom = k - j
        if denom <= 1 or suffix[j] / denom >= up[order[j]]:
            jstar = j
            break
    c = suffix[jstar] / (k - jstar)
    if c > d0:
        c = d0
    picked = tuple(helpers[order[j]] for j in range(jstar))
    for j in range(jstar):
        up[order[j]] = c

    # ---- Lines 13-25: limit by downlinks (breakpoint-exact fixpoint) --
    if k == 1:
        # every helper term vanishes: c is capped by d0 alone
        c = min(c, d0)
    else:
        km1 = k - 1
        a = [min(u, d / km1) for u, d in zip(up, down)]
        total0 = d0 + km1 * sum(x if x <= c else c for x in a)
        if k * c > total0 + FIXPOINT_TOL:
            c = _downlink_breakpoint_scan(c, d0, a, k)
    for i in range(m):
        if up[i] > c:
            up[i] = c
        cap = up[i] * (k - 1)
        if cap < down[i]:
            down[i] = cap

    if c <= 0:
        raise ValueError(
            "no positive repair throughput achievable: uplinks "
            f"{[float(snapshot.uplink[h]) for h in helpers]}, "
            f"requester downlink {d0}"
        )
    return ThroughputResult(
        t_max=float(c),
        uplink=dict(zip(helpers, up)),
        downlink=dict(zip(helpers, down)),
        picked=picked,
    )


def _downlink_breakpoint_scan(c0: float, d0: float, a: list[float], k: int) -> float:
    """Greatest ``c <= c0`` with ``k*c <= d0 + (k-1) * sum_h min(c, a_h)``.

    Called only when the aggregate downlink binds at ``c0``.  With
    ``a_h = min(U_h, D_h / (k-1))`` each helper's term
    ``min(D_h, (k-1) * min(c, U_h))`` equals ``(k-1) * min(c, a_h)``, so
    the feasibility margin ``g(c) = d0 + (k-1) * sum_h min(c, a_h) - k*c``
    is piecewise linear and concave with ``g(0) = d0 >= 0``: the feasible
    set is ``[0, c*]``.  Sorting the breakpoints once and scanning prefix
    sums locates the segment containing ``c*`` and solves it in closed
    form (the root is exact; ``FIXPOINT_TOL`` only pads the feasibility
    tests, mirroring the seed's acceptance slack).
    """
    a_sorted = sorted(a)
    m = len(a_sorted)
    km1 = k - 1
    prefix = 0.0
    best_i = -1
    best_prefix = 0.0
    for i, ai in enumerate(a_sorted):
        prefix += ai
        if ai > c0:
            break
        g = d0 + km1 * (prefix + ai * (m - i - 1)) - k * ai
        if g >= -FIXPOINT_TOL:
            best_i = i
            best_prefix = prefix
    if best_i < 0:
        # c* lies in [0, a_sorted[0]]: slope there is (k-1)*m - k
        slope = km1 * m - k
        if slope >= 0:
            return 0.0  # g non-decreasing yet infeasible at first bp: c* = 0
        return d0 / (k - km1 * m) if k > km1 * m else 0.0
    # on (a_sorted[best_i], next]: best_i+1 helpers saturated, the rest linear
    lin = m - best_i - 1
    denom = k - km1 * lin
    if denom <= 0:
        # g still non-decreasing past this breakpoint; since g(c0) was
        # infeasible, a later (feasible) breakpoint would exist — so this
        # only happens at the degenerate boundary: stay at the breakpoint
        return a_sorted[best_i]
    c = (d0 + km1 * best_prefix) / denom
    return min(c, c0)


def _downlink_fixpoint(
    c0: float, d0: float, orig_up: dict[int, float], orig_down: dict[int, float], k: int
) -> float:
    """Exact solution of the downlink-phase fixpoint.

    The loop converges to the largest ``c <= c0`` with

        c <= (d0 + sum_h min(D_h, (k-1) * min(c, U_h))) / k.

    The right-hand side is nondecreasing in ``c``, so the feasible set is
    an interval ``[0, c*]``; bisection over it is exact to FIXPOINT_TOL.
    """

    def feasible(c: float) -> bool:
        total = d0 + sum(
            min(orig_down[h], (k - 1) * min(c, orig_up[h])) for h in orig_up
        )
        return c * k <= total + FIXPOINT_TOL

    lo, hi = 0.0, c0
    if feasible(hi):
        return hi
    for _ in range(200):
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def water_filling_uplink(context: RepairContext) -> float:
    """Independent oracle for the uplink phase.

    The largest ``c`` with ``sum_h min(U_h, c) >= k * c`` (capped at the
    requester downlink) — mathematically equivalent to Lines 2-12 and used
    by the test-suite to pin the iterative version down.
    """
    k = context.k
    ups = np.sort(np.array([context.uplink(h) for h in context.helpers]))[::-1]
    d0 = context.downlink(context.requester)
    # candidate: j nodes capped at c, the rest contribute fully:
    # c = sum(ups[j:]) / (k - j), valid while c <= ups[j-1] and c >= ups[j]
    best = 0.0
    m = ups.shape[0]
    suffix = np.concatenate([np.cumsum(ups[::-1])[::-1], [0.0]])
    for j in range(0, min(k, m)):
        denom = k - j
        if denom <= 0:
            break
        c = suffix[j] / denom
        upper = ups[j - 1] if j > 0 else np.inf
        if ups[j] - 1e-12 <= c <= upper + 1e-12:
            best = max(best, c)
    return float(min(best, d0))
