"""LP oracle for the multi-pipeline repair polytope.

Independently of Algorithm 1, the maximum aggregate repair throughput over
all hub-structured multi-pipeline schedules (the family Algorithm 2 emits)
is a linear program:

variables
    ``s_h``   — pipeline rate hubbed at helper ``h`` (hub combines k-1
                sender streams with its own chunk, forwards the result),
    ``s_R``   — rate of the requester's direct pipeline (k sender streams),
    ``a_{u,j}`` — sender ``u``'s contribution to pipeline ``j``.

maximise  ``sum_h s_h + s_R``  subject to

* sender balance:      ``sum_u a_{u,j} = (k-1) s_j`` (helper hub),
                       ``sum_u a_{u,R} = k s_R``
* column feasibility:  ``a_{u,j} <= s_j`` (a sender covers each chunk
                       position of a pipeline at most once), ``a_{j,j}=0``
* helper uplink:       ``s_u + sum_j a_{u,j} <= U_u``
* hub downlink:        ``(k-1) s_h <= D_h``
* requester downlink:  ``sum_h s_h + k s_R <= D_0``

Its optimum certifies Algorithm 1's water-filling result: the test suite
asserts ``lp_max_throughput == t_max`` across randomised contexts.

This is a test and reproduction oracle, not runtime code: ``repro.core``
does not import it, and its scipy comes with the ``test`` extra
(``pip install -e '.[test]'``).  Import it by its full path.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from ..net.bandwidth import RepairContext
from ..net.topology import DomainTree, _check_racks


def lp_max_throughput(
    context: RepairContext, tree: DomainTree | None = None, trunk_mbps=()
) -> float:
    """Maximum multi-pipeline repair throughput by linear programming.

    With a failure-domain ``tree`` and its per-rack ``trunk_mbps`` (see
    :mod:`repro.net.topology`), adds per-rack trunk constraints on
    cross-rack traffic: the true *rack-aware* optimum, an upper bound on
    what any scheduler respecting the trunks can achieve.  Useful to
    quantify the price of the conservative ``rack_scaled_context``
    workaround.
    """
    helpers = list(context.helpers)
    m = len(helpers)
    k = context.k
    idx = {h: i for i, h in enumerate(helpers)}
    # variable vector: [s_0..s_{m-1}, s_R, a_{u, j}] with a in row-major
    # (u over helpers, j over helpers + requester-task column m)
    num_s = m + 1
    num_a = m * (m + 1)
    nvar = num_s + num_a

    def a_var(u: int, j: int) -> int:
        return num_s + u * (m + 1) + j

    c = np.zeros(nvar)
    c[:num_s] = -1.0  # maximise total rate

    a_ub_rows: list[np.ndarray] = []
    b_ub: list[float] = []
    a_eq_rows: list[np.ndarray] = []
    b_eq: list[float] = []

    # sender balance per pipeline
    for j in range(m + 1):
        row = np.zeros(nvar)
        for u in range(m):
            if u == j:
                continue  # hub never "sends" in its own pipeline
            row[a_var(u, j)] = 1.0
        if j < m:
            row[j] = -(k - 1)
        else:
            row[m] = -k
        a_eq_rows.append(row)
        b_eq.append(0.0)

    # column feasibility a_{u,j} <= s_j
    for u in range(m):
        for j in range(m + 1):
            if u == j:
                continue
            row = np.zeros(nvar)
            row[a_var(u, j)] = 1.0
            row[j if j < m else m] = -1.0
            a_ub_rows.append(row)
            b_ub.append(0.0)

    # helper uplink: own result upload + all sending contributions
    for u in range(m):
        row = np.zeros(nvar)
        row[u] = 1.0
        for j in range(m + 1):
            if u == j:
                continue
            row[a_var(u, j)] = 1.0
        a_ub_rows.append(row)
        b_ub.append(context.uplink(helpers[u]))

    # hub downlink
    for j in range(m):
        row = np.zeros(nvar)
        row[j] = k - 1
        a_ub_rows.append(row)
        b_ub.append(context.downlink(helpers[j]))

    # requester downlink
    row = np.zeros(nvar)
    row[:m] = 1.0
    row[m] = k
    a_ub_rows.append(row)
    b_ub.append(context.downlink(context.requester))

    # per-rack trunk constraints on cross-rack flows (optional)
    if tree is not None:
        _check_racks(context.snapshot.num_nodes, tree, trunk_mbps)
        rack_of = tree.disk_domains("rack")
        req = context.requester
        # (variable, source node, destination node) of every flow: sender
        # contributions, then hub result uploads to the requester
        var, src, dst = np.array(
            [
                (a_var(u, j), helpers[u], helpers[j] if j < m else req)
                for u in range(m)
                for j in range(m + 1)
                if u != j
            ]
            + [(j, helpers[j], req) for j in range(m)]
        ).T
        src, dst = rack_of[src], rack_of[dst]
        cross = src != dst
        for rack, cap in enumerate(trunk_mbps):
            for end in (src, dst):  # egress, then ingress
                row = np.zeros(nvar)
                row[var[cross & (end == rack)]] = 1.0
                if row.any():
                    a_ub_rows.append(row)
                    b_ub.append(cap)

    # hub self-contributions pinned to zero
    bounds = [(0, None)] * nvar
    for u in range(m):
        bounds[a_var(u, u)] = (0, 0)

    res = linprog(
        c,
        A_ub=np.array(a_ub_rows),
        b_ub=np.array(b_ub),
        A_eq=np.array(a_eq_rows),
        b_eq=np.array(b_eq),
        bounds=bounds,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"throughput LP failed: {res.message}")
    return float(-res.fun)


def ideal_bound(context: RepairContext) -> float:
    """The coarse outer bound min(sum U / k, sum D / k, D_0).

    Ignores the storage and repairing constraints; useful as a quick upper
    envelope in analyses and tests (``t_max <= ideal_bound`` always).
    """
    k = context.k
    ups = sum(context.uplink(h) for h in context.helpers)
    downs = sum(context.downlink(h) for h in context.helpers)
    d0 = context.downlink(context.requester)
    return min(ups / k, (downs + d0) / k, d0)
