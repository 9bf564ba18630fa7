"""Flow-level bandwidth sharing: progressive-filling max-min fairness.

A repair plan compiles to a set of point-to-point *flows*.  When a plan
already carries explicit rates (FullRepair does — Algorithm 2 allocates
every Mbps), the network only needs to verify feasibility.  Plans without
explicit rates (e.g. conventional star repair, or any plan executed under
unplanned contention) get their rates from the classic progressive-filling
algorithm: grow every unfrozen flow's rate uniformly; whenever a node's
uplink or downlink saturates, freeze the flows through it; repeat.  The
result is the unique max-min fair allocation under node-capacity
constraints (the hose model used by the paper's EC2 setup, where `tc`
shapes each node's NIC rather than individual switch links).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandwidth import BandwidthSnapshot

#: Relative numeric slack used when validating rate allocations.
RATE_TOL = 1e-6

#: Relative slack (against node capacity / flow demand) used by
#: progressive filling to decide that a constraint saturated.  Must sit
#: well above float rounding of capacity-scale sums yet far below any
#: meaningful bandwidth difference.
_SAT_TOL = 1e-9


@dataclass(frozen=True)
class Flow:
    """A unidirectional transfer demand from ``src`` to ``dst``.

    ``demand`` is an optional rate cap in Mbps (``None`` = elastic);
    ``weight`` scales the flow's share under progressive filling.
    """

    src: int
    dst: int
    demand: float | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("flow endpoints must differ (no self-transfers)")
        if self.demand is not None and self.demand < 0:
            raise ValueError("demand must be non-negative")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


def max_min_rates(snapshot: BandwidthSnapshot, flows: list[Flow]) -> np.ndarray:
    """Weighted max-min fair rates (Mbps) for ``flows`` under node capacities.

    Each node contributes two capacity constraints: the sum of rates of
    flows leaving it is bounded by its uplink, and of flows entering it by
    its downlink.  Flows with a ``demand`` are additionally capped at it.

    Returns an array aligned with ``flows``.
    """
    m = len(flows)
    rates = np.zeros(m)
    if m == 0:
        return rates
    frozen = np.zeros(m, dtype=bool)
    weights = np.array([f.weight for f in flows])
    demands = np.array(
        [np.inf if f.demand is None else f.demand for f in flows]
    )
    srcs = np.array([f.src for f in flows], dtype=np.intp)
    dsts = np.array([f.dst for f in flows], dtype=np.intp)
    n = snapshot.num_nodes
    up_cap = snapshot.uplink.copy()
    down_cap = snapshot.downlink.copy()

    for _ in range(2 * n + m + 1):  # each round freezes >= 1 flow: bounded
        active = ~frozen
        if not np.any(active):
            break
        # residual capacity per node given frozen flows
        up_used = np.bincount(srcs[frozen], weights=rates[frozen], minlength=n)
        down_used = np.bincount(dsts[frozen], weights=rates[frozen], minlength=n)
        up_res = up_cap - up_used
        down_res = down_cap - down_used
        # weight pressure per node from active flows
        up_w = np.bincount(srcs[active], weights=weights[active], minlength=n)
        down_w = np.bincount(dsts[active], weights=weights[active], minlength=n)
        # the fair-share level t such that active flow i gets weight_i * t
        with np.errstate(divide="ignore", invalid="ignore"):
            up_level = np.where(up_w > 0, up_res / up_w, np.inf)
            down_level = np.where(down_w > 0, down_res / down_w, np.inf)
        # demand caps translate to per-flow levels
        demand_level = demands[active] / weights[active]
        level = min(
            float(np.min(up_level)),
            float(np.min(down_level)),
            float(np.min(demand_level)) if demand_level.size else np.inf,
        )
        level = max(level, 0.0)
        rates[active] = weights[active] * level
        # freeze flows through saturated nodes or at their demand cap.
        # Saturation is judged on the residual left after this round's
        # grant, with slack *relative* to the constraint's own scale: the
        # old absolute 1e-12 slack was below one float ulp at Gbps-scale
        # capacities/demands, so ``res / w * w`` round-trip rounding could
        # leave every test false and stall filling with flows frozen far
        # below their fair share.
        up_sat = up_res - up_w * level <= _SAT_TOL * np.maximum(up_cap, 1.0)
        down_sat = down_res - down_w * level <= _SAT_TOL * np.maximum(down_cap, 1.0)
        newly = active & (
            up_sat[srcs]
            | down_sat[dsts]
            | (weights * level >= demands * (1.0 - _SAT_TOL))
        )
        if not np.any(newly):
            # unreachable with the relative test (the arg-min constraint
            # saturates by construction); guard against pathological
            # input rather than looping forever
            frozen[active] = True
            break
        frozen |= newly
    return rates


def check_node_capacity(
    snapshot: BandwidthSnapshot, up_used, down_used, *, tol: float = RATE_TOL
) -> None:
    """The capacity rule: per-node usage against the snapshot's links.

    ``up_used[i]`` / ``down_used[i]`` are node ``i``'s summed outgoing /
    incoming rates (Mbps).  Raises ``ValueError`` naming the first
    violated node constraint; the tolerance is relative to each node's
    capacity, with an absolute floor: 1e-5 Mbps is ~1 byte/s, far below
    scheduling resolution, so quantisation drift of that order is not a
    violation.
    """
    links = zip(
        up_used, snapshot.uplink.tolist(), down_used, snapshot.downlink.tolist()
    )
    # the slack is positive, so only usage above capacity needs it worked out
    for node, (up, up_cap, down, down_cap) in enumerate(links):
        if up > up_cap and up > up_cap + max(tol * up_cap, 1e-5):
            raise ValueError(
                f"uplink of node {node} oversubscribed: "
                f"{up:.6f} > {up_cap:.6f} Mbps"
            )
        if down > down_cap and down > down_cap + max(tol * down_cap, 1e-5):
            raise ValueError(
                f"downlink of node {node} oversubscribed: "
                f"{down:.6f} > {down_cap:.6f} Mbps"
            )


def validate_rates(
    snapshot: BandwidthSnapshot,
    flows: list[Flow],
    rates,
    *,
    tol: float = RATE_TOL,
) -> None:
    """Check an explicit rate vector against node capacities.

    Raises ``ValueError`` naming the first violated node constraint
    (:func:`check_node_capacity`).
    """
    rates = np.asarray(rates, dtype=np.float64)
    if rates.shape != (len(flows),):
        raise ValueError("rates must align with flows")
    if np.any(rates < -tol):
        raise ValueError("rates must be non-negative")
    n = snapshot.num_nodes
    srcs = np.array([f.src for f in flows], dtype=np.intp)
    dsts = np.array([f.dst for f in flows], dtype=np.intp)
    check_node_capacity(
        snapshot,
        np.bincount(srcs, weights=rates, minlength=n).tolist(),
        np.bincount(dsts, weights=rates, minlength=n).tolist(),
        tol=tol,
    )
