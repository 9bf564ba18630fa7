"""Robustness of the evaluation to the execution-model constants.

The transfer model has two free constants the paper does not pin down
numerically: the per-slice protocol overhead and the per-byte GF-combine
cost.  If the paper's conclusions only held at one parameter point, the
reproduction would be fragile; this module sweeps both constants across
generous ranges and reports whether the headline ordering —

    FullRepair < PPT/PivotRepair < RP   (transfer time)

survives at every point, plus how the FullRepair-vs-best-baseline margin
moves.  Used by ``benchmarks/reproduction.py`` and the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net import units
from ..repair.base import get_algorithm
from ..sim.transfer import COMPUTE_S_PER_BYTE, TransferParams, execute
from .experiments import make_fixed_context


@dataclass(frozen=True)
class SensitivityPoint:
    """Transfer times at one (overhead, compute-cost) setting."""

    slice_overhead_s: float
    compute_s_per_byte: float
    times: dict[str, float]

    @property
    def ordering_holds(self) -> bool:
        """FullRepair fastest, RP slowest among the pipelined schemes."""
        t = self.times
        fastest = min(t.values())
        return t["fullrepair"] <= fastest + 1e-12 and t["rp"] >= max(
            t["ppt"], t["pivotrepair"]
        ) - 1e-12

    @property
    def fullrepair_margin(self) -> float:
        """Best-baseline time over FullRepair time (>1 = FullRepair wins)."""
        baseline = min(v for k, v in self.times.items() if k != "fullrepair")
        return baseline / self.times["fullrepair"]


def sensitivity_sweep(
    *,
    overheads_s: tuple[float, ...] = (0.0, 100e-6, 500e-6, 2e-3),
    compute_costs: tuple[float, ...] = (0.0, COMPUTE_S_PER_BYTE, 1e-9, 5e-9),
    n: int = 6,
    k: int = 4,
    chunk_bytes: int = 64 * units.MIB,
    slice_bytes: int = 64 * units.KIB,
    seed: int = 11,
    algorithms: tuple[str, ...] = ("rp", "ppt", "pivotrepair", "fullrepair"),
    algorithm_kwargs: dict[str, dict] | None = None,
) -> list[SensitivityPoint]:
    """Grid-sweep the model constants; plans are computed once."""
    ctx = make_fixed_context(n, k, seed=seed)
    kwargs = algorithm_kwargs or {}
    plans = {
        name: get_algorithm(name, **kwargs.get(name, {})).plan(ctx)
        for name in algorithms
    }
    points: list[SensitivityPoint] = []
    for overhead in overheads_s:
        for compute in compute_costs:
            params = TransferParams(
                chunk_bytes=chunk_bytes,
                slice_bytes=slice_bytes,
                slice_overhead_s=overhead,
                compute_s_per_byte=compute,
            )
            times = {
                name: execute(plan, params).transfer_seconds
                for name, plan in plans.items()
            }
            points.append(
                SensitivityPoint(
                    slice_overhead_s=overhead,
                    compute_s_per_byte=compute,
                    times=times,
                )
            )
    return points
