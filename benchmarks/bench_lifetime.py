"""Fleet-lifetime durability harness (``BENCH_lifetime.json``).

Three scored sections, one committed artefact:

**Gate campaign** — a fixed-seed (14, 10) campaign pushing one million
stripe-years (200k stripes x 5 simulated years) through the real
recovery orchestrator under accelerated aging.  Scored on throughput
(stripe-years simulated per wall-second) and, because every draw comes
from named seeded streams, on *exact* reproducibility: the loss-event
count, stripes lost, and event total must match the committed artefact
bit-for-bit.  A one-count drift means a stream moved — the determinism
contract the whole subsystem is built on.

**Markov cross-check** — a Monte-Carlo run in the ``process`` repair
regime (independent exponential per-chunk rebuild clocks), whose MTTDL
must bracket the closed-form birth-death-chain answer from
:func:`repro.lifetime.analytic.markov_mttdl` inside the simulated
confidence interval.  This pins the simulator to theory where theory
exists, so its answers can be trusted where theory doesn't reach.

**Repair-speed sweep** — the durability headline: the same fleet with
pipelined repair cost (factor 1, FullRepair) versus conventional
serial rebuild cost (factor 10 ~ k), showing losses and durability
nines responding to the repair-speed knob.

Run ``python -m benchmarks.bench_lifetime`` to regenerate the
committed artefact; ``tests/test_bench_lifetime.py`` re-runs the gate
tier on every tier-1 run.
"""

from __future__ import annotations

import sys
import time

from repro.lifetime import (
    ExponentialProcess,
    LifetimeConfig,
    RepairModel,
    SECONDS_PER_YEAR,
    markov_mttdl,
    run_campaign,
    run_monte_carlo,
    sweep_repair_speed,
)

from .common import write_json_report

SCHEMA_VERSION = 1

#: The fixed-seed gate campaign: one million stripe-years against the
#: real orchestrator.  These numbers are part of the artefact contract.
GATE_CONFIG = LifetimeConfig(
    n=14,
    k=10,
    num_stripes=200_000,
    placement_groups=128,
    years=5.0,
    seed=2023,
    disk_process=ExponentialProcess.from_years(0.25, mttr_hours=12.0),
    machine_process=ExponentialProcess.from_years(0.5, mttr_hours=4.0),
    repair_model=RepairModel(chunk_mib=16.0, node_mbps=600.0),
    budget_fraction=0.3,
    max_concurrent=8,
    tick_s=900.0,
)

#: Committed gate outcome — exact-match reproducibility contract.
GATE_EXPECTED = {"losses": 5, "stripes_lost": 7814, "events": 79619}

#: Reference throughput, stripe-years per wall-second: printed beside
#: the measured rate, never asserted — absolute timings do not travel
#: across machines (the machine-independent gate is the count gate in
#: ``tests/lifetime/test_control_plane_counts.py``).
GATE_MIN_STRIPE_YEARS_PER_S = 20_000.0

#: Markov cross-check: a (3, 2) fleet on disjoint placements in the
#: ``process`` regime, where the simulator IS the birth-death chain.
CROSSCHECK_GROUPS = 200
CROSSCHECK_MTTF_S = 2000.0
CROSSCHECK_MTTR_S = 150.0
CROSSCHECK_HORIZON_S = 30_000.0
CROSSCHECK_CONFIG = LifetimeConfig(
    n=3,
    k=2,
    num_stripes=CROSSCHECK_GROUPS,
    placement_groups=CROSSCHECK_GROUPS,
    years=CROSSCHECK_HORIZON_S / SECONDS_PER_YEAR,
    seed=11,
    dcs=1,
    racks_per_dc=1,
    machines_per_rack=1,
    disks_per_machine=3 * CROSSCHECK_GROUPS,
    spread_level="disk",
    patterns=tuple(
        tuple(range(g * 3, (g + 1) * 3)) for g in range(CROSSCHECK_GROUPS)
    ),
    disk_process=ExponentialProcess(
        mttf_s=CROSSCHECK_MTTF_S, mttr_s=CROSSCHECK_MTTR_S
    ),
    repair="process",
)

#: Repair-speed sweep fleet (small enough for the committed artefact).
SWEEP_CONFIG = LifetimeConfig(
    n=14,
    k=10,
    num_stripes=10_000,
    placement_groups=32,
    years=1.5,
    seed=2023,
    disk_process=ExponentialProcess.from_years(0.12, mttr_hours=12.0),
    machine_process=ExponentialProcess.from_years(0.5, mttr_hours=4.0),
    repair_model=RepairModel(chunk_mib=16.0, node_mbps=400.0),
    budget_fraction=0.3,
)
SWEEP_FACTORS = (1.0, 10.0)


def run_gate() -> dict:
    """The fixed-seed million-stripe-year campaign, scored."""
    start = time.perf_counter()
    result = run_campaign(GATE_CONFIG)
    wall_s = time.perf_counter() - start
    row = {
        "losses": len(result.loss_events),
        "stripes_lost": result.stripes_lost,
        "events": result.events_executed,
        "stripe_years": result.stripe_years,
        "chunks_destroyed": result.chunks_destroyed,
        "chunks_rebuilt": result.chunks_rebuilt,
        "repairs_dispatched": result.repairs_dispatched,
        "dead_letters": result.dead_letters,
        "peak_pending": result.peak_pending,
        "wall_s": round(wall_s, 3),
        "stripe_years_per_s": round(result.stripe_years / wall_s, 1),
    }
    row["matches_expected"] = all(
        row[key] == value for key, value in GATE_EXPECTED.items()
    )
    return row


def run_crosscheck(trials: int = 6, confidence: float = 0.99) -> dict:
    """Simulated MTTDL must bracket the closed-form Markov answer."""
    mc = run_monte_carlo(
        CROSSCHECK_CONFIG, trials=trials, confidence=confidence
    )
    analytic_s = markov_mttdl(
        CROSSCHECK_CONFIG.n,
        CROSSCHECK_CONFIG.k,
        1.0 / CROSSCHECK_MTTF_S,
        1.0 / CROSSCHECK_MTTR_S,
        repairs="independent",
    )
    sim_s = mc.mttdl_years * SECONDS_PER_YEAR
    lo_s = mc.mttdl_ci_years[0] * SECONDS_PER_YEAR
    hi_s = mc.mttdl_ci_years[1] * SECONDS_PER_YEAR
    return {
        "trials": trials,
        "confidence": confidence,
        "loss_events": mc.loss_events,
        "sim_mttdl_s": round(sim_s, 1),
        "sim_ci_s": [round(lo_s, 1), round(hi_s, 1)],
        "analytic_mttdl_s": round(analytic_s, 1),
        "analytic_within_ci": bool(lo_s <= analytic_s <= hi_s),
    }


def run_sweep(trials: int = 2) -> dict:
    """Durability nines versus the repair-speed knob."""
    rows = {}
    for factor, mc in sweep_repair_speed(
        SWEEP_CONFIG, SWEEP_FACTORS, trials=trials
    ):
        rows[f"pipeline_{factor:g}"] = {
            "losses": mc.loss_events,
            "stripes_lost": mc.stripes_lost,
            "mttdl_lower_years": round(mc.mttdl_ci_years[0], 2),
            "nines_lower": round(mc.nines_ci[0], 3),
        }
    pipelined = rows[f"pipeline_{SWEEP_FACTORS[0]:g}"]
    serial = rows[f"pipeline_{SWEEP_FACTORS[-1]:g}"]
    rows["pipelining_reduces_losses"] = bool(
        pipelined["losses"] < serial["losses"]
    )
    return rows


def _jsonable_cfg(cfg: LifetimeConfig) -> dict:
    return {
        "n": cfg.n,
        "k": cfg.k,
        "num_stripes": cfg.num_stripes,
        "placement_groups": cfg.placement_groups,
        "years": cfg.years,
        "seed": cfg.seed,
        "disk_mttf_s": cfg.disk_process.mttf_s,
        "repair": cfg.repair,
    }


def run(smoke: bool = False, out_path=None) -> dict:
    """Run the harness; returns (and writes) the report dict."""
    report = {
        "benchmark": "lifetime",
        "schema_version": SCHEMA_VERSION,
        "config": {
            "smoke": smoke,
            "gate": _jsonable_cfg(GATE_CONFIG),
            "gate_expected": dict(GATE_EXPECTED),
            "sweep_factors": list(SWEEP_FACTORS),
        },
        "gate": run_gate(),
        "crosscheck": run_crosscheck(),
        "sweep": run_sweep(),
    }
    write_json_report("lifetime", report, path=out_path)
    return report


def main() -> int:
    report = run(smoke="--smoke" in sys.argv)
    ok = (
        report["gate"]["matches_expected"]
        and report["crosscheck"]["analytic_within_ci"]
        and report["sweep"]["pipelining_reduces_losses"]
    )
    print(
        "lifetime bench: gate "
        f"{'MATCHES' if report['gate']['matches_expected'] else 'DRIFTED'}, "
        f"{report['gate']['stripe_years_per_s']:,.0f} stripe-years/s "
        f"(reference floor {GATE_MIN_STRIPE_YEARS_PER_S:,.0f}); "
        "crosscheck "
        f"{'OK' if report['crosscheck']['analytic_within_ci'] else 'OUT OF CI'}; "
        "sweep "
        f"{'OK' if report['sweep']['pipelining_reduces_losses'] else 'FLAT'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
