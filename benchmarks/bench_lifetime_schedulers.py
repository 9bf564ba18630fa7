"""Extension benchmark — what a faster scheduler buys in durability.

Chains two pieces: (1) each scheduler's measured full-node recovery
makespan (the fullnode planner on ``bench_fullnode``'s stripes), scaled
from the bench's 640 MiB node to a production-scale 10 TB node; (2) a
:mod:`repro.lifetime` Monte-Carlo in the ``process`` regime on a
16-disk, (9, 6), 64-stripe fleet whose per-chunk rebuild clock has that
makespan as its mean — the same simulator ``bench_lifetime`` gates,
under a configuration in which the scheduler is the only thing that
varies (every failure and rebuild stream is seeded, so schedulers face
the same failure histories).

Expected shape: the fraction of lifetimes that lose data and the
degraded-exposure stripe-hours both fall with repair speed, so the
scheduler ranking from Figure 4 carries through to reliability.  The
accelerated MTTF (60 days, not years) keeps the loss counts off zero;
loss probability scales with repair window : MTTF, so the *relative*
comparison carries over to realistic MTTFs.
"""

from benchmarks.bench_fullnode import _specs_and_snapshot
from benchmarks.common import SEED, write_report
from repro.analysis import render_lifetime_sweep
from repro.core import plan_full_node_repair
from repro.lifetime import ExponentialProcess, LifetimeConfig, run_monte_carlo
from repro.net import units

#: Bench node holds 10 x 64 MiB; a production node ~10 TB.
SCALE_TO_PRODUCTION = (10 * 1024**4) / (10 * units.mib(64))

MTTF_S = 60 * 86_400.0
TRIALS = 150


def measured_makespans() -> dict[str, float]:
    """Seconds to recover one production-scale node, per scheduler."""
    specs, snap = _specs_and_snapshot()
    return {
        name: plan_full_node_repair(
            specs, snap, k=6, algorithm=name, strategy="batched"
        ).makespan_seconds * SCALE_TO_PRODUCTION
        for name in ("rp", "pivotrepair", "fullrepair")
    }


def scheduler_config(repair_seconds: float) -> LifetimeConfig:
    """One simulated year of the 16-disk fleet at this mean rebuild time."""
    return LifetimeConfig(
        n=9,
        k=6,
        num_stripes=64,
        placement_groups=64,
        years=1.0,
        seed=SEED,
        dcs=1,
        racks_per_dc=1,
        machines_per_rack=16,
        disks_per_machine=1,
        spread_level="disk",
        disk_process=ExponentialProcess(mttf_s=MTTF_S, mttr_s=repair_seconds),
        repair="process",
    )


def run_schedulers(makespans: dict[str, float], *, trials: int = TRIALS) -> dict:
    """One Monte-Carlo per scheduler, keyed like ``makespans``."""
    return {
        name: run_monte_carlo(scheduler_config(seconds), trials=trials, workers=1)
        for name, seconds in makespans.items()
    }


def loss_probability(mc) -> float:
    """Share of simulated lifetimes with at least one data-loss event."""
    return sum(1 for events in mc.per_trial_loss_events if events) / mc.trials


def exposed_stripe_hours(mc) -> float:
    """Mean stripe-hours per lifetime spent with a chunk missing."""
    return float(mc.exposure_digest.sum) / 3600.0 / mc.trials


def assert_faster_is_more_durable(results: dict) -> None:
    """The headline: the fastest scheduler is strictly the most durable."""
    fast, slow = results["fullrepair"], results["rp"]
    assert loss_probability(fast) < loss_probability(slow)
    assert exposed_stripe_hours(fast) < exposed_stripe_hours(slow)


def test_lifetime_schedulers(benchmark):
    def run():
        makespans = measured_makespans()
        return makespans, run_schedulers(makespans)

    makespans, results = benchmark.pedantic(run, rounds=1, iterations=1)
    ordered = sorted(makespans, key=makespans.get)
    assert ordered[0] == "fullrepair"
    write_report(
        "lifetime_schedulers",
        "full-node repair scaled to a 10 TB node, 60-day MTTF, "
        f"{TRIALS} one-year lifetimes\n"
        + render_lifetime_sweep(
            [(makespans[name] / 3600.0, results[name]) for name in ordered],
            knob="rebuild hours",
        )
        + "\n\n"
        + "\n".join(
            f"{name:>12}: P(loss) {loss_probability(results[name]):.3f}, "
            f"exposure {exposed_stripe_hours(results[name]):,.0f} stripe-hours"
            for name in ordered
        ),
    )
    # exposure tracks repair speed (small slack: a lost group stops
    # accruing exposure, and slower repair loses more groups)
    exposures = [exposed_stripe_hours(results[name]) for name in ordered]
    assert all(a <= b * 1.02 for a, b in zip(exposures, exposures[1:]))
    # loss probability is monotone (ties allowed at Monte-Carlo noise)
    losses = [loss_probability(results[name]) for name in ordered]
    assert all(a <= b + 0.05 for a, b in zip(losses, losses[1:]))
    assert_faster_is_more_durable(results)
