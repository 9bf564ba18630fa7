"""Monte-Carlo reduction: Poisson intervals, censoring, cross-check."""

import math

import numpy as np
import pytest

from repro.lifetime import (
    ExponentialProcess,
    LifetimeConfig,
    SECONDS_PER_YEAR,
    markov_mttdl,
    poisson_rate_ci,
    run_monte_carlo,
    sweep_repair_speed,
)

pytestmark = pytest.mark.lifetime

#: The Markov-regime fleet: (3, 2) groups on disjoint placements with
#: per-chunk exponential failure and rebuild clocks — the simulator
#: implements exactly the birth-death chain the closed form solves.
CROSSCHECK = LifetimeConfig(
    n=3,
    k=2,
    num_stripes=200,
    placement_groups=200,
    years=30_000.0 / SECONDS_PER_YEAR,
    seed=11,
    racks_per_dc=1,
    machines_per_rack=1,
    disks_per_machine=600,
    spread_level="disk",
    patterns=tuple(tuple(range(g * 3, (g + 1) * 3)) for g in range(200)),
    disk_process=ExponentialProcess(mttf_s=2000.0, mttr_s=150.0),
    repair="process",
)


class TestPoissonRateCI:
    def test_zero_events_gives_zero_lower_bound(self):
        lo, hi = poisson_rate_ci(0, 100.0)
        assert lo == 0.0
        assert hi > 0.0

    def test_interval_brackets_the_point_rate(self):
        lo, hi = poisson_rate_ci(10, 100.0)
        assert lo < 10 / 100.0 < hi

    def test_more_events_tightens_relative_width(self):
        lo1, hi1 = poisson_rate_ci(4, 100.0)
        lo2, hi2 = poisson_rate_ci(400, 10_000.0)
        assert (hi2 - lo2) / (400 / 10_000.0) < (hi1 - lo1) / (4 / 100.0)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            poisson_rate_ci(-1, 10.0)
        with pytest.raises(ValueError):
            poisson_rate_ci(1, 0.0)
        with pytest.raises(ValueError):
            poisson_rate_ci(1, 10.0, confidence=1.0)
        # a non-integer count has no Garwood interval
        with pytest.raises(TypeError):
            poisson_rate_ci(2.5, 10.0)
        for exposure in (math.nan, math.inf):
            with pytest.raises(ValueError):
                poisson_rate_ci(1, exposure)


class TestGarwoodEquivalence:
    """The in-repo interval is scipy's ``chi2.ppf`` construction.

    scipy is a test dependency only; this is its second user after the
    LP oracle.  The whole grid (events 0-1,000 x four confidences, both
    bounds) costs well under a second.
    """

    @pytest.mark.parametrize("confidence", (0.8, 0.9, 0.95, 0.99))
    def test_bounds_equal_scipy(self, confidence):
        from scipy.stats import chi2

        exposure, alpha = 37.5, 1.0 - confidence
        events = np.arange(1001)
        want_lo = chi2.ppf(alpha / 2.0, 2 * events) / (2.0 * exposure)
        want_hi = chi2.ppf(1.0 - alpha / 2.0, 2 * events + 2) / (2.0 * exposure)
        got = np.array(
            [poisson_rate_ci(e, exposure, confidence) for e in events.tolist()]
        )
        assert got[0, 0] == 0.0
        np.testing.assert_allclose(got[1:, 0], want_lo[1:], rtol=1e-12, atol=0)
        np.testing.assert_allclose(got[:, 1], want_hi, rtol=1e-12, atol=0)


class TestMarkovCrossCheck:
    def test_simulated_mttdl_brackets_the_closed_form(self):
        """The acceptance gate: Monte-Carlo MTTDL must agree with the
        exact Markov-chain answer within its own confidence interval."""
        mc = run_monte_carlo(CROSSCHECK, trials=6, confidence=0.99)
        analytic_s = markov_mttdl(3, 2, 1.0 / 2000.0, 1.0 / 150.0)
        assert mc.loss_events > 50  # enough statistics to mean anything
        lo_s = mc.mttdl_ci_years[0] * SECONDS_PER_YEAR
        hi_s = mc.mttdl_ci_years[1] * SECONDS_PER_YEAR
        assert lo_s <= analytic_s <= hi_s
        # and the point estimate lands in the right decade
        sim_s = mc.mttdl_years * SECONDS_PER_YEAR
        assert sim_s == pytest.approx(analytic_s, rel=0.5)


class TestReduction:
    @pytest.fixture(scope="class")
    def mc(self):
        return run_monte_carlo(CROSSCHECK, trials=3, confidence=0.95)

    def test_trials_use_consecutive_seeds_deterministically(self, mc):
        again = run_monte_carlo(CROSSCHECK, trials=3, confidence=0.95)
        assert again.per_trial_loss_events == mc.per_trial_loss_events
        assert again.group_years == mc.group_years
        assert [r.config.seed for r in mc.results] == [11, 12, 13]

    def test_exposure_is_loss_censored(self, mc):
        uncensored = 3 * CROSSCHECK.placement_groups * CROSSCHECK.years
        assert 0.0 < mc.group_years < uncensored

    def test_digests_merge_across_trials(self, mc):
        assert mc.exposure_digest.count == sum(
            r.exposure_digest.count for r in mc.results
        )

    def test_post_mortems_are_the_largest_losses(self, mc):
        assert len(mc.post_mortems) <= 5
        sizes = [loss.stripes for loss in mc.post_mortems]
        assert sizes == sorted(sizes, reverse=True)

    def test_nines_map_from_the_rate_interval(self, mc):
        assert mc.loss_events > 0
        rate = mc.loss_events / mc.group_years
        assert mc.nines == pytest.approx(-math.log10(min(rate, 1.0)))
        assert mc.nines_ci[0] <= mc.nines <= mc.nines_ci[1]
        assert not mc.zero_loss

    def test_zero_loss_yields_lower_bounds_not_nan(self):
        quiet = LifetimeConfig(
            n=6,
            k=4,
            num_stripes=160,
            placement_groups=16,
            years=0.5,
            disk_process=ExponentialProcess.from_years(1e6),
        )
        mc = run_monte_carlo(quiet, trials=2)
        assert mc.zero_loss
        assert mc.mttdl_years == math.inf
        assert mc.nines == math.inf
        assert 0.0 < mc.mttdl_ci_years[0] < math.inf
        assert mc.mttdl_ci_years[1] == math.inf
        assert 0.0 < mc.nines_ci[0] < math.inf

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            run_monte_carlo(CROSSCHECK, trials=0)


class TestSweep:
    def test_sweep_pairs_factors_with_results(self):
        small = LifetimeConfig(
            n=6,
            k=5,
            num_stripes=400,
            placement_groups=8,
            years=100_000.0 / SECONDS_PER_YEAR,
            seed=3,
            disks_per_machine=4,
            disk_process=ExponentialProcess(mttf_s=20_000.0, mttr_s=3600.0),
        )
        sweep = sweep_repair_speed(small, (1.0, 25.0), trials=2)
        assert [factor for factor, _ in sweep] == [1.0, 25.0]
        fast, slow = sweep[0][1], sweep[1][1]
        # slower repair can only hurt: weakly more losses, never fewer
        assert slow.loss_events >= fast.loss_events
