"""Monte-Carlo durability harness: independent-seed campaign trials.

One campaign is one sample path; durability numbers need many.  This
module fans :func:`~repro.lifetime.campaign.run_campaign` out across
independent seeds (worker processes when the host allows them, serial
otherwise) and reduces the trials into the quantities
operators actually quote:

* **MTTDL** — loss events are treated as a Poisson process over the
  observed stripe-exposure (each placement group contributes time
  until its loss or the horizon, so early losses don't inflate the
  denominator).  The rate interval is the exact chi-squared /
  gamma construction — ``[χ²(α/2, 2L) / 2T, χ²(1−α/2, 2L+2) / 2T]``,
  computed here with :mod:`math` alone — which stays honest at the
  zero- and few-loss counts durable systems produce: zero observed
  losses yields a finite MTTDL *lower bound* and an infinite point
  estimate, not a division by zero.
* **Durability nines** — ``−log10`` of the annual per-stripe loss
  probability.  Because a loss event destroys its whole placement
  group, the per-stripe annual loss rate equals the per-group event
  rate, so the nines interval maps 1:1 from the MTTDL interval.
* **Exposure sketches** — per-trial TDigest sketches of degraded and
  below-``k`` window durations merge losslessly into fleet-level
  distributions (the sketches are built for exactly this).
* **Post-mortems** — the largest loss events across all trials, with
  the orchestrator snapshot each campaign captured at the instant of
  loss.

Trials use seeds ``seed, seed+1, …``; the reduction is deterministic
given the base config, regardless of worker scheduling.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import operator
from dataclasses import dataclass, replace

from ..obs.fleet import TDigest
from .campaign import (
    CampaignResult,
    LifetimeConfig,
    LossEvent,
    run_campaign,
    with_pipeline_factor,
)
from .processes import SECONDS_PER_YEAR

__all__ = [
    "MonteCarloResult",
    "run_monte_carlo",
    "poisson_rate_ci",
    "sweep_repair_speed",
]


def poisson_rate_ci(
    events: int, exposure: float, confidence: float = 0.95
) -> tuple[float, float]:
    """Exact (chi-squared) CI for a Poisson rate, events per exposure.

    The standard garwood construction; ``events == 0`` gives a zero
    lower bound and a finite upper bound, which is what turns a
    loss-free simulation into an MTTDL *lower* bound instead of a
    meaningless infinity.  ``events`` must be an integer (anything
    :func:`operator.index` refuses raises ``TypeError``) and
    ``exposure`` finite and positive.
    """
    events = operator.index(events)
    if events < 0 or not 0.0 < exposure < math.inf:
        raise ValueError("need events >= 0 and finite positive exposure")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    alpha = 1.0 - confidence
    lo = 0.0
    if events > 0:
        lo = _gamma_quantile(alpha / 2.0, events) / exposure
    hi = _gamma_quantile(1.0 - alpha / 2.0, events + 1) / exposure
    return float(lo), float(hi)


def _gamma_quantile(q: float, m: int) -> float:
    """The ``q``-quantile of Gamma(m, 1) for an integer ``m >= 1``.

    That is ``chi2.ppf(q, 2m) / 2``: for integer ``m`` the Gamma CDF at
    ``x`` is the Poisson tail ``P[Poisson(x) >= m]``.  The tail that is
    the smaller one at the root (``i >= m`` for ``q < 1/2``, ``i < m``
    otherwise) is summed term by term, every term positive, so a tiny
    tail is never formed as ``1 - (the other tail)``.  Newton steps run
    on ``ln(tail)`` against ``ln x``, with the Gamma pdf as the
    derivative.  ``ln X`` has a log-concave density, so either
    ``ln(tail)`` is concave in ``ln x``: the first step lands on one
    side of the root and the rest close in from that side.
    """
    # Wilson–Hilferty start from a normal quantile good to 4.5e-4
    # (Abramowitz & Stegun 26.2.23), kept above the bound
    # x >= (q m!)^(1/m) that P[Poisson(x) >= m] <= x^m / m! gives
    t = math.sqrt(-2.0 * math.log(min(q, 1.0 - q)))
    z = math.copysign(
        t - (2.515517 + t * (0.802853 + t * 0.010328))
        / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))),
        q - 0.5,
    )
    x = max(
        m * max(1.0 - 1.0 / (9 * m) + z / (3.0 * math.sqrt(m)), 0.0) ** 3,
        math.exp((math.log(q) + math.lgamma(m + 1)) / m),
    )
    lower = q < 0.5
    target = math.log(q if lower else 1.0 - q)
    for _ in range(64):
        pdf = math.exp((m - 1) * math.log(x) - x - math.lgamma(m))
        if lower:  # P[Poisson(x) >= m], upward from i = m
            term = tail = pdf * x / m
            i = m
            while term > tail * 1e-17:
                i += 1
                term *= x / i
                tail += term
        else:  # P[Poisson(x) < m], downward from i = m - 1
            term = tail = pdf
            for i in range(m - 1, 0, -1):
                term *= i / x
                tail += term
                if term <= tail * 1e-17:
                    break
        # d ln(tail) / d ln(x) is +x·pdf/tail for P[Poisson(x) >= m]
        # and -x·pdf/tail for P[Poisson(x) < m]
        step = (target - math.log(tail)) * tail / (x * pdf)
        step = step if lower else -step
        x *= math.exp(step)
        if abs(step) <= 1e-12:
            break
    return x


@dataclass
class MonteCarloResult:
    """Reduction of independent campaign trials."""

    config: LifetimeConfig
    trials: int
    #: group-years actually observed (loss-censored), the Poisson exposure
    group_years: float
    stripe_years: float
    loss_events: int
    stripes_lost: int
    per_trial_loss_events: tuple[int, ...]
    per_trial_stripes_lost: tuple[int, ...]
    confidence: float
    #: mean time to data loss of one placement group / stripe, years
    mttdl_years: float
    mttdl_ci_years: tuple[float, float]
    #: −log10(annual per-stripe loss probability)
    nines: float
    nines_ci: tuple[float, float]
    exposure_digest: TDigest
    below_k_digest: TDigest
    post_mortems: tuple[LossEvent, ...]
    results: tuple[CampaignResult, ...]

    @property
    def zero_loss(self) -> bool:
        return self.loss_events == 0


def _run_trial(config: LifetimeConfig) -> CampaignResult:
    return run_campaign(config)


def _nines_from_rate(rate: float) -> float:
    """Annual per-stripe loss rate → durability nines."""
    if rate <= 0.0:
        return math.inf
    return -math.log10(min(rate, 1.0))


def run_monte_carlo(
    config: LifetimeConfig,
    *,
    trials: int = 4,
    workers: int | None = None,
    confidence: float = 0.95,
) -> MonteCarloResult:
    """Fan out ``trials`` independent-seed campaigns and reduce them.

    ``workers`` caps the process pool (``None`` = one per trial up to
    the CPU count; ``1`` or a sandbox that refuses process pools runs
    serially with identical results).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    configs = [replace(config, seed=config.seed + i) for i in range(trials)]
    results = _map_trials(configs, workers)

    per_events = tuple(len(r.loss_events) for r in results)
    per_stripes = tuple(r.stripes_lost for r in results)
    loss_events = sum(per_events)
    stripes_lost = sum(per_stripes)

    # Loss-censored exposure: a group stops accruing group-years the
    # moment it is lost.
    horizon_years = config.years
    group_years = float(
        trials * config.placement_groups * horizon_years
        - sum(
            horizon_years - loss.time_s / SECONDS_PER_YEAR
            for r in results
            for loss in r.loss_events
        )
    )
    rate_lo, rate_hi = poisson_rate_ci(loss_events, group_years, confidence)
    if loss_events:
        mttdl = group_years / loss_events
        rate = loss_events / group_years
    else:
        mttdl = math.inf
        rate = 0.0
    mttdl_ci = (
        1.0 / rate_hi if rate_hi > 0 else math.inf,
        1.0 / rate_lo if rate_lo > 0 else math.inf,
    )

    exposure = TDigest()
    below_k = TDigest()
    for r in results:
        exposure.merge(r.exposure_digest)
        below_k.merge(r.below_k_digest)
    post_mortems = tuple(
        sorted(
            (loss for r in results for loss in r.loss_events),
            key=lambda e: (-e.stripes, e.time_s),
        )[:5]
    )
    return MonteCarloResult(
        config=config,
        trials=trials,
        group_years=group_years,
        stripe_years=float(sum(r.stripe_years for r in results)),
        loss_events=loss_events,
        stripes_lost=stripes_lost,
        per_trial_loss_events=per_events,
        per_trial_stripes_lost=per_stripes,
        confidence=confidence,
        mttdl_years=mttdl,
        mttdl_ci_years=mttdl_ci,
        nines=_nines_from_rate(rate),
        nines_ci=(_nines_from_rate(rate_hi), _nines_from_rate(rate_lo)),
        exposure_digest=exposure,
        below_k_digest=below_k,
        post_mortems=post_mortems,
        results=tuple(results),
    )


def sweep_repair_speed(
    base: LifetimeConfig,
    pipeline_factors,
    *,
    trials: int = 2,
    workers: int | None = None,
    confidence: float = 0.95,
) -> list[tuple[float, MonteCarloResult]]:
    """Monte-Carlo the same fleet across repair-speed settings.

    Everything is held fixed except ``repair_model.pipeline_factor``
    (1.0 = FullRepair-pipelined, ``k`` = conventional serial rebuild),
    so the durability deltas — losses, MTTDL, nines — isolate what
    faster repair buys.  Returns ``[(factor, result), ...]`` in the
    order given, ready for
    :func:`repro.analysis.reporting.render_lifetime_sweep`.
    """
    return [
        (
            float(factor),
            run_monte_carlo(
                with_pipeline_factor(base, factor),
                trials=trials,
                workers=workers,
                confidence=confidence,
            ),
        )
        for factor in pipeline_factors
    ]


def _map_trials(
    configs: list[LifetimeConfig], workers: int | None
) -> list[CampaignResult]:
    if workers is None:
        workers = min(len(configs), mp.cpu_count() or 1)
    if workers > 1 and len(configs) > 1:
        try:
            ctx = mp.get_context()
            with ctx.Pool(processes=min(workers, len(configs))) as pool:
                return pool.map(_run_trial, configs)
        except (OSError, ValueError):  # sandboxed semaphores / no fork
            pass
    return [_run_trial(c) for c in configs]
