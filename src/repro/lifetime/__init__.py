"""Fleet-lifetime durability campaigns: the top of the stack.

Everything below this package evaluates *one repair at a time* — how
fast a stripe rebuilds, what a scenario's recovery loop does over
minutes.  ``repro.lifetime`` asks the question those layers exist
for: **how durable is the fleet over years**, as a function of repair
speed, placement policy and throttle behaviour.

* :class:`~repro.net.topology.DomainTree` (re-exported here) —
  hierarchical failure domains (DC → rack → machine → disk) with
  correlated fan-out and placement spread checks; the one containment
  tree, shared with the rack-trunk network model.
* :mod:`~repro.lifetime.processes` — pluggable failure/repair clock
  distributions: exponential, Weibull (infant mortality / wear-out),
  and trace-driven empirical resampling.
* :mod:`~repro.lifetime.stripes` — the compact stripe-population
  table: one surviving-chunk word per placement group (per-stripe
  bitmaps derived), lazy promotion for stripes under active repair.
* :mod:`~repro.lifetime.campaign` — the `LifetimeCampaign` driver:
  years of failures racing the real
  :class:`~repro.recovery.orchestrator.RecoveryOrchestrator`,
  data-loss detection, exposure sketches, loss post-mortems.
* :mod:`~repro.lifetime.analytic` — exact Markov-chain MTTDL, the
  closed-form cross-check the simulator must reproduce.
* :mod:`~repro.lifetime.montecarlo` — independent-seed trial fan-out
  reducing to MTTDL and durability nines with exact Poisson
  confidence intervals.
"""

from ..net.topology import LEVELS, DomainTree
from .analytic import markov_mttdl, markov_mttdl_years
from .campaign import (
    CampaignResult,
    LifetimeConfig,
    LossEvent,
    RepairModel,
    StripeTableSystem,
    run_campaign,
    with_pipeline_factor,
)
from .montecarlo import (
    MonteCarloResult,
    poisson_rate_ci,
    run_monte_carlo,
    sweep_repair_speed,
)
from .processes import (
    SECONDS_PER_YEAR,
    ExponentialProcess,
    LifetimeProcess,
    TraceProcess,
    WeibullProcess,
)
from .stripes import ActiveStripe, GroupLoss, StripeTable

__all__ = [
    "ActiveStripe",
    "CampaignResult",
    "DomainTree",
    "ExponentialProcess",
    "GroupLoss",
    "LEVELS",
    "LifetimeConfig",
    "LifetimeProcess",
    "LossEvent",
    "MonteCarloResult",
    "RepairModel",
    "SECONDS_PER_YEAR",
    "StripeTable",
    "StripeTableSystem",
    "TraceProcess",
    "WeibullProcess",
    "markov_mttdl",
    "markov_mttdl_years",
    "poisson_rate_ci",
    "run_campaign",
    "run_monte_carlo",
    "sweep_repair_speed",
    "with_pipeline_factor",
]
