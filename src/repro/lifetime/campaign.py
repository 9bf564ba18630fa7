"""Fleet-lifetime durability campaigns: years of failures vs. repair.

A :func:`run_campaign` drives the whole repair stack over simulated
years: hierarchical failure processes (:mod:`.processes`) break disks,
machines and racks of a :class:`~repro.net.topology.DomainTree`;
the compact :class:`~repro.lifetime.stripes.StripeTable` tracks every
stripe's surviving chunks; and the production
:class:`~repro.recovery.orchestrator.RecoveryOrchestrator` — budgeted
admission, SLO throttle, durability-exposure priority, the real
control loop — races the failures to rebuild lost chunks before a
stripe drops below ``k`` survivors.  Every time it loses that race the
campaign records a **data-loss event** with a post-mortem of what the
orchestrator was doing (queue depth, in-flight, throttle, the failure
burst that finished the stripe).

Two repair couplings:

* ``repair="orchestrated"`` — repairs flow through the orchestrator
  against an analytic repair-time model
  (:class:`RepairModel`); ``pipeline_factor`` interpolates between
  FullRepair-style pipelined rebuild cost (≈ one chunk of traffic per
  repaired chunk) and conventional ``k``-chunk fan-in, which is the
  repair-speed knob durability nines respond to.
* ``repair="process"`` — no orchestrator: every destroyed chunk gets
  an independent exponential rebuild clock and disks fail as
  instantaneous destruction pulses.  This is *exactly* the
  birth–death Markov chain of classic MTTDL analysis
  (:mod:`repro.lifetime.analytic`), kept as a cross-check target.

Campaigns are deterministic per seed: every random stream is a
``numpy`` generator keyed ``(seed, level, unit)``, and all scheduling
goes through the deterministic :class:`~repro.sim.events.EventQueue`
(this is the first tier-1 consumer pushing the engine's million-event
path end-to-end).
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from ..faults import COMPLETED, FAILED
from ..net.topology import DomainTree
from ..obs.fleet import TDigest
from ..obs.observer import build_observer
from ..recovery.orchestrator import RecoveryConfig, RecoveryOrchestrator
from ..sim.events import EventQueue
from .processes import SECONDS_PER_YEAR, ExponentialProcess, LifetimeProcess
from .stripes import StripeTable

__all__ = [
    "RepairModel",
    "LifetimeConfig",
    "LossEvent",
    "CampaignResult",
    "StripeTableSystem",
    "run_campaign",
]

# Distinct sub-stream keys per level so unit clocks never collide.
_LEVEL_STREAM = {"disk": 11, "machine": 13, "rack": 17}
_REBUILD_STREAM = 23


@dataclass(frozen=True)
class RepairModel:
    """Analytic repair-time model for placement-group rebuilds.

    Rebuilding ``lost`` chunks of a ``stripes``-stripe group moves
    ``stripes * lost * chunk_mib * pipeline_factor`` MiB through a
    repair pipe of ``share * node_mbps`` Mb/s (``share`` is the budget
    share the orchestrator granted).  ``pipeline_factor`` is the
    repair-speed knob: ``1.0`` models FullRepair-style pipelining
    (repair traffic ≈ one chunk per rebuilt chunk), while ``k`` models
    conventional rebuild fan-in reading ``k`` chunks per rebuilt one —
    the gap the paper's evaluation sweeps.
    """

    chunk_mib: float = 16.0
    node_mbps: float = 1000.0
    pipeline_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.chunk_mib <= 0 or self.node_mbps <= 0:
            raise ValueError("chunk_mib and node_mbps must be positive")
        if self.pipeline_factor < 1.0:
            raise ValueError("pipeline_factor must be >= 1")

    def seconds(self, stripes: int, lost: int, share: float) -> float:
        mbits = stripes * lost * self.chunk_mib * 8.0 * self.pipeline_factor
        # ``max(share, 1e-6)`` and ``max(1.0, ...)`` as the comparisons
        # ``max()`` makes (NaN included), without its call: every
        # dispatch asks
        rate = (1e-6 if 1e-6 > share else share) * self.node_mbps
        seconds = mbits / rate
        return seconds if seconds > 1.0 else 1.0  # none settles in under 1 s


class _SimOutcome:
    """Duck-typed stand-in for :class:`repro.cluster.system.RepairOutcome`.

    Read-only to its consumers, so the few distinct outcomes are built
    once (below) and shared by every chunk they settle.
    """

    __slots__ = ("status", "verified", "failure_reason")

    def __init__(self, status: str, verified: bool, reason: str | None):
        self.status = status
        self.verified = verified
        self.failure_reason = reason


_REBUILT = _SimOutcome(COMPLETED, True, None)
_LOST_IN_FLIGHT = _SimOutcome(FAILED, False, "data lost while repair in flight")
_DEADLINE = _SimOutcome(FAILED, False, "repair deadline exceeded")
_UNDECODABLE = _SimOutcome(
    FAILED, False, "fewer than k chunks reachable to decode"
)
_TARGET_OFFLINE = _SimOutcome(
    FAILED, False, "rebuild target offline at completion"
)


class StripeTableSystem:
    """Duck-typed cluster surface backed by a :class:`StripeTable`.

    Implements exactly the slice of
    :class:`~repro.cluster.system.ClusterSystem` the recovery
    orchestrator consumes — failure listeners, stripe lookup, repair
    dispatch — against bitmap state and the analytic
    :class:`RepairModel` instead of chunk payloads, so campaigns over
    millions of stripes never materialise a byte of data.  It doubles
    as its own ``master`` (stripe lookup promotes lazily).  ``live`` is
    the ascending list of disks not down — the rebuild targets — and
    ``live_mask`` the same set as a disk bit mask; whoever writes
    ``down`` keeps both current (:meth:`_Campaign._set_down`).
    """

    def __init__(
        self,
        table: StripeTable,
        tree: DomainTree,
        events: EventQueue,
        down,
        *,
        repair_model: RepairModel,
        tracer=None,
        metrics=None,
        slo=None,
    ):
        self.table = table
        self.tree = tree
        self.events = events
        self.down = down
        self.live = [d for d in range(tree.num_disks) if not down[d]]
        self.live_mask = sum(1 << d for d in self.live)
        self.repair_model = repair_model
        #: the orchestrator reports through it (spans keep the tracer's
        #: own clock: a campaign binds none)
        self.obs = build_observer(tracer=tracer, metrics=metrics, slo=slo)
        self._listeners: list = []
        self.repairs_dispatched = 0
        self.chunk_failures = 0  # chunk rebuild attempts that failed

    # ---- topology / liveness ------------------------------------------- #

    @property
    def master(self) -> "StripeTableSystem":
        return self

    def stripe(self, stripe_id: str):
        return self.table.promote(self.table.group_of_id(stripe_id))

    def add_failure_listener(self, callback) -> None:
        self._listeners.append(callback)

    def notify_failure(self, disk: int) -> None:
        for callback in list(self._listeners):
            callback(disk)

    # ---- stripe intake -------------------------------------------------- #

    def stripes_on(self, disk: int) -> list[str]:
        table = self.table
        ids = table.group_ids
        # Pre-filtered to groups actually missing data: the intake path
        # runs once per group per failure, and handing back healthy
        # groups would cost an unavailable_nodes() tuple each.
        return [
            ids[p]
            for p in table.groups_on(disk)
            if not table.lost[p] and table.surviving(p) < table.n
        ]

    def unavailable_nodes(self, stripe_id: str) -> tuple[int, ...]:
        table = self.table
        group = table.group_of_id(stripe_id)
        if table.lost[group]:
            return ()  # beyond repair; exposure no longer actionable
        return table.destroyed_disks(group)

    def exposure(self, stripe_id: str) -> int:
        # Bitmap-native: the tuple unavailable_nodes() builds only to
        # take its length was the profiler's top allocation site, since
        # the intake and reprioritise loops ask for every candidate
        # group of every failure.
        table = self.table
        group = table.group_of_id(stripe_id)
        if table.lost[group]:
            return 0
        return table.n - table.surviving(group)

    # ---- repair dispatch ------------------------------------------------ #

    def repair_async(
        self,
        stripe_id: str,
        failed_node: int,
        requester: int,
        *,
        on_done,
        bandwidth_scale: float = 1.0,
    ) -> None:
        self._dispatch(
            stripe_id,
            ((failed_node, requester),),
            bandwidth_scale,
            None,
            lambda outcomes: on_done(outcomes[failed_node]),
        )

    def repair_multi_async(
        self,
        stripe_id: str,
        lost,
        requester_for,
        *,
        on_done,
        bandwidth_scale: float = 1.0,
        deadline_s: float | None = None,
    ) -> None:
        self._dispatch(
            stripe_id,
            tuple((f, requester_for[f]) for f in lost),
            bandwidth_scale,
            deadline_s,
            on_done,
        )

    def _dispatch(self, stripe_id, pairs, share, deadline_s, deliver) -> None:
        group = self.table.group_of_id(stripe_id)
        duration = self.repair_model.seconds(
            self.table.group_size(group), len(pairs), share
        )
        self.repairs_dispatched += 1
        if deadline_s is not None and duration > deadline_s:
            # the deadline is the orchestrator's liveness guarantee: a
            # miss reports failed at the deadline instead of wedging
            self.events.schedule(
                deadline_s,
                lambda: deliver(self._fail_all(group, pairs, _DEADLINE)),
            )
            return
        self.events.schedule(
            duration, lambda: deliver(self._complete(group, pairs))
        )

    def _fail_all(self, group, pairs, outcome) -> dict[int, _SimOutcome]:
        self.table.demote(group)
        self.chunk_failures += len(pairs)
        return {node: outcome for node, _ in pairs}

    def _complete(self, group, pairs) -> dict[int, _SimOutcome]:
        """Settle a rebuild at its completion time.

        The fleet moved while the repair was in flight, so everything
        is re-validated against *current* state: the group may be past
        saving, rebuild targets may have gone down, and fewer than
        ``k`` chunks may remain reachable to decode from.
        """
        table = self.table
        if table.lost[group]:
            return self._fail_all(group, pairs, _LOST_IN_FLIGHT)
        destroyed = table.destroyed_slots(group)
        decodable = table.available(group) >= table.k
        down = self.down
        outcomes: dict[int, _SimOutcome] = {}
        repairs: list[tuple[int, int]] = []
        for node, target in pairs:
            for slot, disk in destroyed:
                if disk == node:
                    break
            else:
                slot = None
            if slot is None:
                # healed under us (stale dispatch) — report success
                outcome = _REBUILT
            elif not decodable:
                outcome = _UNDECODABLE
            elif down[target]:
                outcome = _TARGET_OFFLINE
            else:
                repairs.append((slot, target))
                outcome = _REBUILT
            if outcome.status == FAILED:
                self.chunk_failures += 1
            outcomes[node] = outcome
        if repairs:
            table.rebuild(group, repairs, self.events.now, down)
        table.demote(group)
        return outcomes


@dataclass(frozen=True)
class LifetimeConfig:
    """Knobs of one fleet-lifetime campaign.

    The fleet shape comes from the :class:`DomainTree` branching
    factors; stripes spread over ``placement_groups`` shared placement
    patterns generated under the (``spread_level``,
    ``max_per_domain``) policy (or taken verbatim from ``patterns``).
    ``disk_process`` failures destroy chunk data; ``machine_process``
    / ``rack_process`` failures are correlated *transient* outages —
    every disk underneath goes unreachable, data intact.

    ``repair`` selects the coupling: ``"orchestrated"`` runs the real
    recovery control loop with the listed recovery knobs;
    ``"process"`` runs independent per-chunk exponential rebuild
    clocks (``disk_process.sample_downtime`` is the rebuild time) with
    pulse-style disk failures and no replacement logistics — the
    Markov-chain idealisation used for analytic cross-checks.
    """

    n: int = 14
    k: int = 10
    num_stripes: int = 100_000
    placement_groups: int = 64
    years: float = 1.0
    seed: int = 0
    # fleet shape
    dcs: int = 1
    racks_per_dc: int = 4
    machines_per_rack: int = 4
    disks_per_machine: int = 4
    spread_level: str = "machine"
    max_per_domain: int = 1
    patterns: tuple[tuple[int, ...], ...] | None = None
    # lifetime processes
    disk_process: LifetimeProcess = field(
        default_factory=lambda: ExponentialProcess.from_years(
            4.0, mttr_hours=24.0
        )
    )
    machine_process: LifetimeProcess | None = None
    rack_process: LifetimeProcess | None = None
    # repair coupling
    repair: str = "orchestrated"
    repair_model: RepairModel = field(default_factory=RepairModel)
    budget_fraction: float = 0.5
    max_concurrent: int = 8
    tick_s: float = 900.0

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.n <= 32:
            raise ValueError("need 1 <= k < n <= 32")
        if self.repair not in ("orchestrated", "process"):
            raise ValueError("repair must be 'orchestrated' or 'process'")
        if self.years <= 0:
            raise ValueError("years must be positive")
        if self.placement_groups < 1:
            raise ValueError("placement_groups must be positive")
        if self.num_stripes < self.placement_groups:
            raise ValueError("need at least one stripe per placement group")
        if (
            self.patterns is not None
            and len(self.patterns) != self.placement_groups
        ):
            raise ValueError("patterns must have one row per placement group")
        # validates the recovery knobs in both repair modes
        self.recovery_config()

    @property
    def horizon_s(self) -> float:
        return self.years * SECONDS_PER_YEAR

    @property
    def stripe_years(self) -> float:
        return self.num_stripes * self.years

    def build_tree(self) -> DomainTree:
        return DomainTree.uniform(
            dcs=self.dcs,
            racks_per_dc=self.racks_per_dc,
            machines_per_rack=self.machines_per_rack,
            disks_per_machine=self.disks_per_machine,
        )

    def recovery_config(self) -> RecoveryConfig:
        return RecoveryConfig(
            budget_fraction=self.budget_fraction,
            max_concurrent=self.max_concurrent,
            tick_s=self.tick_s,
            # analytic repairs always finish: no liveness deadline
            multi_deadline_s=None,
        )


@dataclass(frozen=True)
class LossEvent:
    """Post-mortem of one data-loss event.

    Captures both *which failure burst* finished the stripe group
    (trigger + the most recent fleet failures) and *what the
    orchestrator was doing* at that instant (queue depth, in-flight
    repairs, committed budget, throttle, and whether this group was
    queued, in flight, or dead-lettered when it died).
    """

    time_s: float
    group: int
    stripe_id: str
    stripes: int
    surviving: int
    destroyed_disks: tuple[int, ...]
    trigger_level: str
    trigger_unit: int
    recent_failures: tuple[tuple[float, str, int], ...]
    group_state: str
    queue_depth: int
    inflight: int
    committed_fraction: float
    throttle: float

    @property
    def time_years(self) -> float:
        return self.time_s / SECONDS_PER_YEAR


@dataclass
class CampaignResult:
    """Everything one campaign run produced (picklable for fan-out)."""

    config: LifetimeConfig
    stripe_years: float
    failures: dict[str, int]
    chunks_destroyed: int
    chunks_rebuilt: int
    repairs_dispatched: int
    chunk_repair_failures: int
    loss_events: tuple[LossEvent, ...]
    stripes_lost: int
    exposure_digest: TDigest
    below_k_digest: TDigest
    surviving_histogram: tuple[int, ...]
    events_executed: int
    peak_pending: int
    wall_s: float
    # orchestrated-mode extras (zero in process mode)
    dead_letters: int = 0
    requeues: int = 0
    skipped: int = 0
    throttle_shrinks: int = 0
    throttle_restores: int = 0
    spread_fallbacks: int = 0
    ticks: int = 0


class _Campaign:
    """One campaign's mutable state and event-loop callbacks."""

    def __init__(self, config: LifetimeConfig, *, tracer, metrics, slo):
        self.config = config
        self.tree = config.build_tree()
        if config.patterns is not None:
            patterns = np.asarray(config.patterns, dtype=np.int32)
            if patterns.ndim != 2 or patterns.shape[1] != config.n:
                raise ValueError("patterns must be (groups, n)")
            if patterns.min() < 0 or patterns.max() >= self.tree.num_disks:
                raise ValueError("pattern references a disk outside the tree")
        else:
            patterns = self.tree.spread_placements(
                config.placement_groups,
                config.n,
                level=config.spread_level,
                max_per_domain=config.max_per_domain,
                seed=config.seed,
            )
        self.table = StripeTable(config.num_stripes, patterns, k=config.k)
        self.events = EventQueue()
        self.down_counts = [0] * self.tree.num_disks
        self.down = [False] * self.tree.num_disks
        self.failures = {"disk": 0, "machine": 0, "rack": 0}
        self.recent: deque[tuple[float, str, int]] = deque(maxlen=8)
        self.losses: list[LossEvent] = []
        self._rebuild_rng = np.random.default_rng(
            [config.seed, _REBUILD_STREAM]
        )
        self.system: StripeTableSystem | None = None
        self.orchestrator: RecoveryOrchestrator | None = None
        if config.repair == "orchestrated":
            self.system = StripeTableSystem(
                self.table,
                self.tree,
                self.events,
                self.down,
                repair_model=config.repair_model,
                tracer=tracer,
                metrics=metrics,
                slo=slo,
            )
            self.orchestrator = RecoveryOrchestrator(
                self.system,
                config.recovery_config(),
                slo=slo,
                tree=self.tree,
                spread_level=config.spread_level,
                max_per_domain=config.max_per_domain,
            )

    # ---- unit clocks ---------------------------------------------------- #

    def arm_all(self) -> None:
        cfg = self.config
        self._arm_level("disk", cfg.disk_process, self.tree.num_disks)
        if cfg.machine_process is not None:
            self._arm_level(
                "machine", cfg.machine_process, self.tree.num_machines
            )
        if cfg.rack_process is not None:
            self._arm_level("rack", cfg.rack_process, self.tree.num_racks)

    def _arm_level(self, level: str, proc: LifetimeProcess, units: int):
        stream = _LEVEL_STREAM[level]
        for unit in range(units):
            rng = np.random.default_rng([self.config.seed, stream, unit])
            self._arm(level, unit, rng, proc)

    def _arm(self, level, unit, rng, proc) -> None:
        life = proc.sample_lifetime(rng)
        if self.events.now + life < self.config.horizon_s:
            self.events.schedule(
                life, lambda: self._fail(level, unit, rng, proc)
            )

    def _fail(self, level, unit, rng, proc) -> None:
        now = self.events.now
        self.failures[level] += 1
        self.recent.append((now, level, unit))
        downtime = proc.sample_downtime(rng)
        if level == "disk":
            self._fail_disk(unit, rng, proc, downtime, now)
            return
        # Correlated transient outage: the event takes down every disk
        # in the subtree at once; data stays intact.
        fan = self.tree.disks_under(level, unit).tolist()
        for d in fan:
            self._set_down(d, +1)
        def recover():
            for d in fan:
                self._set_down(d, -1)
            self._arm(level, unit, rng, proc)
        self.events.schedule(downtime, recover)

    def _fail_disk(self, disk, rng, proc, downtime, now) -> None:
        if self.config.repair == "process":
            # Pulse semantics (Markov idealisation): data destroyed,
            # disk immediately back; each destroyed chunk gets its own
            # rebuild clock drawn from the process's downtime.
            touched, losses = self.table.destroy_disk(disk, now, self.down)
            self._post_mortem(losses, "disk", disk)
            for group in touched:
                if not self.table.lost[group]:
                    self._arm_chunk_rebuild(
                        group, self.table.slot_of(group, disk), disk, proc
                    )
            self._arm("disk", disk, rng, proc)
            return
        self._set_down(disk, +1)
        touched, losses = self.table.destroy_disk(disk, now, self.down)
        self._post_mortem(losses, "disk", disk)
        if touched and self.system is not None:
            self.system.notify_failure(disk)
        def replaced():
            # replacement arrives empty: availability recovers, data
            # comes back only through repair
            self._set_down(disk, -1)
            self._arm("disk", disk, rng, proc)
        self.events.schedule(downtime, replaced)

    def _arm_chunk_rebuild(self, group, slot, disk, proc) -> None:
        delay = proc.sample_downtime(self._rebuild_rng)
        def rebuilt():
            table = self.table
            if table.lost[group] or table.has_chunk(group, slot):
                return
            table.rebuild(group, [(slot, disk)], self.events.now, self.down)
        self.events.schedule(delay, rebuilt)

    def _set_down(self, disk: int, delta: int) -> None:
        """The one writer of ``down`` (overlapping outages nest), and
        so of the system's live-disk list and mask derived from it."""
        before = self.down_counts[disk]
        after = self.down_counts[disk] = before + delta
        if (before > 0) == (after > 0):
            return
        self.down[disk] = after > 0
        system = self.system
        if system is not None:
            live = system.live
            if after > 0:
                del live[bisect_left(live, disk)]
            else:
                insort(live, disk)
            system.live_mask ^= 1 << disk
        self.table.touch_disk(disk, self.events.now, self.down)

    # ---- loss post-mortems ---------------------------------------------- #

    def _post_mortem(self, group_losses, level: str, unit: int) -> None:
        for loss in group_losses:
            orch = self.orchestrator
            gid = self.table.group_ids[loss.group]
            if orch is None:
                state = "untracked"
                depth = inflight = 0
                committed = 0.0
                throttle = 1.0
            else:
                if gid in orch._inflight:
                    state = "in-flight"
                elif gid in orch.queue:
                    state = "queued"
                elif gid in orch.dead_letters:
                    state = "dead-letter"
                else:
                    state = "idle"
                depth = len(orch.queue)
                inflight = orch.inflight
                committed = orch.committed_fraction
                throttle = orch.throttle
            self.losses.append(
                LossEvent(
                    time_s=loss.time_s,
                    group=loss.group,
                    stripe_id=gid,
                    stripes=loss.stripes,
                    surviving=loss.surviving,
                    destroyed_disks=loss.destroyed_disks,
                    trigger_level=level,
                    trigger_unit=unit,
                    recent_failures=tuple(self.recent),
                    group_state=state,
                    queue_depth=depth,
                    inflight=inflight,
                    committed_fraction=committed,
                    throttle=throttle,
                )
            )


def run_campaign(
    config: LifetimeConfig,
    *,
    tracer=None,
    metrics=None,
    slo=None,
    profiler=None,
) -> CampaignResult:
    """Run one fleet-lifetime campaign to its horizon.

    Deterministic per ``config.seed``.  ``tracer`` / ``metrics`` /
    ``slo`` plug the usual observability stack into the orchestrated
    path (all default to off — campaigns are hot loops);
    ``profiler`` attaches an
    :class:`~repro.obs.prof.EngineProfiler` to the event queue.
    """
    start = time.perf_counter()
    campaign = _Campaign(config, tracer=tracer, metrics=metrics, slo=slo)
    if profiler is not None:
        campaign.events.profiler = profiler
    if campaign.orchestrator is not None:
        campaign.orchestrator.start()
    campaign.arm_all()
    campaign.events.run(until=config.horizon_s)
    campaign.table.finalize(config.horizon_s)
    wall = time.perf_counter() - start

    table = campaign.table
    orch = campaign.orchestrator
    system = campaign.system
    return CampaignResult(
        config=config,
        stripe_years=config.stripe_years,
        failures=dict(campaign.failures),
        chunks_destroyed=table.chunks_destroyed,
        chunks_rebuilt=table.chunks_rebuilt,
        repairs_dispatched=(
            system.repairs_dispatched if system is not None else 0
        ),
        chunk_repair_failures=(
            system.chunk_failures if system is not None else 0
        ),
        loss_events=tuple(campaign.losses),
        stripes_lost=table.stripes_lost,
        exposure_digest=table.exposure_digest,
        below_k_digest=table.below_k_digest,
        surviving_histogram=tuple(
            int(c) for c in table.surviving_histogram()
        ),
        events_executed=campaign.events.executed,
        peak_pending=campaign.events.peak_pending,
        wall_s=wall,
        dead_letters=len(orch.dead_letters) if orch is not None else 0,
        requeues=orch.requeues if orch is not None else 0,
        skipped=orch.skipped if orch is not None else 0,
        throttle_shrinks=orch.throttle_shrinks if orch is not None else 0,
        throttle_restores=orch.throttle_restores if orch is not None else 0,
        spread_fallbacks=orch.spread_fallbacks if orch is not None else 0,
        ticks=len(orch.timeline) if orch is not None else 0,
    )


def with_pipeline_factor(
    base: LifetimeConfig, factor: float
) -> LifetimeConfig:
    """``base`` with only ``repair_model.pipeline_factor`` changed —
    the FullRepair-vs-conventional repair-cost knob, everything else
    (fleet, processes, seed) held fixed so durability differences
    isolate what repair speed buys."""
    return replace(
        base, repair_model=replace(base.repair_model, pipeline_factor=factor)
    )
