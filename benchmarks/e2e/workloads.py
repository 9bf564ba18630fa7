"""The five workloads: what is set up, what one timed op is, what is checked.

A workload is a small object the harness drives in *rounds*::

    state = wl.setup()                 # timed as set-up
    for i in range(wl.num_ops):
        wl.prepare(state, i)           # untimed
        result = wl.op(state, i)       # timed: one call into the program
        record, problems = wl.observe(state, i, result)   # untimed
    counters = wl.counters(state)      # public counters of the round

Every round of a run is built from the same seed and must reproduce
round 0's records bit for bit.  ``record`` is a flat tuple of the op's
deterministic outputs; ``problems`` lists violated invariants (bytes not
exact, ledger not conserved, ...), each of which fails the op.

What ``--seed`` drives is chosen per workload so that the *amount of
work* stays put across seeds (the benchmark is judged on the spread of
ten runs with ten seeds): it draws the planner's traces and contexts,
where thousands of draws average out, and the lifetime campaign's stripe
placements, but only payload bytes and kill instants on the three
cluster workloads, where a different bandwidth snapshot or fault
schedule moves the event count by tens of percent (46k-68k events across
seeds on ``recovery_campaign``).  Those three take bandwidth from a
fixed dataset (``DATASET_SEED``), as the paper takes it from fixed
measured traces.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from time import perf_counter_ns
from types import SimpleNamespace

import numpy as np

from repro.analysis.experiments import sample_contexts
from repro.cluster import ClusterSystem
from repro.core.plancache import PlanCache
from repro.ec import RSCode
from repro.faults import COMPLETED, ESCALATED, FAILED, FaultInjector
from repro.lifetime import (
    ExponentialProcess,
    LifetimeConfig,
    RepairModel,
    run_campaign,
)
from repro.net import units
from repro.obs import EngineProfiler, MetricsRegistry, Tracer as ObsTracer
from repro.recovery import run_recovery_scenario
from repro.repair.base import get_algorithm
from repro.sim.analytic import ideal_transfer_seconds
from repro.sim.transfer import TransferParams, execute
from repro.workloads import make_trace

#: seed of the fixed bandwidth dataset the cluster workloads replay
DATASET_SEED = 2023
TRACE_SNAPSHOTS = 1500


def _transfer_model(plans, chunk_bytes: int, slice_bytes: int) -> dict:
    """Analytic twin on a set of FullRepair plans, against PivotRepair.

    Returns mean ``execute`` time of the plans, the mean fraction of
    Algorithm 1's ``t_max`` they reach, traffic per rebuilt byte, the
    PivotRepair/FullRepair ratio of mean transfer times on the same
    contexts, and host-side timings of ``execute`` itself.
    """
    params = TransferParams(chunk_bytes=chunk_bytes, slice_bytes=slice_bytes)
    pivot = get_algorithm("pivotrepair")
    full_s, pivot_s, fractions, skews, moved, host_us = [], [], [], [], 0.0, []
    for plan in plans:
        t0 = perf_counter_ns()
        result = execute(plan, params)
        host_us.append((perf_counter_ns() - t0) / 1e3)
        full_s.append(result.transfer_seconds)
        fractions.append(
            ideal_transfer_seconds(chunk_bytes, plan.total_rate)
            / result.transfer_seconds
        )
        skews.append(max(result.pipeline_seconds) / min(result.pipeline_seconds))
        moved += result.bytes_moved
        pivot_s.append(
            execute(pivot.plan(plan.context), params).transfer_seconds
        )
    return {
        "analytic_s": full_s,
        "t_max_fraction": statistics.fmean(fractions),
        "traffic_amplification": moved / (chunk_bytes * len(plans)),
        "speedup_vs_pivot": statistics.fmean(pivot_s) / statistics.fmean(full_s),
        "sim.transfer.execute_us_p50": statistics.median(host_us),
        "sim.transfer.pipeline_skew_p50": statistics.median(skews),
    }


class Workload:
    """Base: the hooks the harness calls (see the module docstring)."""

    name = ""
    #: why this workload exists (copied into BENCHMARK.json and the README)
    why = ""
    #: what one op is, for the printed header
    op_text = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        #: round-0 artefacts the untimed model phase needs, by op index
        self.kept: dict[int, object] = {}

    num_ops = 1

    def setup(self):
        raise NotImplementedError

    def prepare(self, state, i: int) -> None:
        """Untimed per-op preparation (default: none)."""

    def op(self, state, i: int):
        raise NotImplementedError

    def observe(self, state, i: int, result) -> tuple[tuple, list[str]]:
        raise NotImplementedError

    def counters(self, state) -> dict:
        """Public counters of the finished round (deterministic)."""
        return {}

    def model(self) -> dict:
        """Untimed, once per run: simulated-outcome metrics from round 0."""
        return {}

    def profiled(self) -> EngineProfiler | None:
        """One extra pass under ``EngineProfiler`` (traced runs only)."""
        return None

    def obs_enabled_ratio(self) -> float:
        """Ops re-run with live obs sinks over NULL obs (0 = not measured)."""
        return 0.0


# --------------------------------------------------------------------- #
# 1. plan_sweep                                                         #
# --------------------------------------------------------------------- #


class PlanSweep(Workload):
    name = "plan_sweep"
    why = (
        "the paper's Experiment 2 alone: planning is all of the work, so a "
        "planner change shows here and nowhere else"
    )
    op_text = 'get_algorithm("fullrepair").plan(ctx) + plan.validate()'

    #: the paper's four codes and how many contexts each draws per trace.
    #: (14,10) is drawn twice as often: it is the paper's default and the
    #: code of the other four workloads — and with four equal groups the
    #: pooled median op would sit on the boundary between two of them
    CODES = ((6, 4), (9, 6), (12, 8), (14, 10))
    DRAWS = (300, 300, 300, 600)
    TRACES = ("tpcds", "tpch", "swim")
    CHUNK_BYTES = 64 * units.MIB
    SLICE_BYTES = 64 * units.KIB

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.draws = tuple(d // 50 for d in self.DRAWS) if smoke else self.DRAWS
        #: every ``stride``-th instance feeds the untimed transfer model
        self.stride = 5 if smoke else 15
        self.num_ops = len(self.TRACES) * sum(self.draws)

    def setup(self):
        contexts = []
        for workload in self.TRACES:
            trace = make_trace(
                workload, num_nodes=16, num_snapshots=TRACE_SNAPSHOTS,
                seed=self.seed,
            )
            for (n, k), draws in zip(self.CODES, self.draws):
                contexts += sample_contexts(trace, n, k, draws, seed=self.seed)
        return SimpleNamespace(
            algorithm=get_algorithm("fullrepair"), contexts=contexts
        )

    def op(self, state, i):
        plan = state.algorithm.plan(state.contexts[i])
        plan.validate()
        return plan

    def observe(self, state, i, plan):
        if i % self.stride == 0:
            self.kept.setdefault(i, plan)
        problems = [] if plan.total_rate > 0 else ["plan has no throughput"]
        return (len(plan.pipelines), plan.total_rate), problems

    def model(self):
        out = _transfer_model(
            [self.kept[i] for i in sorted(self.kept)],
            self.CHUNK_BYTES, self.SLICE_BYTES,
        )
        out["sim_s"] = statistics.fmean(out.pop("analytic_s"))
        return out


# --------------------------------------------------------------------- #
# 2. repair_clean / 4. repair_chaos                                     #
# --------------------------------------------------------------------- #


def _dataset_snapshots(num_nodes: int, count: int):
    """``count`` distinct congested tpcds instants of the fixed dataset."""
    trace = make_trace(
        "tpcds", num_nodes=num_nodes, num_snapshots=TRACE_SNAPSHOTS,
        seed=DATASET_SEED,
    )
    picks = np.random.default_rng(DATASET_SEED).choice(
        trace.congested_instants(), size=count, replace=False
    )
    return [trace.snapshot(int(t)) for t in picks]


def _outcome_record(outcome, traffic: int, events: int) -> tuple:
    return (
        outcome.status, outcome.attempts, outcome.retries, outcome.replans,
        outcome.elapsed_seconds, outcome.bytes_received,
        outcome.bytes_retransferred, traffic, events,
    )


def _outcome_problems(outcome, original: np.ndarray) -> list[str]:
    """Invariants of any finished single-chunk repair."""
    if outcome.status == FAILED:
        problems = ["repair ended status=failed"]
        if not outcome.failure_reason:
            problems.append("failed without a reason")
        if outcome.rebuilt is not None or outcome.verified:
            problems.append("failed repair returned bytes")
        return problems
    problems = []
    if outcome.rebuilt is None or not np.array_equal(outcome.rebuilt, original):
        problems.append("rebuilt bytes differ from the original chunk")
    if not outcome.verified:
        problems.append("outcome not verified")
    return problems


class _SingleRepairs(Workload):
    """Shared bookkeeping of the two ``ClusterSystem.repair`` workloads."""

    N, K = 14, 10
    FAILED_NODE = 0
    chunk_bytes = 0
    slice_bytes = 0

    def _model_from_outcomes(self):
        """``(model metrics, finished outcomes, their analytic twin times)``."""
        kept = [self.kept[i] for i in sorted(self.kept)]
        outcomes = [o for (o, _t) in kept if o.status != FAILED]
        plans = [o.plan for o in outcomes if o.plan is not None]
        out = _transfer_model(plans, self.chunk_bytes, self.slice_bytes)
        analytic = out.pop("analytic_s")
        out["sim_s"] = sum(o.elapsed_seconds for o in outcomes)
        out["t_max_fraction"] = statistics.fmean(
            ideal_transfer_seconds(self.chunk_bytes, o.plan.total_rate)
            / o.elapsed_seconds
            for o in outcomes if o.plan is not None
        )
        out["traffic_amplification"] = sum(t for (_o, t) in kept) / (
            self.chunk_bytes * len(outcomes)
        )
        return out, outcomes, analytic


class RepairClean(_SingleRepairs):
    name = "repair_clean"
    why = (
        "one fault-free (14,10) repair with the paper's 64 KiB slices: the "
        "data plane (GF kernels, checksums, slice copies) dominates"
    )
    op_text = 'ClusterSystem.repair("s", 0, 15, store=False)'

    NUM_NODES = 16
    REQUESTER = 15

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.chunk_bytes = (128 * units.KIB) if smoke else (4 * units.MIB)
        self.slice_bytes = 64 * units.KIB
        # the first instant twice, then another: the second op plans on a
        # bandwidth picture the plan cache has just seen, the third does not
        self.num_ops = 3

    def _build(self, **obs):
        a, b = _dataset_snapshots(self.NUM_NODES, 2)
        system = ClusterSystem(
            self.NUM_NODES, RSCode(self.N, self.K),
            slice_bytes=self.slice_bytes, **obs,
        )
        system.master.plan_cache = PlanCache()
        data = np.random.default_rng(self.seed).integers(
            0, 256, size=(self.K, self.chunk_bytes), dtype=np.uint8
        )
        system.write_stripe("s", data, placement=tuple(range(self.N)))
        system.fail_node(self.FAILED_NODE)
        return SimpleNamespace(
            system=system, data=data, snapshots=(a, a, b), traffic0=0, events0=0
        )

    def setup(self):
        return self._build()

    def prepare(self, state, i):
        state.system.set_bandwidth(state.snapshots[i])
        state.traffic0 = state.system.traffic_bytes
        state.events0 = state.system.events.executed

    def op(self, state, i):
        return state.system.repair(
            "s", self.FAILED_NODE, self.REQUESTER, store=False
        )

    def observe(self, state, i, outcome):
        traffic = state.system.traffic_bytes - state.traffic0
        events = state.system.events.executed - state.events0
        problems = _outcome_problems(outcome, state.data[self.FAILED_NODE])
        if outcome.status != COMPLETED:
            problems.append(f"clean repair ended status={outcome.status}")
        if traffic != self.K * self.chunk_bytes:
            problems.append(
                f"bytes sent {traffic} != k x rebuilt {self.K * self.chunk_bytes}"
            )
        outcome.rebuilt = None  # checked; do not hold the chunk for the run
        self.kept.setdefault(i, (outcome, traffic))
        return _outcome_record(outcome, traffic, events), problems

    def counters(self, state):
        stats = state.system.master.plan_cache.stats
        return {
            "sim.events.executed": state.system.events.executed,
            "sim.events.peak_pending": state.system.events.peak_pending,
            "datanode.bytes_sent": state.system.traffic_bytes,
            "core.plancache.lookups": stats.lookups,
            "core.plancache.hit_rate": stats.hit_rate,
        }

    def model(self):
        out, outcomes, analytic = self._model_from_outcomes()
        out["sim.transfer.model_gap"] = statistics.fmean(
            o.elapsed_seconds / a for o, a in zip(outcomes, analytic)
        )
        return out

    def profiled(self):
        state = self._build()
        profiler = EngineProfiler().install(state.system.events)
        for i in range(self.num_ops):
            self.prepare(state, i)
            self.op(state, i)
        profiler.uninstall()
        return profiler

    def obs_enabled_ratio(self):
        # two clusters, NULL and live sinks, op by op and taking turns to go
        # first: each pair is seconds apart, so a slow phase of the host
        # hits both sides of the ratio
        states = (
            self._build(),
            self._build(tracer=ObsTracer(), metrics=MetricsRegistry()),
        )
        walls = [0, 0]
        for i in range(self.num_ops):
            for side in ((0, 1), (1, 0))[i % 2]:
                self.prepare(states[side], i)
                t0 = perf_counter_ns()
                self.op(states[side], i)
                walls[side] += perf_counter_ns() - t0
        return walls[1] / walls[0]


class RepairChaos(_SingleRepairs):
    name = "repair_chaos"
    why = (
        "the same repair entry point under crashes, stalls, stragglers and "
        "corruption: abort, re-plan, retransmit and escalation paths"
    )
    op_text = (
        "ClusterSystem.repair(..., injector=FaultInjector.random_schedule(...), "
        'on_failure="outcome", store=False) on a fresh cluster'
    )

    NUM_NODES = 18
    REQUESTER = 17
    HORIZON_S = 0.02
    #: ``random_schedule`` seeds, fixed like tier-1's chaos seed set.
    #: Picked for coverage, all ending in a rebuilt chunk today: double
    #: crash with re-plan (0), bit rot found by the audit (2), wire
    #: corruption retransmits (8, 9), stall + crash + straggler (10),
    #: rot that forces a whole second attempt (14).
    FAULT_SEEDS = (0, 2, 8, 9, 10, 14)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.chunk_bytes = (64 * units.KIB) if smoke else units.MIB
        self.slice_bytes = (4 * units.KIB) if smoke else (16 * units.KIB)
        self.fault_seeds = self.FAULT_SEEDS[:2] if smoke else self.FAULT_SEEDS
        self.num_ops = len(self.fault_seeds)

    def _build_one(self, snapshot, data, fault_seed):
        system = ClusterSystem(
            self.NUM_NODES, RSCode(self.N, self.K), slice_bytes=self.slice_bytes
        )
        system.write_stripe("s", data, placement=tuple(range(self.N)))
        system.set_bandwidth(snapshot)
        system.fail_node(self.FAILED_NODE)
        system.enable_heartbeats(period_s=0.01)
        injector = FaultInjector.random_schedule(
            fault_seed,
            nodes=range(self.NUM_NODES),
            horizon_s=self.HORIZON_S,
            max_faults=3,
            max_crashes=2,
            protected=(self.REQUESTER,),
            corruption=True,
        )
        return system, injector

    def setup(self):
        data = np.random.default_rng(self.seed).integers(
            0, 256, size=(self.K, self.chunk_bytes), dtype=np.uint8
        )
        snapshots = _dataset_snapshots(self.NUM_NODES, self.num_ops)
        return SimpleNamespace(
            data=data,
            clusters=[
                self._build_one(snapshot, data, fault_seed)
                for snapshot, fault_seed in zip(snapshots, self.fault_seeds)
            ],
            outcomes=[],
            fired_in_repair=0,
        )

    def op(self, state, i):
        system, injector = state.clusters[i]
        return system.repair(
            "s", self.FAILED_NODE, self.REQUESTER,
            injector=injector, on_failure="outcome", store=False,
        )

    def observe(self, state, i, outcome):
        system, injector = state.clusters[i]
        problems = _outcome_problems(outcome, state.data[self.FAILED_NODE])
        in_repair = sum(
            1 for fault in injector.faults if fault.time <= outcome.elapsed_seconds
        )
        outcome.rebuilt = None
        state.outcomes.append(outcome)
        state.fired_in_repair += in_repair
        self.kept.setdefault(i, (outcome, system.traffic_bytes))
        record = _outcome_record(
            outcome, system.traffic_bytes, system.events.executed
        ) + (injector.log.armed, in_repair, outcome.corruption_detected)
        return record, problems

    def counters(self, state):
        systems = [system for (system, _inj) in state.clusters]
        outcomes = state.outcomes
        armed = sum(inj.log.armed for (_s, inj) in state.clusters)
        return {
            "sim.events.executed": sum(s.events.executed for s in systems),
            "sim.events.peak_pending": max(s.events.peak_pending for s in systems),
            "datanode.bytes_sent": sum(s.traffic_bytes for s in systems),
            "faults.armed": armed,
            "faults.fired_in_repair_share": state.fired_in_repair / armed,
            "faults.retries": sum(o.retries for o in outcomes),
            "faults.replans": sum(o.replans for o in outcomes),
            "faults.escalations": sum(o.status == ESCALATED for o in outcomes),
            "faults.bytes_retransferred": sum(
                o.bytes_retransferred for o in outcomes
            ),
            "integrity.corruption_detected": sum(
                o.corruption_detected for o in outcomes
            ),
        }

    def model(self):
        out, _outcomes, _analytic = self._model_from_outcomes()
        return out

    def profiled(self):
        state = self.setup()
        profiler = EngineProfiler()
        for i, (system, _inj) in enumerate(state.clusters):
            profiler.install(system.events)
            self.op(state, i)
            profiler.uninstall()
        return profiler


# --------------------------------------------------------------------- #
# 3. recovery_campaign                                                  #
# --------------------------------------------------------------------- #


class RecoveryCampaign(Workload):
    name = "recovery_campaign"
    why = (
        "an orchestrated two-node recovery with 1 KiB slices: per-slice "
        "bookkeeping, the event queue, always-on obs and GC dominate"
    )
    op_text = "run_recovery_scenario(...) end to end"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        # the kill instants are this workload's seeded input: bandwidth,
        # payload and the read stream all hang off the scenario's one
        # ``seed``, which stays at the dataset's
        jitter = np.random.default_rng(seed).uniform(0.0, 2e-4, size=2)
        self.config = dict(
            num_stripes=4 if smoke else 12,
            chunk_bytes=(8 if smoke else 128) * units.KIB,
            slice_bytes=1 * units.KIB,
            foreground_reads=20 if smoke else 150,
            kills=((0, 0.001 + float(jitter[0])), (3, 0.004 + float(jitter[1]))),
            seed=DATASET_SEED,
        )

    def setup(self):
        # the entry point builds its own cluster; a pass stopped before
        # the first kill prices exactly that part
        run_recovery_scenario(**self.config, until=5e-4)
        return SimpleNamespace(counters={})

    def op(self, state, i):
        return run_recovery_scenario(**self.config)

    def observe(self, state, i, scenario):
        report, system = scenario.report, scenario.system
        fg = report.foreground
        problems = []
        if report.verified != report.repaired:
            problems.append(f"{report.repaired - report.verified} repairs unverified")
        if report.dead_letters or report.queue_depth or report.inflight:
            problems.append("recovery did not drain")
        # a degraded read of a stripe that lost two chunks is refused with a
        # reason (reads never take the multi-chunk path); silence is the bug
        if any(not r.ok and not r.failure_reason for r in scenario.foreground.reads):
            problems.append("a foreground read failed without a reason")
        for sid, data in scenario.payloads.items():
            for idx in range(data.shape[0]):
                if not np.array_equal(system.read_chunk(sid, idx), data[idx]):
                    problems.append(f"{sid} chunk {idx} differs after recovery")
        orch = scenario.orchestrator
        rebuilt_chunks = sum(
            r.priority_class for r in orch.records if r.status != FAILED
        ) + fg["degraded"]
        state.counters = {
            "sim.events.executed": system.events.executed,
            "sim.events.peak_pending": system.events.peak_pending,
            "datanode.bytes_sent": system.traffic_bytes,
            "recovery.ticks": len(orch.timeline),
            "recovery.repaired": report.repaired,
            "recovery.requeues": report.requeues,
            "recovery.dead_letters": report.dead_letters,
            "recovery.peak_queue_depth": max(
                (depth for (*_x, depth) in orch.timeline), default=0
            ),
            "recovery.foreground.reads": fg["issued"],
            "recovery.foreground.degraded_reads": fg["degraded"],
            "recovery.throttle_shrinks": report.throttle_shrinks,
            "obs.tracer.spans": sum(1 for _ in scenario.tracer.spans()),
        }
        self.kept.setdefault(i, SimpleNamespace(
            drained_at=report.drained_at,
            traffic_bytes=system.traffic_bytes,
            rebuilt_bytes=rebuilt_chunks * self.config["chunk_bytes"],
        ))
        record = (
            system.events.executed, report.repaired, report.verified,
            report.requeues, report.drained_at, report.throttle_shrinks,
            system.traffic_bytes, fg["issued"], fg["ok"], fg["degraded"],
        )
        return record, problems

    def counters(self, state):
        return state.counters

    def model(self):
        kept = self.kept[0]
        return {
            "sim_s": kept.drained_at,
            "traffic_amplification": kept.traffic_bytes / kept.rebuilt_bytes,
        }

    def profiled(self):
        return run_recovery_scenario(**self.config, profile=True).profiler


# --------------------------------------------------------------------- #
# 5. lifetime_campaign                                                  #
# --------------------------------------------------------------------- #


class LifetimeCampaign(Workload):
    name = "lifetime_campaign"
    why = (
        "five simulated years of a 200k-stripe fleet through the recovery "
        "orchestrator with analytic repairs: control plane only, no data plane"
    )
    op_text = "repro.lifetime.run_campaign(cfg)"

    #: the orchestrated (14,10) gate campaign of BENCH_lifetime, as a literal
    #: (``seed`` here is the failure clocks' and stays put; see ``setup``)
    CONFIG = LifetimeConfig(
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

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.base = self.CONFIG
        if smoke:
            self.base = replace(
                self.base, num_stripes=2_000, placement_groups=16, years=0.5
            )

    def setup(self):
        # ``--seed`` places the stripes (which disks share which groups);
        # the failure clocks stay the dataset's, because another clock seed
        # moves the event count 73k-86k and another placement 79k-81k.
        # Seed 2023 draws the placements the campaign would draw itself.
        base = self.base
        patterns = base.build_tree().spread_placements(
            base.placement_groups, base.n, level=base.spread_level,
            max_per_domain=base.max_per_domain, seed=self.seed,
        )
        config = replace(base, patterns=tuple(map(tuple, patterns.tolist())))
        # tree and stripe table are built inside the entry point; a
        # campaign with no horizon prices that part
        run_campaign(replace(config, years=1e-9))
        return SimpleNamespace(config=config, result=None)

    def op(self, state, i):
        return run_campaign(state.config)

    def observe(self, state, i, result):
        problems = []
        if result.chunks_rebuilt > result.chunks_destroyed:
            problems.append("rebuilt more chunks than were destroyed")
        if result.events_executed <= 0 or result.ticks <= 0:
            problems.append("campaign executed nothing")
        if bool(result.loss_events) != bool(result.stripes_lost):
            problems.append("loss events and stripes lost disagree")
        state.result = result
        self.kept.setdefault(i, result.exposure_digest.mean)
        record = (
            len(result.loss_events), result.stripes_lost, result.events_executed,
            result.ticks, result.repairs_dispatched, result.chunks_destroyed,
            result.chunks_rebuilt, result.requeues, result.dead_letters,
            result.throttle_shrinks, result.peak_pending,
        )
        return record, problems

    def counters(self, state):
        r = state.result
        return {
            "sim.events.executed": r.events_executed,
            "sim.events.peak_pending": r.peak_pending,
            "lifetime.events_executed": r.events_executed,
            "lifetime.loss_events": len(r.loss_events),
            "lifetime.stripes_lost": r.stripes_lost,
            "lifetime.repairs_dispatched": r.repairs_dispatched,
            "lifetime.ticks": r.ticks,
            "lifetime.stripe_years": r.stripe_years,
            "recovery.ticks": r.ticks,
            "recovery.repaired": r.repairs_dispatched,
            "recovery.requeues": r.requeues,
            "recovery.dead_letters": r.dead_letters,
            "recovery.throttle_shrinks": r.throttle_shrinks,
        }

    def model(self):
        # the simulated cost of this workload's work: how long a degraded
        # stripe waits for its repair, on average
        return {"sim_s": self.kept[0]}

    def profiled(self):
        profiler = EngineProfiler()
        run_campaign(self.setup().config, profiler=profiler)
        return profiler


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (PlanSweep, RepairClean, RecoveryCampaign, RepairChaos, LifetimeCampaign)
}
