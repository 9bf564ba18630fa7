"""Deterministic, seedable fault injection for the cluster prototype.

A :class:`FaultInjector` holds a schedule of fault events (see
:mod:`repro.faults.events`) and arms them into a target system's
deterministic event queue (:class:`repro.sim.events.EventQueue`).  Armed
faults fire as ordinary simulation events, so a run with the same seed,
workload and schedule is bit-for-bit reproducible — the property the
chaos harness relies on to shrink failures to a single seed.

The injector is duck-typed against its target: it needs ``events``
(an EventQueue) plus the hook methods listed in
:mod:`repro.faults.events`.  :class:`repro.cluster.ClusterSystem`
provides all of them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .events import (
    BitRot,
    Crash,
    Fault,
    LateReport,
    ReportLoss,
    Stall,
    Straggler,
    TornWrite,
    WireCorruption,
)

log = logging.getLogger("repro.faults.injector")


@dataclass
class InjectionLog:
    """What actually fired, for assertions and reports."""

    armed: int = 0
    fired: list = field(default_factory=list)


class FaultInjector:
    """Schedules fault events into a system's event queue.

    Build one either explicitly (``add`` each fault) or via
    :meth:`random_schedule` for chaos testing.  Call :meth:`arm` once,
    before the workload runs; every fault becomes an event on the
    system's queue and applies itself through the system's hooks when
    its time comes.
    """

    def __init__(self, faults: list[Fault] | None = None) -> None:
        self._faults: list[Fault] = list(faults or [])
        self.log = InjectionLog()

    # ---- building ----------------------------------------------------- #

    def add(self, fault: Fault) -> "FaultInjector":
        self._faults.append(fault)
        return self

    @property
    def faults(self) -> tuple[Fault, ...]:
        """The schedule, sorted by (time, node) for determinism."""
        return tuple(sorted(self._faults, key=lambda f: (f.time, f.node)))

    def __len__(self) -> int:
        return len(self._faults)

    @classmethod
    def random_schedule(
        cls,
        seed: int,
        *,
        nodes,
        horizon_s: float,
        max_faults: int = 3,
        max_crashes: int | None = None,
        protected: tuple[int, ...] = (),
        corruption: bool = False,
        process=None,
    ) -> "FaultInjector":
        """A deterministic random fault schedule.

        Parameters
        ----------
        seed:
            Everything about the schedule derives from this.
        nodes:
            Pool of target node ids (each node targeted at most once).
        horizon_s:
            Fault times are drawn uniformly from ``(0, horizon_s)``.
        max_faults / max_crashes:
            At most ``max_faults`` faults total; crash count additionally
            capped (defaults to ``max_faults``) so schedules cannot kill
            more nodes than the caller's code can tolerate.
        protected:
            Node ids never targeted (e.g. the requester when the test
            requires the repair destination to survive).
        corruption:
            Also draw silent-corruption faults (bit rot, torn writes,
            wire corruption).  Off by default so schedules generated
            before the integrity subsystem existed replay bit-for-bit:
            with ``corruption=False`` the rng consumes exactly the same
            draws as always.
        process:
            Optional :class:`repro.lifetime.processes.LifetimeProcess`
            supplying fault *times*: each time is drawn via
            ``process.truncated_lifetime(rng, horizon_s)`` instead of
            uniformly, so chaos schedules inherit Weibull/trace timing
            (infant-mortality bursts front-load, wear-out back-loads).
            Only the time draw changes hands — node choice, kinds and
            parameters use the same stream in the same order, and with
            ``process=None`` the schedule is byte-identical to every
            previously published seed (the parametric processes consume
            one uniform per time, exactly like the default draw).
        """
        rng = np.random.default_rng(seed)
        pool = [n for n in nodes if n not in protected]
        rng.shuffle(pool)
        count = int(rng.integers(1, max_faults + 1))
        count = min(count, len(pool))
        if max_crashes is None:
            max_crashes = max_faults
        inj = cls()
        crashes = 0
        kinds = 8 if corruption else 5
        for i in range(count):
            node = int(pool[i])
            if process is None:
                t = float(rng.uniform(0.0, horizon_s))
            else:
                t = float(process.truncated_lifetime(rng, horizon_s))
            kind = int(rng.integers(0, kinds))
            if kind == 0 and crashes >= max_crashes:
                kind = 1 + int(rng.integers(0, kinds - 1))
            if kind == 0:
                crashes += 1
                inj.add(Crash(node=node, time=t))
            elif kind == 1:
                cap = float(rng.uniform(5.0, 100.0))
                inj.add(Straggler(node=node, time=t, rate_cap_mbps=cap))
            elif kind == 2:
                # long enough to trip the progress detector, always finite
                dur = float(rng.uniform(horizon_s / 20, horizon_s / 4))
                inj.add(Stall(node=node, time=t, duration_s=dur))
            elif kind == 3:
                dur = float(rng.uniform(horizon_s / 10, horizon_s))
                inj.add(ReportLoss(node=node, time=t, duration_s=dur))
            elif kind == 4:
                delay = float(rng.uniform(horizon_s / 50, horizon_s / 5))
                inj.add(LateReport(node=node, time=t, delay_s=delay))
            elif kind == 5:
                inj.add(
                    BitRot(
                        node=node,
                        time=t,
                        flips=int(rng.integers(1, 32)),
                        seed=int(rng.integers(0, 2**31)),
                    )
                )
            elif kind == 6:
                inj.add(
                    TornWrite(
                        node=node,
                        time=t,
                        tail_fraction=float(rng.uniform(0.05, 0.5)),
                        seed=int(rng.integers(0, 2**31)),
                    )
                )
            else:
                dur = float(rng.uniform(horizon_s / 10, horizon_s / 2))
                inj.add(
                    WireCorruption(
                        node=node,
                        time=t,
                        duration_s=dur,
                        seed=int(rng.integers(0, 2**31)),
                    )
                )
        return inj

    # ---- arming ------------------------------------------------------- #

    def arm(self, system) -> None:
        """Schedule every fault onto ``system.events``.

        Fault times are absolute; times already in the past fire
        immediately (insertion order).  Each firing is recorded in
        :attr:`log` for post-run assertions.
        """
        now = system.events.now
        for fault in self.faults:
            delay = max(0.0, fault.time - now)
            system.events.schedule(
                delay, lambda f=fault, s=system: self._apply(s, f)
            )
            self.log.armed += 1

    def _apply(self, system, fault: Fault) -> None:
        log.debug("fault injected: %r", fault)
        observer = getattr(system, "obs", None)
        if observer is not None:
            observer.fault_injected(fault)
        if isinstance(fault, Crash):
            system.fail_node(fault.node)
        elif isinstance(fault, Straggler):
            system.set_rate_cap(fault.node, fault.rate_cap_mbps)
        elif isinstance(fault, Stall):
            system.stall_node(fault.node, fault.duration_s)
        elif isinstance(fault, ReportLoss):
            system.suppress_reports(fault.node, fault.duration_s)
        elif isinstance(fault, LateReport):
            system.delay_reports(fault.node, fault.delay_s)
        elif isinstance(fault, BitRot):
            system.corrupt_chunk(
                fault.node,
                fault.stripe_id,
                fault.chunk_index,
                flips=fault.flips,
                seed=fault.seed,
                fix_digest=fault.fix_digest,
            )
        elif isinstance(fault, TornWrite):
            system.arm_torn_write(
                fault.node, tail_fraction=fault.tail_fraction, seed=fault.seed
            )
        elif isinstance(fault, WireCorruption):
            system.corrupt_wire(fault.node, fault.duration_s, seed=fault.seed)
        else:  # pragma: no cover - new fault types must be wired here
            raise TypeError(f"unknown fault type {type(fault).__name__}")
        self.log.fired.append(fault)
