"""Streaming divergence detection: online drift / change-point detectors.

The rest of the observability stack *explains* a repair after the fact
(:mod:`repro.obs.attr`) or profiles the engine while it runs
(:mod:`repro.obs.prof`); this module *detects* problems online.  It
ships three classic streaming change-point detectors over
irregularly-sampled simulated-time series — an EWMA residual test, a
two-sided CUSUM, and Page–Hinkley — behind one tiny interface::

    alarm = detector.observe(t, value)   # Alarm | None

plus a :class:`DivergenceMonitor` that routes named *signals* (per-repair
realised throughput vs the plan's ``t_max``, per-node link busy
fractions, orchestrator queue depth, engine events/sec) into per-key
detector instances, records every :class:`Alarm` as a structured
``detect.alarm`` tracer event and ``repro_detect_*`` metric, and fires
registered callbacks so detection can be wired into *control*: the
cluster's progress watchdog aborts diverged attempts early
(``system.divergence = monitor``), and the drift simulator re-plans on
alarm (``simulate_under_drift(replan_on="detect")``).

Numerics
--------

All three detectors operate on *normalised residuals*: an exponentially
weighted baseline tracks the signal's mean and variance with a
time-aware decay (``alpha = 1 - exp(-dt / tau_s)``, so irregular
sampling is handled natively), and each new sample is scored as

    z = (x - mean) / max(std, rel_floor * |mean|)

before the baseline absorbs it (predict-then-update).  Consequences the
test-suite pins down:

* a constant stream never alarms (residual is exactly zero);
* scaling a whole stream by ``c > 0`` leaves every ``z`` — and hence
  every alarm time — unchanged (scale invariance);
* a step change of several baseline deviations alarms within a bounded
  number of samples (``h / (z - k)`` for CUSUM);
* detection is deterministic and independent of chunking: feeding
  samples one at a time or via :meth:`Detector.observe_many` produces
  identical alarms.

After an alarm a detector resets and re-learns the post-change level,
so a regime shift produces one alarm, not a storm.

Everything here is stdlib-only; see ``docs/OBSERVABILITY.md``
("Divergence detection") for the signal catalogue and tuning guide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .metrics import NULL_METRICS
from .trace import NULL_TRACER

__all__ = [
    "Alarm",
    "Baseline",
    "CUSUMDetector",
    "Detector",
    "DivergenceMonitor",
    "EWMADetector",
    "PageHinkleyDetector",
    "SIGNALS",
    "plan_divergence_detector",
    "queue_growth_detector",
    "regression_detector",
    "straggler_detector",
]

#: Relative std floor: below this fraction of |mean| the baseline's
#: deviation is considered noise-free and residuals are scored against
#: the floor instead (keeps z finite on near-constant streams while
#: preserving scale invariance — the floor scales with the mean).
DEFAULT_REL_FLOOR = 0.05

#: Absolute guard only reached when mean == std == 0 (all-zero streams).
_TINY = 1e-30


@dataclass(frozen=True)
class Alarm:
    """One detector firing.

    Attributes
    ----------
    t:
        Timestamp of the sample that crossed the threshold (producer's
        clock — simulated seconds everywhere in this repo).
    signal / key:
        Monitor routing: which named signal and which instance key
        (e.g. the repair wire id or node id); empty for bare detectors.
    detector:
        Detector class tag (``ewma`` / ``cusum`` / ``page-hinkley``).
    kind:
        Direction of the change: ``"down"`` (level collapsed) or
        ``"up"`` (level surged).
    value:
        The raw sample that fired.
    stat / threshold:
        The decision statistic at firing time and its threshold.
    n:
        Samples observed since the last reset (warmup included).
    """

    t: float
    detector: str
    kind: str
    value: float
    stat: float
    threshold: float
    n: int
    signal: str = ""
    key: str = ""


class Baseline:
    """Time-aware exponentially weighted mean/variance tracker.

    ``tau_s`` is the decay time-constant: a sample ``dt`` after the
    previous one is blended with ``alpha = 1 - exp(-dt / tau_s)``, so
    irregular sampling behaves like the equivalent continuous-time
    filter.  The first sample initialises the mean with zero variance.
    """

    __slots__ = ("tau_s", "mean", "var", "n", "_last_t")

    def __init__(self, tau_s: float):
        if tau_s <= 0:
            raise ValueError("tau_s must be positive")
        self.tau_s = tau_s
        self.reset()

    def reset(self) -> None:
        self.mean = 0.0
        self.var = 0.0
        self.n = 0
        self._last_t: float | None = None

    def update(self, t: float, x: float) -> None:
        if self.n == 0:
            self.mean = x
            self.var = 0.0
        else:
            dt = t - self._last_t if self._last_t is not None else 0.0
            # a non-advancing clock still makes progress: treat it as
            # one tau-fraction step so repeated-t feeds cannot stall
            dt = max(dt, self.tau_s * 1e-3)
            alpha = 1.0 - math.exp(-dt / self.tau_s)
            delta = x - self.mean
            self.mean += alpha * delta
            # EW variance of the residual around the (moving) mean
            self.var = (1.0 - alpha) * (self.var + alpha * delta * delta)
        self.n += 1
        self._last_t = t

    @property
    def std(self) -> float:
        return math.sqrt(self.var) if self.var > 0.0 else 0.0

    def zscore(self, x: float, rel_floor: float = DEFAULT_REL_FLOOR) -> float:
        """Normalised residual of ``x`` against the current baseline."""
        scale = max(self.std, rel_floor * abs(self.mean), _TINY)
        return (x - self.mean) / scale


class Detector:
    """Base class: common warmup / direction / reset machinery.

    Subclasses implement :meth:`_score`, returning the ``(stat,
    threshold, kind)`` triple when the statistic crosses its threshold
    (``None`` otherwise).  ``direction`` restricts which changes fire:
    ``"down"`` (drops only — the right default for throughput-like
    signals), ``"up"`` (growth only — queue depths), or ``"both"``.

    When the signal's healthy level is *known* (a realised/planned
    ratio should sit at 1), pass it as ``ref``: residuals are scored
    against that fixed reference instead of the learned baseline, so a
    stream that is *chronically* off-level keeps alarming rather than
    being re-learned as the new normal — the difference between
    change-point detection and divergence-from-plan detection.  ``ref``
    mode has no warmup (scoring starts at the first sample).
    """

    name = "detector"

    def __init__(
        self,
        *,
        tau_s: float = 60.0,
        direction: str = "both",
        min_samples: int = 4,
        rel_floor: float = DEFAULT_REL_FLOOR,
        ref: float | None = None,
    ):
        if direction not in ("up", "down", "both"):
            raise ValueError('direction must be "up", "down" or "both"')
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.direction = direction
        self.min_samples = min_samples
        self.rel_floor = rel_floor
        self.ref = ref
        self.baseline = Baseline(tau_s)
        self.alarms = 0

    # ---- the streaming interface -------------------------------------- #

    def _residual(self, value: float) -> float | None:
        """z of ``value``, or ``None`` while the baseline is warming."""
        if self.ref is not None:
            scale = max(self.rel_floor * abs(self.ref), _TINY)
            return (value - self.ref) / scale
        if self.baseline.n < self.min_samples:
            return None
        return self.baseline.zscore(value, self.rel_floor)

    def observe(self, t: float, value: float):
        """Feed one sample; returns an :class:`Alarm` or ``None``."""
        value = float(value)
        fired = None
        z = self._residual(value)
        if z is not None:
            z_eff = -z if self.direction == "down" else z
            fired = self._score(z_eff, z)
        self.baseline.update(t, value)
        if fired is None:
            return None
        stat, threshold, kind = fired
        self.alarms += 1
        alarm = Alarm(
            t=t,
            detector=self.name,
            kind=kind,
            value=value,
            stat=stat,
            threshold=threshold,
            n=self.baseline.n,
        )
        self.reset()
        return alarm

    def observe_many(self, samples) -> list[Alarm]:
        """Feed ``(t, value)`` pairs in order; returns alarms raised.

        Exactly equivalent to calling :meth:`observe` per sample — the
        detectors are sequential and deterministic, so chunked feeding
        can never change the alarm times.
        """
        out = []
        for t, value in samples:
            alarm = self.observe(t, value)
            if alarm is not None:
                out.append(alarm)
        return out

    def reset(self) -> None:
        """Forget the baseline and decision state (after an alarm, a
        re-plan, or an attempt epoch change)."""
        self.baseline.reset()
        self._reset_stat()

    # ---- subclass hooks ------------------------------------------------ #

    def _score(self, z_eff: float, z: float):
        raise NotImplementedError

    def _reset_stat(self) -> None:
        pass


class EWMADetector(Detector):
    """Alarm when one normalised residual exceeds ``z_threshold``.

    The fastest trigger of the three (single-sample decision) and the
    noisiest; pick a generous threshold.  With ``direction="both"`` the
    alarm kind reports which side fired.
    """

    name = "ewma"

    def __init__(self, *, z_threshold: float = 6.0, **kwargs):
        super().__init__(**kwargs)
        if z_threshold <= 0:
            raise ValueError("z_threshold must be positive")
        self.z_threshold = z_threshold

    def _score(self, z_eff: float, z: float):
        if self.direction == "both":
            if abs(z) > self.z_threshold:
                return abs(z), self.z_threshold, "up" if z > 0 else "down"
            return None
        if z_eff > self.z_threshold:
            return z_eff, self.z_threshold, self.direction
        return None


class CUSUMDetector(Detector):
    """Tabular CUSUM over normalised residuals.

    Accumulates ``g+ = max(0, g+ + z - k)`` and ``g- = max(0, g- - z -
    k)``; alarms when either exceeds ``h``.  ``k`` (the drift allowance,
    in baseline deviations) sets the smallest shift considered real; a
    sustained shift of size ``s`` is detected after roughly ``h / (s -
    k)`` samples.
    """

    name = "cusum"

    def __init__(self, *, k: float = 0.5, h: float = 5.0, **kwargs):
        super().__init__(**kwargs)
        if k < 0 or h <= 0:
            raise ValueError("need k >= 0 and h > 0")
        self.k = k
        self.h = h
        self._g_up = 0.0
        self._g_down = 0.0

    def _score(self, z_eff: float, z: float):
        if self.direction in ("up", "both"):
            self._g_up = max(0.0, self._g_up + z - self.k)
            if self._g_up > self.h:
                return self._g_up, self.h, "up"
        if self.direction in ("down", "both"):
            self._g_down = max(0.0, self._g_down - z - self.k)
            if self._g_down > self.h:
                return self._g_down, self.h, "down"
        return None

    def _reset_stat(self) -> None:
        self._g_up = 0.0
        self._g_down = 0.0


class PageHinkleyDetector(Detector):
    """Page–Hinkley test over normalised residuals.

    Tracks the cumulative sum ``m_t = sum(z_i - delta)`` and alarms when
    it falls ``lambda_`` below its running maximum (downward change) or
    rises ``lambda_`` above its running minimum (upward change).
    Slightly more tolerant of slow wander than CUSUM at equal
    thresholds — ``delta`` absorbs drift instead of a hard allowance.
    """

    name = "page-hinkley"

    def __init__(self, *, delta: float = 0.05, lambda_: float = 5.0, **kwargs):
        super().__init__(**kwargs)
        if delta < 0 or lambda_ <= 0:
            raise ValueError("need delta >= 0 and lambda_ > 0")
        self.delta = delta
        self.lambda_ = lambda_
        self._m = 0.0
        self._m_up = 0.0
        self._m_max = 0.0
        self._m_min = 0.0

    def _score(self, z_eff: float, z: float):
        # two independent one-sided sums, each absorbing ``delta`` per
        # sample, so "both" is exactly the union of "down" and "up"
        if self.direction in ("down", "both"):
            self._m += z + self.delta
            self._m_max = max(self._m_max, self._m)
            stat = self._m_max - self._m
            if stat > self.lambda_:
                return stat, self.lambda_, "down"
        if self.direction in ("up", "both"):
            self._m_up += z - self.delta
            self._m_min = min(self._m_min, self._m_up)
            stat = self._m_up - self._m_min
            if stat > self.lambda_:
                return stat, self.lambda_, "up"
        return None

    def _reset_stat(self) -> None:
        self._m = 0.0
        self._m_up = 0.0
        self._m_max = 0.0
        self._m_min = 0.0


# ---- the standard signal catalogue ---------------------------------------- #


def plan_divergence_detector(**overrides) -> Detector:
    """Per-repair realised throughput over the plan's ``t_max``.

    A healthy repair holds a roughly constant ratio; a crashed hub or
    stalled requester collapses it.  Downward CUSUM tuned to fire after
    2-3 collapsed samples while riding out single slow windows: the wide
    ``rel_floor`` caps the z-score of any one sample at ~4 baseline
    units, so no single dip can cross ``h`` alone and an abort always
    reflects *sustained* divergence.
    """
    kwargs = dict(direction="down", k=0.5, h=4.0, tau_s=30.0, min_samples=3,
                  rel_floor=0.25)
    kwargs.update(overrides)
    return CUSUMDetector(**kwargs)


def straggler_detector(**overrides) -> Detector:
    """Per-node link busy fraction: hotspot / straggler onset.

    Both directions matter: a node pinned at its cap saturates (up), a
    rate-capped straggler's goodput share collapses (down).
    """
    kwargs = dict(direction="both", z_threshold=8.0, tau_s=60.0, min_samples=4)
    kwargs.update(overrides)
    return EWMADetector(**kwargs)


def queue_growth_detector(**overrides) -> Detector:
    """Orchestrator repair-queue depth: sustained growth means intake
    outruns admission (a failure burst or an over-throttled budget)."""
    kwargs = dict(direction="up", delta=0.1, lambda_=6.0, tau_s=120.0,
                  min_samples=4)
    kwargs.update(overrides)
    return PageHinkleyDetector(**kwargs)


def regression_detector(**overrides) -> Detector:
    """Engine events/sec: a sustained drop flags a perf regression or a
    pathological scenario while the run is still in flight."""
    kwargs = dict(direction="down", k=0.5, h=6.0, tau_s=120.0, min_samples=4)
    kwargs.update(overrides)
    return CUSUMDetector(**kwargs)


#: The four signal families: name -> (factory, one-line doc).  The first
#: three have producers in ``src/``; ``engine.events_per_s`` is fed by
#: whoever holds a ``RunMonitor`` (``feed`` it each heartbeat's rate).
SIGNALS = {
    "repair.throughput_ratio": (
        plan_divergence_detector,
        "per-repair realised throughput / plan t_max (plan divergence)",
    ),
    "node.busy_fraction": (
        straggler_detector,
        "per-node uplink busy fraction (straggler / hotspot onset)",
    ),
    "recovery.queue_depth": (
        queue_growth_detector,
        "orchestrator repair-queue depth (intake outrunning admission)",
    ),
    "engine.events_per_s": (
        regression_detector,
        "event-engine throughput (regression onset)",
    ),
}


@dataclass
class _Watch:
    factory: object
    callbacks: list = field(default_factory=list)
    detectors: dict = field(default_factory=dict)  # key -> Detector
    observations: int = 0


class DivergenceMonitor:
    """Routes named signals into per-key detectors; records alarms.

    ``watch(signal, factory)`` registers a detector factory for a
    signal; ``feed(signal, t, value, key=...)`` lazily instantiates one
    detector per ``key`` (a repair wire id, a node id, ...) and scores
    the sample.  Feeding an unwatched signal is a no-op, so producers
    can feed unconditionally and the monitor's configuration decides
    what is actually tracked.

    Every alarm is appended to :attr:`alarms`, emitted as a structured
    ``detect.alarm`` tracer event, counted in
    ``repro_detect_alarms_total{signal,detector}``, and handed to any
    callbacks registered via :meth:`on_alarm` (control wiring: the
    watchdog's early abort, detector-triggered re-planning).

    :meth:`suppressed` records the complementary decision — a detector
    wanted to act but another mechanism already owned the moment (e.g.
    the watchdog timeout retired the attempt epoch first) — as a
    ``detect.suppressed`` event so chaos traces stay fully explanatory.
    """

    enabled = True

    def __init__(self, *, tracer=None, metrics=None, clock=None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.clock = clock
        self.alarms: list[Alarm] = []
        self.suppressions: list[dict] = []
        self._watches: dict[str, _Watch] = {}

    # ---- configuration ------------------------------------------------- #

    @classmethod
    def standard(cls, **kwargs) -> "DivergenceMonitor":
        """A monitor pre-watching the four standard signal families."""
        monitor = cls(**kwargs)
        for signal, (factory, _doc) in SIGNALS.items():
            monitor.watch(signal, factory)
        return monitor

    def watch(self, signal: str, factory) -> None:
        """Register ``factory() -> Detector`` for a signal name.

        Re-watching an already-watched signal replaces the factory and
        drops its detector instances (callbacks are kept).
        """
        existing = self._watches.get(signal)
        callbacks = existing.callbacks if existing else []
        self._watches[signal] = _Watch(factory=factory, callbacks=callbacks)

    def on_alarm(self, signal: str, callback) -> None:
        """Run ``callback(alarm)`` whenever ``signal`` alarms (any key).

        The signal must be watched first; callbacks fire after the alarm
        is recorded, in registration order.
        """
        if signal not in self._watches:
            raise ValueError(f"signal {signal!r} is not watched")
        self._watches[signal].callbacks.append(callback)

    def watched(self) -> list[str]:
        return sorted(self._watches)

    # ---- the hot path --------------------------------------------------- #

    def feed(self, signal: str, t: float, value: float, key: str = ""):
        """Score one sample; returns the :class:`Alarm` if one fired."""
        watch = self._watches.get(signal)
        if watch is None:
            return None
        detector = watch.detectors.get(key)
        if detector is None:
            detector = watch.detectors[key] = watch.factory()
        watch.observations += 1
        alarm = detector.observe(t, value)
        if alarm is None:
            return None
        alarm = Alarm(
            t=alarm.t, detector=alarm.detector, kind=alarm.kind,
            value=alarm.value, stat=alarm.stat, threshold=alarm.threshold,
            n=alarm.n, signal=signal, key=str(key),
        )
        self.alarms.append(alarm)
        if self.tracer.enabled:
            self.tracer.event(
                None, "detect.alarm", t=alarm.t,
                signal=signal, key=alarm.key, detector=alarm.detector,
                kind=alarm.kind, value=alarm.value, stat=alarm.stat,
                threshold=alarm.threshold,
            )
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_detect_alarms_total",
                "Streaming-detector alarms, by signal and detector.",
                signal=signal, detector=alarm.detector,
            ).inc()
            self.metrics.gauge(
                "repro_detect_last_alarm_t",
                "Timestamp of the most recent alarm per signal.",
                signal=signal,
            ).set(alarm.t)
        for callback in watch.callbacks:
            callback(alarm)
        return alarm

    def discard(self, signal: str, key: str = "") -> None:
        """Drop one detector instance (e.g. when its repair finishes),
        so a recycled key starts from a fresh baseline."""
        watch = self._watches.get(signal)
        if watch is not None:
            watch.detectors.pop(key, None)

    def suppressed(self, signal: str, reason: str, *, t: float | None = None,
                   key: str = "", **attrs) -> None:
        """Record a declined detector action (with the reason why)."""
        if t is None:
            t = self.clock() if self.clock is not None else 0.0
        record = {"t": t, "signal": signal, "key": str(key),
                  "reason": reason, **attrs}
        self.suppressions.append(record)
        if self.tracer.enabled:
            self.tracer.event(
                None, "detect.suppressed", t=t,
                signal=signal, key=str(key), reason=reason, **attrs,
            )
        if self.metrics.enabled:
            self.metrics.counter(
                "repro_detect_suppressed_total",
                "Detector actions declined because another mechanism "
                "owned the moment, by signal.",
                signal=signal,
            ).inc()

    # ---- queries -------------------------------------------------------- #

    def alarms_for(self, signal: str, key: str | None = None) -> list[Alarm]:
        return [
            a for a in self.alarms
            if a.signal == signal and (key is None or a.key == str(key))
        ]

    def alarm_count(
        self, signal: str | None = None, *, since: float | None = None
    ) -> int:
        """Alarms recorded (optionally per signal / since a timestamp) —
        the hook the SLO engine's ``alarms`` aggregate evaluates."""
        return sum(
            1
            for a in self.alarms
            if (signal is None or a.signal == signal)
            and (since is None or a.t >= since)
        )

    def observations(self, signal: str) -> int:
        watch = self._watches.get(signal)
        return watch.observations if watch else 0

    def keys(self, signal: str) -> list[str]:
        """Keys with a live detector instance for ``signal``."""
        watch = self._watches.get(signal)
        return sorted(watch.detectors) if watch else []

    def detector_name(self, signal: str) -> str:
        """Class tag of the detector the signal's factory builds."""
        watch = self._watches.get(signal)
        if watch is None:
            return "-"
        for detector in watch.detectors.values():
            return detector.name
        return watch.factory().name

    def clear(self) -> None:
        self.alarms.clear()
        self.suppressions.clear()
        for watch in self._watches.values():
            watch.detectors.clear()
            watch.observations = 0
