"""Engine self-observability: profile the simulator, not the simulated.

The rest of :mod:`repro.obs` watches the *modelled* system — repairs,
transfers, SLOs.  This module watches the event engine itself, which
the ROADMAP's fleet-lifetime campaigns turn into the binding
constraint: a multi-year Monte-Carlo run is millions of
:class:`~repro.sim.events.EventQueue` events, and "why is this run
slow" needs answers in terms of *callback sites*, not stripes.

Two opt-in hooks plug into the queue (``queue.profiler`` /
``queue.monitor``; :func:`EngineProfiler.install` wires them):

* :class:`EngineProfiler` — attributes wall-time, event counts and
  (optionally, tracemalloc-backed) allocation deltas to *action sites*
  (the callback's ``__qualname__`` plus origin module), and keeps
  batch-size and listener-fan-out histograms plus a bounded,
  decimating reservoir of per-batch ``(sim_time, ran, pending)``
  samples for counter tracks.
* :class:`RunMonitor` — emits periodic heartbeat snapshots (sim-time,
  wall-time, events/sec, ETA, top hot sites) as JSONL and an opt-in
  stderr progress line, so a multi-minute campaign is watchable.

The queue's one drain loop reads both hooks once per ``run``/``step``
call and tests one local boolean per event, so with neither attached
the engine reads no clock and calls no hook — counted in
``tests/sim/test_events.py``.
"""

from __future__ import annotations

import functools
import json
import sys
import tracemalloc
from time import perf_counter, perf_counter_ns
from typing import Callable

__all__ = ["EngineProfiler", "RunMonitor", "SiteStats", "site_of"]


# --------------------------------------------------------------------- #
# Action-site resolution                                                #
# --------------------------------------------------------------------- #

def site_of(action: Callable) -> tuple[str, str]:
    """``(module, qualname)`` of the code a queue callback will run.

    Unwraps ``functools.partial`` chains, ``__wrapped__`` decorators
    and bound methods so every scheduling of ``DataNode._arrive`` maps to
    one site regardless of which instance or wrapper scheduled it.
    """
    fn = action
    for _ in range(16):
        if isinstance(fn, functools.partial):
            fn = fn.func
            continue
        wrapped = getattr(fn, "__wrapped__", None)
        if wrapped is not None:
            fn = wrapped
            continue
        break
    fn = getattr(fn, "__func__", fn)
    qualname = getattr(fn, "__qualname__", None)
    if qualname is None:
        # callable object: attribute to its class's __call__
        cls = type(fn)
        return getattr(cls, "__module__", "?") or "?", cls.__qualname__
    return getattr(fn, "__module__", "?") or "?", qualname


class SiteStats:
    """Accumulated cost of one action site (module + qualname)."""

    __slots__ = ("module", "qualname", "events", "self_ns", "max_ns",
                 "alloc_bytes")

    def __init__(self, module: str, qualname: str) -> None:
        self.module = module
        self.qualname = qualname
        self.events = 0
        self.self_ns = 0
        self.max_ns = 0
        self.alloc_bytes = 0

    @property
    def site(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def mean_us(self) -> float:
        return self.self_ns / self.events / 1e3 if self.events else 0.0

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "events": self.events,
            "self_ms": self.self_ns / 1e6,
            "mean_us": self.mean_us,
            "max_us": self.max_ns / 1e3,
            "alloc_kib": self.alloc_bytes / 1024.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - diagnostic
        return (f"SiteStats({self.site}, events={self.events}, "
                f"self_ms={self.self_ns / 1e6:.2f})")


# --------------------------------------------------------------------- #
# EngineProfiler                                                        #
# --------------------------------------------------------------------- #

#: decimating reservoir ceiling for per-batch samples (halved + stride
#: doubled when full, so memory stays bounded on arbitrarily long runs)
_MAX_BATCH_SAMPLES = 4096


class EngineProfiler:
    """Per-action-site wall-time / allocation attribution for the queue.

    Opt-in: construct one, :meth:`install` it on an ``EventQueue``, run
    the simulation, then read :meth:`hot_sites` / :meth:`snapshot` or
    feed it to the exporters (``collapsed_stacks`` / ``speedscope_json``
    / ``chrome_trace(profiler=...)``).

    ``track_alloc=True`` additionally attributes net allocation deltas
    per site via :mod:`tracemalloc` (starting it if needed) — roughly
    an order of magnitude slower, so it is a separate opt-in.
    """

    def __init__(self, *, track_alloc: bool = False,
                 max_batch_samples: int = _MAX_BATCH_SAMPLES) -> None:
        self.track_alloc = track_alloc
        self.sites: dict[tuple[str, str], SiteStats] = {}
        #: bucketed batch-size histogram: key ``b`` counts batches of
        #: ``2**(b-1) < ran <= 2**b - 1`` events (``ran.bit_length()``)
        self.batch_hist: dict[int, int] = {}
        #: listener fan-out histograms, keyed by hook name
        self.fanout: dict[str, dict[int, int]] = {}
        self.batch_samples: list[tuple[float, int, int]] = []
        self.max_batch_samples = max(16, int(max_batch_samples))
        self.batches = 0
        self.events = 0
        self.total_self_ns = 0
        #: wall-clock spent inside profiled ``run``/``step`` calls (includes
        #: heap/bookkeeping time the per-site self times exclude)
        self.run_wall_ns = 0
        self._sample_stride = 1
        self._sample_tick = 0
        self._site_cache: dict[object, SiteStats] = {}
        self._queue = None
        self._started_tracemalloc = False

    # -- lifecycle ----------------------------------------------------- #

    def install(self, queue) -> "EngineProfiler":
        """Attach to ``queue`` (replacing any previous profiler)."""
        queue.profiler = self
        self._queue = queue
        if self.track_alloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        return self

    def uninstall(self) -> None:
        """Detach from the queue and stop tracemalloc if we started it."""
        if self._queue is not None and self._queue.profiler is self:
            self._queue.profiler = None
        self._queue = None
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False

    def __enter__(self) -> "EngineProfiler":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- hot-path hooks (called by the queue's drain loop) ------------- #

    def run_action(self, action: Callable[[], None]) -> None:
        """Execute ``action``, attributing its cost to its site."""
        if self.track_alloc:
            alloc0 = tracemalloc.get_traced_memory()[0]
            t0 = perf_counter_ns()
            action()
            elapsed = perf_counter_ns() - t0
            delta = tracemalloc.get_traced_memory()[0] - alloc0
        else:
            t0 = perf_counter_ns()
            action()
            elapsed = perf_counter_ns() - t0
            delta = 0
        # key on the shared underlying function/code object so repeated
        # schedulings of the same method/lambda hit the memo, not the
        # getattr-unwrap slow path
        try:
            key = action.__func__
        except AttributeError:
            key = getattr(action, "__code__", None)
            if key is None:
                fn = getattr(action, "func", action)  # functools.partial
                key = (
                    getattr(fn, "__func__", None)
                    or getattr(fn, "__code__", None)
                    # builtins / callable objects: qualname-keyed so the
                    # cache stays bounded yet sites remain distinct
                    or (type(action),
                        getattr(fn, "__qualname__", type(fn).__qualname__))
                )
        stats = self._site_cache.get(key)
        if stats is None:
            module, qualname = site_of(action)
            stats = self.sites.get((module, qualname))
            if stats is None:
                stats = SiteStats(module, qualname)
                self.sites[(module, qualname)] = stats
            self._site_cache[key] = stats
        stats.events += 1
        stats.self_ns += elapsed
        if elapsed > stats.max_ns:
            stats.max_ns = elapsed
        if delta > 0:
            stats.alloc_bytes += delta
        self.events += 1
        self.total_self_ns += elapsed

    def record_batch(self, sim_time: float, ran: int, pending: int) -> None:
        """One same-timestamp batch finished: histogram + sample it."""
        self.batches += 1
        bucket = ran.bit_length()
        self.batch_hist[bucket] = self.batch_hist.get(bucket, 0) + 1
        self._sample_tick += 1
        if self._sample_tick >= self._sample_stride:
            self._sample_tick = 0
            samples = self.batch_samples
            samples.append((sim_time, ran, pending))
            if len(samples) >= self.max_batch_samples:
                # decimate: keep every other sample, halve future rate
                del samples[::2]
                self._sample_stride *= 2

    def record_fanout(self, hook: str, listeners: int) -> None:
        """Record one listener dispatch fanning out to N callbacks."""
        hist = self.fanout.setdefault(hook, {})
        hist[listeners] = hist.get(listeners, 0) + 1

    # -- queries ------------------------------------------------------- #

    def hot_sites(self, n: int = 10) -> list[SiteStats]:
        """Sites by descending attributed self time."""
        return sorted(
            self.sites.values(), key=lambda s: s.self_ns, reverse=True
        )[:n]

    @property
    def mean_batch_size(self) -> float:
        return self.events / self.batches if self.batches else 0.0

    def snapshot(self) -> dict:
        """JSON-ready summary (hot sites, histograms, totals)."""
        return {
            "events": self.events,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "total_self_ms": self.total_self_ns / 1e6,
            "run_wall_ms": self.run_wall_ns / 1e6,
            "track_alloc": self.track_alloc,
            "hot_sites": [s.to_dict() for s in self.hot_sites(20)],
            "batch_size_hist": {
                # human-readable bucket labels: "1", "2-3", "4-7", ...
                _bucket_label(b): count
                for b, count in sorted(self.batch_hist.items())
            },
            "fanout": {
                hook: {str(k): v for k, v in sorted(hist.items())}
                for hook, hist in sorted(self.fanout.items())
            },
        }


def _bucket_label(bucket: int) -> str:
    lo = 1 << (bucket - 1) if bucket > 1 else bucket
    hi = (1 << bucket) - 1
    return str(lo) if lo >= hi else f"{lo}-{hi}"


# --------------------------------------------------------------------- #
# RunMonitor                                                            #
# --------------------------------------------------------------------- #

class RunMonitor:
    """Periodic heartbeats for long engine runs.

    Attached via ``queue.monitor`` (see :meth:`install`), it wakes at
    most every ``check_every`` executed events, and when ``interval_s``
    of *wall* time has passed emits one heartbeat: a dict appended to
    :attr:`heartbeats`, written as a JSON line to ``stream`` (if any),
    and — with ``progress=True`` — a ``\\r``-refreshed progress line on
    stderr.  ETA extrapolates sim-time progress towards ``until`` when
    given, else event progress towards ``expected_events``.
    """

    def __init__(
        self,
        *,
        interval_s: float = 1.0,
        stream=None,
        progress: bool = False,
        profiler: "EngineProfiler | None" = None,
        until: float | None = None,
        expected_events: int | None = None,
        check_every: int = 2048,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self.interval_s = float(interval_s)
        self.stream = stream
        self.progress = progress
        self.profiler = profiler
        self.until = until
        self.expected_events = expected_events
        self.check_every = max(1, int(check_every))
        self.clock = clock
        self.heartbeats: list[dict] = []
        self._queue = None
        self._wall0: float | None = None
        self._last_wall = 0.0
        self._events0 = 0
        self._last_events = 0
        self._last_sim = 0.0
        self._next_check = 0
        self._progress_open = False

    def install(self, queue) -> "RunMonitor":
        queue.monitor = self
        self._queue = queue
        return self

    def uninstall(self) -> None:
        if self._queue is not None and self._queue.monitor is self:
            self._queue.monitor = None
        self._queue = None
        self._end_progress()

    def __enter__(self) -> "RunMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- hot-path hook ------------------------------------------------- #

    def after_batch(self, queue) -> None:
        executed = queue.executed
        if executed < self._next_check:
            return
        self._next_check = executed + self.check_every
        now = self.clock()
        if self._wall0 is None:
            self._start(now, queue)
            return
        if now - self._last_wall >= self.interval_s:
            self._emit(now, queue, final=False)

    def after_run(self, queue) -> None:
        """Close the book on one ``run`` call with a final heartbeat."""
        now = self.clock()
        if self._wall0 is None:
            self._start(now, queue)
        if queue.executed > self._last_events:
            self._emit(now, queue, final=True)
        self._end_progress()

    # -- internals ----------------------------------------------------- #

    def _start(self, now: float, queue) -> None:
        self._wall0 = now
        self._last_wall = now
        self._events0 = queue.executed
        self._last_events = queue.executed
        self._last_sim = queue.now

    def _emit(self, now: float, queue, *, final: bool) -> None:
        wall_s = now - self._wall0
        d_wall = max(now - self._last_wall, 1e-9)
        d_events = queue.executed - self._last_events
        rate = d_events / d_wall
        cum_rate = (
            (queue.executed - self._events0) / wall_s if wall_s > 0 else 0.0
        )
        beat = {
            "seq": len(self.heartbeats),
            "final": final,
            "wall_s": wall_s,
            "sim_s": queue.now,
            "events": queue.executed,
            "pending": queue.pending_count,
            "events_per_s": rate,
            "cum_events_per_s": cum_rate,
            "eta_s": self._eta(queue, rate, d_wall),
        }
        prof = self.profiler
        if prof is not None and prof.sites:
            beat["hot"] = [
                {"site": s.site, "self_ms": s.self_ns / 1e6,
                 "events": s.events}
                for s in prof.hot_sites(3)
            ]
        self.heartbeats.append(beat)
        if self.stream is not None:
            self.stream.write(json.dumps(beat, sort_keys=True) + "\n")
        if self.progress:
            self._progress_line(beat)
        self._last_wall = now
        self._last_events = queue.executed
        self._last_sim = queue.now

    def _eta(self, queue, rate: float, d_wall: float) -> float | None:
        if self.until is not None:
            sim_rate = (queue.now - self._last_sim) / d_wall
            if sim_rate > 0:
                return max(0.0, (self.until - queue.now) / sim_rate)
            return None
        if self.expected_events is not None and rate > 0:
            return max(0.0, (self.expected_events - queue.executed) / rate)
        return None

    def _progress_line(self, beat: dict) -> None:
        eta = beat["eta_s"]
        eta_txt = f" eta {eta:.0f}s" if eta is not None else ""
        sys.stderr.write(
            f"\r[engine] t={beat['sim_s']:.3f}s "
            f"ev={beat['events']:,} ({beat['events_per_s']:,.0f}/s) "
            f"pending={beat['pending']:,}{eta_txt}   "
        )
        sys.stderr.flush()
        self._progress_open = True

    def _end_progress(self) -> None:
        if self._progress_open:
            sys.stderr.write("\n")
            sys.stderr.flush()
            self._progress_open = False

    def heartbeats_jsonl(self) -> str:
        """All heartbeats as JSONL (same lines ``stream`` received)."""
        lines = [json.dumps(b, sort_keys=True) for b in self.heartbeats]
        return "\n".join(lines) + ("\n" if lines else "")
