"""Deterministic discrete-event simulation core.

A minimal heap-based scheduler used by the cluster prototype
(:mod:`repro.cluster`) for control-plane message passing and task
execution.  Events at equal timestamps are ordered by insertion sequence,
which makes every simulation run bit-for-bit reproducible.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter_ns
from typing import Callable

_INF = float("inf")


class _Entry(list):
    """One scheduled event: the list ``[time, seq, action]``.

    Heap sift-up/down compares entries O(log n) times per push/pop, and
    a list compares in C, element by element.  ``(time, seq)`` is unique
    (``seq`` is drawn once per event), so a comparison never reaches
    ``action``.  Cancelling writes ``None`` into the action slot; the
    drain loop discards such entries when they surface.
    """

    __slots__ = ()


class EventQueue:
    """A deterministic event queue with cancellation support."""

    def __init__(self) -> None:
        self._heap: list[_Entry] = []
        self._seq = 0
        self._now = 0.0
        self._pending: dict[int, _Entry] = {}
        self._executed = 0
        self._peak_pending = 0
        #: opt-in engine self-observability hooks (:mod:`repro.obs.prof`),
        #: read once per ``run``/``step`` call; with neither set the loop
        #: pays one local boolean test per event.
        self.profiler = None
        self.monitor = None

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def executed(self) -> int:
        """Events run so far (observability counter)."""
        return self._executed

    @property
    def pending_count(self) -> int:
        """Events currently scheduled and not yet fired/cancelled."""
        return len(self._pending)

    @property
    def peak_pending(self) -> int:
        """High-water mark of the pending-event count (queue depth)."""
        return self._peak_pending

    def schedule(self, delay: float, action: Callable[[], None]) -> _Entry:
        """Schedule ``action`` to run ``delay`` seconds from now.

        Returns a handle accepted by :meth:`cancel`.  A negative delay,
        or one that puts the event at a non-finite time (NaN, infinity),
        raises ``ValueError``.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self._now + delay
        if not time < _INF:
            raise ValueError(f"cannot schedule at a non-finite time (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        entry = _Entry((time, seq, action))
        heappush(self._heap, entry)
        pending = self._pending
        pending[seq] = entry
        if len(pending) > self._peak_pending:
            self._peak_pending = len(pending)
        return entry

    def schedule_at(self, time: float, action: Callable[[], None]) -> _Entry:
        """Schedule ``action`` at an absolute simulation time.

        Callers often compute ``time`` from the same quantities that
        advanced the clock (e.g. ``start + k * slice_seconds``), so the
        target can land a few ulps *before* ``now`` purely from float
        rounding.  Such microscopically-past times are clamped to ``now``
        (the event runs immediately, in insertion order); genuinely past
        and non-finite times raise ``ValueError`` with :meth:`schedule`'s
        messages.  The event lands at ``now + (time - now)``, exactly
        where ``schedule(time - now, action)`` would put it; this method
        pushes it itself, because every slice hop comes through here.
        """
        now = self._now
        delay = time - now
        if delay < 0:
            if -delay > 1e-12 * max(1.0, abs(now)):
                raise ValueError(f"cannot schedule in the past (delay={delay})")
            delay = 0.0
        time = now + delay
        if not time < _INF:
            raise ValueError(f"cannot schedule at a non-finite time (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        entry = _Entry((time, seq, action))
        heappush(self._heap, entry)
        pending = self._pending
        pending[seq] = entry
        if len(pending) > self._peak_pending:
            self._peak_pending = len(pending)
        return entry

    def cancel(self, entry: _Entry) -> bool:
        """Cancel a scheduled event (lazy removal).

        Takes the handle returned by :meth:`schedule`.  Returns True if
        the event was still pending; cancelling an event that already
        fired (or was already cancelled) is a harmless no-op returning
        False — timeout timers disarmed on progress race their own
        firing by design.
        """
        pending = self._pending.pop(entry[1], None)
        if pending is None:
            return False
        pending[2] = None
        return True

    def step(self) -> bool:
        """Run the next pending event.  Returns False when the queue is empty."""
        return self._drain(None, 1, single=True) == 1

    def run(self, *, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Drain the queue; returns the final simulation time.

        Parameters
        ----------
        until:
            Stop once simulation time would pass this value (events beyond
            it stay queued).  The clock never moves backwards: an
            ``until`` earlier than ``now`` runs nothing and leaves ``now``
            where it is.
        max_events:
            Safety valve against runaway simulations: exactly this many
            events may execute; attempting one more raises, with the
            overflowing event left queued.
        """
        self._drain(until, max_events, single=False)
        return self._now

    def _drain(self, until: float | None, max_events: int, *, single: bool) -> int:
        """The one loop that pops the heap: pop one event, run it, repeat.

        ``single`` stops after the first executed event (:meth:`step`);
        otherwise the loop runs until the queue is empty, ``until`` is
        passed, or ``max_events`` would be exceeded (which raises before
        the overflowing event is popped, so a later call resumes exactly
        there).  Returns the number of events executed by this call.

        The profiler and monitor hooks are read once, here.  They see
        *batches*: a batch is the maximal run of equal-time events that
        were all already scheduled when its first one ran.  An action
        that schedules at its own timestamp draws a ``seq`` at or above
        the batch's mark, so it opens a new batch — one integer
        comparison, with no list of popped entries to keep consistent.
        A batch never spans two calls.
        """
        heap = self._heap
        pending = self._pending
        profiler = self.profiler
        monitor = self.monitor
        hooked = profiler is not None or monitor is not None
        executed = 0
        batch_time = 0.0
        batch_mark = 0  # seqs below it were scheduled before the batch began
        ran = 0         # events of the open batch run so far (0 = none open)
        wall0 = perf_counter_ns() if profiler is not None else 0
        try:
            while heap:
                when, seq, action = heap[0]
                if action is None:  # cancelled
                    heappop(heap)
                    continue
                if until is not None and when > until:
                    if until > self._now:
                        self._now = until
                    break
                if executed >= max_events:
                    raise RuntimeError(
                        f"exceeded {max_events} events; runaway simulation?")
                if hooked and ran and (when != batch_time or seq >= batch_mark):
                    self._close_batch(profiler, monitor, batch_time, ran)
                    ran = 0
                heappop(heap)
                del pending[seq]
                self._now = when
                self._executed += 1
                executed += 1
                if hooked:
                    if not ran:
                        batch_time = when
                        batch_mark = self._seq
                    ran += 1
                    if profiler is not None:
                        profiler.run_action(action)
                    else:
                        action()
                else:
                    action()
                if single:
                    break
        finally:
            if ran:
                self._close_batch(profiler, monitor, batch_time, ran)
            if profiler is not None:
                profiler.run_wall_ns += perf_counter_ns() - wall0
            if monitor is not None and not single:
                monitor.after_run(self)
        return executed

    def _close_batch(self, profiler, monitor, when: float, ran: int) -> None:
        if profiler is not None:
            profiler.record_batch(when, ran, len(self._pending))
        if monitor is not None:
            monitor.after_batch(self)
