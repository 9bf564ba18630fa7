"""The event queue as it stood before entries became ``[time, seq, action]``
lists: a slotted ``_Entry`` ordered by a Python ``__lt__`` and cancelled
by a flag.  Test-only, kept verbatim as the oracle
``tests/sim/test_queue_equivalence.py`` drives the production queue
against.
"""

from __future__ import annotations

import heapq
from time import perf_counter_ns
from typing import Callable


class _Entry:
    """One scheduled event: ``(time, seq)`` ordering, lazy cancellation.

    A ``__slots__`` class rather than an ordered dataclass: heap
    sift-up/down compares entries O(log n) times per push/pop, and the
    slotted ``__lt__`` avoids both per-instance dicts and the generated
    dataclass comparison that tuples all fields.
    """

    __slots__ = ("time", "seq", "action", "cancelled")

    def __init__(self, time: float, seq: int, action: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False

    def __lt__(self, other: "_Entry") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - diagnostic
        state = " cancelled" if self.cancelled else ""
        return f"_Entry(time={self.time!r}, seq={self.seq}{state})"

    @property
    def event_id(self) -> int:
        """Stable integer identifier accepted by :meth:`EventQueue.cancel`."""
        return self.seq


class EventQueue:
    """A deterministic event queue with cancellation support."""

    def __init__(self) -> None:
        self._heap: list[_Entry] = []
        self._seq = 0
        self._now = 0.0
        self._pending: dict[int, _Entry] = {}
        self._executed = 0
        self._peak_pending = 0
        self._budget: int | None = None
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

    @property
    def event_budget(self) -> int | None:
        """Events remaining in the persistent budget (``None`` = unarmed)."""
        return self._budget

    def set_event_budget(self, remaining: int | None) -> None:
        """Arm (or clear, with ``None``) a persistent event budget.

        Both :meth:`step` and :meth:`run` draw down the same budget:
        each executed event decrements it, and an execution attempted
        with zero budget raises ``RuntimeError`` while leaving the
        event still queued — top the budget back up and the run can
        resume exactly where it stopped.  ``run`` samples the budget at
        entry, so re-arming from inside an action takes effect at the
        next ``run``/``step`` call.
        """
        if remaining is not None and remaining < 0:
            raise ValueError(f"event budget must be >= 0 (got {remaining})")
        self._budget = remaining

    def schedule(self, delay: float, action: Callable[[], None]) -> _Entry:
        """Schedule ``action`` to run ``delay`` seconds from now.

        Returns a handle accepted by :meth:`cancel`; its ``event_id``
        attribute is an integer alternative for callers that cannot hold
        the handle itself (e.g. ids threaded through messages).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        entry = _Entry(self._now + delay, seq, action)
        heapq.heappush(self._heap, entry)
        self._pending[seq] = entry
        if len(self._pending) > self._peak_pending:
            self._peak_pending = len(self._pending)
        return entry

    def schedule_at(self, time: float, action: Callable[[], None]) -> _Entry:
        """Schedule ``action`` at an absolute simulation time.

        Callers often compute ``time`` from the same quantities that
        advanced the clock (e.g. ``start + k * slice_seconds``), so the
        target can land a few ulps *before* ``now`` purely from float
        rounding.  Such microscopically-past times are clamped to ``now``
        (the event runs immediately, in insertion order); genuinely past
        times still raise through :meth:`schedule`.
        """
        delay = time - self._now
        if delay < 0 and -delay <= 1e-12 * max(1.0, abs(self._now)):
            delay = 0.0
        return self.schedule(delay, action)

    def cancel(self, entry: "_Entry | int") -> bool:
        """Cancel a scheduled event (lazy removal).

        Accepts either the handle returned by :meth:`schedule` or its
        integer ``event_id``.  Returns True if the event was still
        pending; cancelling an event that already fired (or was already
        cancelled) is a harmless no-op returning False — timeout timers
        disarmed on progress race their own firing by design.
        """
        event_id = entry if isinstance(entry, int) else entry.seq
        pending = self._pending.pop(event_id, None)
        if pending is None:
            return False
        pending.cancelled = True
        return True

    def is_pending(self, entry: "_Entry | int") -> bool:
        """True while the event is scheduled and not yet fired/cancelled."""
        event_id = entry if isinstance(entry, int) else entry.seq
        return event_id in self._pending

    def step(self) -> bool:
        """Run the next pending event.  Returns False when the queue is empty.

        Honours (and draws down) the persistent budget armed via
        :meth:`set_event_budget`; an exhausted budget raises without
        consuming the event.
        """
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
        passed, or ``max_events`` / the persistent budget would be
        exceeded (which raises before the overflowing event is popped,
        so a topped-up budget resumes exactly there).  Returns the
        number of events executed by this call.

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
        heappop = heapq.heappop
        profiler = self.profiler
        monitor = self.monitor
        hooked = profiler is not None or monitor is not None
        limit = max_events
        if self._budget is not None and self._budget < limit:
            limit = self._budget
        executed = 0
        batch_time = 0.0
        batch_mark = 0  # seqs below it were scheduled before the batch began
        ran = 0         # events of the open batch run so far (0 = none open)
        wall0 = perf_counter_ns() if profiler is not None else 0
        try:
            while heap:
                entry = heap[0]
                if entry.cancelled:
                    heappop(heap)
                    continue
                when = entry.time
                if until is not None and when > until:
                    if until > self._now:
                        self._now = until
                    break
                if executed >= limit:
                    raise RuntimeError(self._limit_message(limit, max_events))
                if hooked and ran and (when != batch_time or entry.seq >= batch_mark):
                    self._close_batch(profiler, monitor, batch_time, ran)
                    ran = 0
                heappop(heap)
                del pending[entry.seq]
                self._now = when
                self._executed += 1
                executed += 1
                if hooked:
                    if not ran:
                        batch_time = when
                        batch_mark = self._seq
                    ran += 1
                    if profiler is not None:
                        profiler.run_action(entry.action)
                    else:
                        entry.action()
                else:
                    entry.action()
                if single:
                    break
        finally:
            if ran:
                self._close_batch(profiler, monitor, batch_time, ran)
            if profiler is not None:
                profiler.run_wall_ns += perf_counter_ns() - wall0
            if monitor is not None and not single:
                monitor.after_run(self)
            if self._budget is not None:
                self._budget = max(0, self._budget - executed)
        return executed

    def _close_batch(self, profiler, monitor, when: float, ran: int) -> None:
        if profiler is not None:
            profiler.record_batch(when, ran, len(self._pending))
        if monitor is not None:
            monitor.after_batch(self)

    def _limit_message(self, limit: int, max_events: int) -> str:
        if limit < max_events:
            return (
                f"event budget exhausted after {limit} events; "
                "set_event_budget() to continue"
            )
        return f"exceeded {max_events} events; runaway simulation?"
