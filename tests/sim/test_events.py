"""Deterministic event-queue core."""

import math
import sys
from collections import Counter

import pytest

from repro.obs import EngineProfiler
from repro.sim import EventQueue, events


class TestEventQueue:
    def test_starts_at_zero(self):
        assert EventQueue().now == 0.0

    def test_runs_in_time_order(self):
        q = EventQueue()
        order = []
        q.schedule(3.0, lambda: order.append("c"))
        q.schedule(1.0, lambda: order.append("a"))
        q.schedule(2.0, lambda: order.append("b"))
        q.run()
        assert order == ["a", "b", "c"]
        assert q.now == 3.0

    def test_fifo_at_equal_times(self):
        q = EventQueue()
        order = []
        for name in "abc":
            q.schedule(1.0, lambda n=name: order.append(n))
        q.run()
        assert order == ["a", "b", "c"]

    def test_schedule_at_absolute(self):
        q = EventQueue()
        hits = []
        q.schedule_at(5.0, lambda: hits.append(q.now))
        q.run()
        assert hits == [5.0]

    def test_negative_delay_raises(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(-1.0, lambda: None)

    def test_cancel(self):
        q = EventQueue()
        hits = []
        handle = q.schedule(1.0, lambda: hits.append(1))
        q.cancel(handle)
        q.run()
        assert hits == []

    def test_events_scheduling_events(self):
        q = EventQueue()
        hits = []

        def first():
            hits.append(q.now)
            q.schedule(2.0, lambda: hits.append(q.now))

        q.schedule(1.0, first)
        q.run()
        assert hits == [1.0, 3.0]

    def test_step_returns_false_when_empty(self):
        assert EventQueue().step() is False

    def test_run_until(self):
        q = EventQueue()
        hits = []
        q.schedule(1.0, lambda: hits.append(1))
        q.schedule(10.0, lambda: hits.append(2))
        q.run(until=5.0)
        assert hits == [1]
        assert q.now == 5.0
        q.run()
        assert hits == [1, 2]

    def test_run_until_never_rewinds_the_clock(self):
        q = EventQueue()
        q.schedule(5.0, lambda: None)
        q.schedule(9.0, lambda: None)
        assert q.run(until=6.0) == 6.0
        assert q.run(until=3.0) == 6.0  # an earlier `until` runs nothing
        assert q.now == 6.0
        assert q.pending_count == 1
        assert q.run() == 9.0

    def test_runaway_guard(self):
        q = EventQueue()

        def loop():
            q.schedule(0.0, loop)

        q.schedule(0.0, loop)
        with pytest.raises(RuntimeError):
            q.run(max_events=100)


class TestScheduleAtClamp:
    """Absolute times a few ulps in the past clamp to now (float rounding
    from ``start + k * dt``-style arithmetic); genuinely past times raise."""

    def test_microscopic_past_runs_immediately(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.run()
        fired = []
        q.schedule_at(1.0 - 1e-13, lambda: fired.append(q.now))
        q.run()
        assert fired == [1.0]

    def test_clamp_scales_with_simulation_time(self):
        q = EventQueue()
        q.schedule(1e6, lambda: None)
        q.run()
        fired = []
        # one ulp of 1e6 is ~1.2e-10: representative accumulated rounding
        q.schedule_at(1e6 - 1e-10, lambda: fired.append(True))
        q.run()
        assert fired == [True]

    def test_genuinely_past_time_still_raises(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.run()
        with pytest.raises(ValueError, match=r"in the past \(delay=-0.5\)"):
            q.schedule_at(0.5, lambda: None)

    def test_clamped_events_keep_insertion_order(self):
        q = EventQueue()
        q.schedule(2.0, lambda: None)
        q.run()
        order = []
        q.schedule_at(2.0 - 1e-13, lambda: order.append("first"))
        q.schedule_at(2.0, lambda: order.append("second"))
        q.run()
        assert order == ["first", "second"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
class TestNonFiniteTimes:
    """A NaN or infinite event time is refused.  Accepted, a NaN event
    ran first with ``now = nan`` and the clock then moved back to the
    next finite event, breaking ``run``'s never-backwards contract."""

    @staticmethod
    def _queue():
        q = EventQueue()
        fired = []
        q.schedule(0.5, lambda: fired.append(q.now))
        return q, fired

    def test_schedule_refuses(self, bad):
        q, fired = self._queue()
        with pytest.raises(ValueError):
            q.schedule(bad, lambda: fired.append(q.now))
        assert q.pending_count == 1
        assert q.run() == 0.5 and fired == [0.5]

    def test_schedule_at_refuses(self, bad):
        q, fired = self._queue()
        with pytest.raises(ValueError):
            q.schedule_at(bad, lambda: fired.append(q.now))
        assert q.pending_count == 1
        assert q.run() == 0.5 and fired == [0.5]


class TestCancel:
    def test_cancel_before_fire(self):
        q = EventQueue()
        fired = []
        entry = q.schedule(1.0, lambda: fired.append("x"))
        assert q.pending_count == 1
        assert q.cancel(entry) is True
        assert q.pending_count == 0
        q.schedule(2.0, lambda: fired.append("y"))
        q.run()
        assert fired == ["y"]
        assert q.now == 2.0  # cancelled events still advance past their slot

    def test_cancel_after_fire_is_noop(self):
        q = EventQueue()
        fired = []
        entry = q.schedule(1.0, lambda: fired.append("x"))
        q.run()
        assert fired == ["x"]
        assert q.cancel(entry) is False  # already fired: nothing to cancel
        assert q.pending_count == 0

    def test_double_cancel_returns_false(self):
        q = EventQueue()
        entry = q.schedule(1.0, lambda: None)
        assert q.cancel(entry) is True
        assert q.cancel(entry) is False

    def test_cancelled_event_does_not_block_reschedule(self):
        q = EventQueue()
        order = []
        victim = q.schedule(1.0, lambda: order.append("victim"))
        q.schedule(1.0, lambda: order.append("kept"))
        q.cancel(victim)
        q.run()
        assert order == ["kept"]


class TestBatchedRun:
    """Same-timestamp events run in scheduling order, one pop at a time;
    these tests pin the semantics of an equal-time batch."""

    def test_same_time_insertion_during_batch_runs_after_it(self):
        q = EventQueue()
        order = []

        def first():
            order.append("first")
            # same timestamp as the batch being drained: higher seq, so
            # it must run after every already-scheduled same-time event
            q.schedule(0.0, lambda: order.append("late"))

        q.schedule(1.0, first)
        q.schedule(1.0, lambda: order.append("second"))
        q.run()
        assert order == ["first", "second", "late"]
        assert q.now == 1.0

    def test_cancel_later_batch_member_from_earlier_one(self):
        """An action may cancel a same-timestamp event of its own batch."""
        q = EventQueue()
        order = []
        victim = None

        def canceller():
            order.append("canceller")
            assert q.cancel(victim) is True

        q.schedule(1.0, canceller)
        victim = q.schedule(1.0, lambda: order.append("victim"))
        q.schedule(1.0, lambda: order.append("kept"))
        q.run()
        assert order == ["canceller", "kept"]
        assert q.executed == 2

    def test_run_matches_step_loop_order(self):
        """``run`` and a ``step`` loop are the same loop: same order."""
        import random

        def build(q, log):
            rng = random.Random(1234)
            def make(tag):
                def action():
                    log.append((q.now, tag))
                    if rng.random() < 0.3:
                        q.schedule(rng.choice([0.0, 0.5, 1.0]), make(tag + 1000))
                return action
            for i in range(200):
                q.schedule(rng.choice([0.0, 1.0, 1.0, 2.0]), make(i))

        q_run, log_run = EventQueue(), []
        build(q_run, log_run)
        q_run.run()
        q_step, log_step = EventQueue(), []
        build(q_step, log_step)
        while q_step.step():
            pass
        assert log_run == log_step
        assert q_run.executed == q_step.executed

    def test_until_boundary_between_batches(self):
        q = EventQueue()
        hits = []
        for _ in range(3):
            q.schedule(1.0, lambda: hits.append(q.now))
        for _ in range(3):
            q.schedule(2.0, lambda: hits.append(q.now))
        q.run(until=1.5)
        assert hits == [1.0, 1.0, 1.0]
        assert q.now == 1.5
        q.run()
        assert hits == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def test_counters_track_batch_execution(self):
        q = EventQueue()
        for _ in range(5):
            q.schedule(1.0, lambda: None)
        cancelled = q.schedule(1.0, lambda: None)
        q.cancel(cancelled)
        assert q.pending_count == 5
        assert q.peak_pending == 6
        q.run()
        assert q.executed == 5
        assert q.pending_count == 0

    def test_max_events_enforced_within_batch(self):
        q = EventQueue()
        for _ in range(10):
            q.schedule(1.0, lambda: None)
        with pytest.raises(RuntimeError):
            q.run(max_events=5)


class TestMaxEventsExact:
    """``max_events=N`` runs exactly N events — the historical guard
    fired only after executing N+1 (off-by-one)."""

    def test_exactly_max_events_execute_before_raise(self):
        q = EventQueue()
        hits = []
        for i in range(10):
            q.schedule(0.001 * i, lambda i=i: hits.append(i))
        with pytest.raises(RuntimeError, match="runaway"):
            q.run(max_events=5)
        assert hits == [0, 1, 2, 3, 4]
        assert q.executed == 5

    def test_exact_budget_drains_without_raising(self):
        q = EventQueue()
        for i in range(5):
            q.schedule(0.001 * i, lambda: None)
        q.run(max_events=5)  # exactly enough: no raise
        assert q.executed == 5

    def test_overflow_event_stays_queued_and_resumable(self):
        q = EventQueue()
        hits = []
        for i in range(8):
            q.schedule(1.0, lambda i=i: hits.append(i))  # one batch
        with pytest.raises(RuntimeError):
            q.run(max_events=3)
        assert hits == [0, 1, 2]
        assert q.pending_count == 5
        q.run()  # the aborted batch's remainder is still consistent
        assert hits == list(range(8))
        assert q.pending_count == 0


class _RecordingHooks:
    """Stands in for both ``EngineProfiler`` and ``RunMonitor``."""

    run_wall_ns = 0

    def __init__(self):
        self.batches = []  # (sim_time, ran, pending) per record_batch
        self.after_batch_at = []  # queue.executed at each after_batch
        self.runs = 0

    def run_action(self, action):
        action()

    def record_batch(self, sim_time, ran, pending):
        self.batches.append((sim_time, ran, pending))

    def after_batch(self, queue):
        self.after_batch_at.append(queue.executed)

    def after_run(self, queue):
        self.runs += 1


def _hooked_queue():
    q = EventQueue()
    hooks = _RecordingHooks()
    q.profiler = hooks
    q.monitor = hooks
    return q, hooks


class TestBatchBoundaries:
    """What the profiler and monitor hooks see as one batch: the maximal
    run of equal-time events already scheduled when its first one ran."""

    def test_scheduling_at_own_timestamp_opens_a_new_batch(self):
        q, hooks = _hooked_queue()

        def first():
            q.schedule(0.0, lambda: None)  # same timestamp, new batch
            q.schedule(0.0, lambda: None)

        q.schedule(1.0, first)
        q.schedule(1.0, lambda: None)
        q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        q.run()
        # pending is read when the batch closes, before the next pop
        assert hooks.batches == [(1.0, 3, 3), (1.0, 2, 1), (2.0, 1, 0)]
        assert hooks.after_batch_at == [3, 5, 6]
        assert hooks.runs == 1

    def test_cancelled_members_do_not_count(self):
        q, hooks = _hooked_queue()
        victim = None
        q.schedule(1.0, lambda: q.cancel(victim))
        victim = q.schedule(1.0, lambda: None)
        q.schedule(1.0, lambda: None)
        q.run()
        assert hooks.batches == [(1.0, 2, 0)]

    def test_step_sees_batches_of_one_and_no_after_run(self):
        q, hooks = _hooked_queue()
        for _ in range(3):
            q.schedule(1.0, lambda: None)
        while q.step():
            pass
        assert hooks.batches == [(1.0, 1, 2), (1.0, 1, 1), (1.0, 1, 0)]
        assert hooks.after_batch_at == [1, 2, 3]
        assert hooks.runs == 0

    def test_truncated_batch_is_recorded_and_its_rest_is_a_new_batch(self):
        q, hooks = _hooked_queue()
        for _ in range(5):
            q.schedule(1.0, lambda: None)
        with pytest.raises(RuntimeError):
            q.run(max_events=2)
        q.run()
        assert hooks.batches == [(1.0, 2, 3), (1.0, 3, 0)]
        assert hooks.runs == 2

    def test_raising_action_still_closes_its_batch(self):
        q, hooks = _hooked_queue()

        def boom():
            raise KeyError("boom")

        q.schedule(1.0, lambda: None)
        q.schedule(1.0, boom)
        q.schedule(1.0, lambda: None)
        with pytest.raises(KeyError):
            q.run()
        assert hooks.batches == [(1.0, 2, 1)]
        assert q.executed == 2 and q.pending_count == 1


class TestDisabledHooksCostNothing:
    """With no profiler or monitor attached, the engine reads no clock and
    calls no hook: what self-observability costs a run that did not ask
    for it is one local boolean per event, not a count that grows."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"clock": 0, "hook": 0}
        clock, close = events.perf_counter_ns, EventQueue._close_batch

        def counting_clock():
            counts["clock"] += 1
            return clock()

        def counting_close(queue, *args):
            counts["hook"] += 1
            return close(queue, *args)

        monkeypatch.setattr(events, "perf_counter_ns", counting_clock)
        monkeypatch.setattr(EventQueue, "_close_batch", counting_close)
        return counts

    def test_gate_scenario_without_profiler(self, counts):
        from repro.recovery import run_recovery_scenario
        from tests.obs.test_prof import GATE_SCENARIO

        scenario = run_recovery_scenario(**GATE_SCENARIO)
        assert scenario.system.events.executed == 20313
        assert counts == {"clock": 0, "hook": 0}

    def test_the_counters_see_an_attached_profiler(self, counts):
        q = EventQueue()
        for t in (1.0, 1.0, 2.0):
            q.schedule(t, lambda: None)
        EngineProfiler().install(q)
        q.run()
        assert counts == {"clock": 2, "hook": 2}


@pytest.mark.parametrize("hooked", [False, True], ids=["bare", "hooked"])
class TestExhaustionResumes:
    """``max_events`` exhaustion leaves the overflowing event
    queued, whichever of ``run`` / ``step`` hit it and whichever resumes."""

    @staticmethod
    def _queue(hooked, n=6):
        q = _hooked_queue()[0] if hooked else EventQueue()
        hits = []
        for i in range(n):
            # two equal-time batches of three
            q.schedule(1.0 + i // 3, lambda i=i: hits.append(i))
        return q, hits

    def test_max_events_in_run_then_step(self, hooked):
        q, hits = self._queue(hooked)
        with pytest.raises(RuntimeError, match="runaway"):
            q.run(max_events=2)
        assert hits == [0, 1] and q.pending_count == 4 and q.now == 1.0
        assert q.step() is True
        assert hits == [0, 1, 2]
        q.run()
        assert hits == list(range(6)) and q.pending_count == 0

    def test_max_events_in_run_then_run_until(self, hooked):
        q, hits = self._queue(hooked)
        with pytest.raises(RuntimeError, match="runaway"):
            q.run(max_events=2)
        assert q.run(until=1.5) == 1.5  # the first batch's rest, not the second
        assert hits == [0, 1, 2] and q.pending_count == 3
        q.run()
        assert hits == list(range(6)) and q.now == 2.0

    def test_repeated_max_events_walks_the_queue(self, hooked):
        q, hits = self._queue(hooked)
        for done in (2, 4):
            with pytest.raises(RuntimeError, match="runaway"):
                q.run(max_events=2)
            assert hits == list(range(done)) and q.executed == done
        q.run(max_events=2)  # exactly the two left: no raise
        assert hits == list(range(6)) and q.pending_count == 0

    def test_empty_queue_never_raises_on_zero_max_events(self, hooked):
        q, _ = self._queue(hooked, n=0)
        assert q.step() is False
        assert q.run(max_events=0) == 0.0


def _drain_calls(slice_bytes: int) -> tuple[Counter, int, int]:
    """Python ``call`` events made while the queue drains one clean
    NULL-obs (14,10) 256 KiB repair: by code object, how many of them
    were a ``schedule`` frame opened by ``schedule_at``, and the number
    of events executed."""
    from tests.obs.test_obs_counts import _failed_cluster

    _failed_cluster(slice_bytes)[0].repair("s", 0, 15, store=False)  # warm
    system, _ = _failed_cluster(slice_bytes)
    drain, schedule = EventQueue._drain.__code__, EventQueue.schedule.__code__
    schedule_at = EventQueue.schedule_at.__code__
    calls, depth, nested = Counter(), [0], [0]

    def profile(frame, event, arg):
        code = frame.f_code
        if code is drain and event in ("call", "return"):
            depth[0] += 1 if event == "call" else -1
        elif event == "call" and depth[0]:
            calls[code] += 1
            nested[0] += code is schedule and frame.f_back.f_code is schedule_at

    executed = system.events.executed
    sys.setprofile(profile)
    try:
        outcome = system.repair("s", 0, 15, store=False)
    finally:
        sys.setprofile(None)
    assert outcome.verified
    return calls, nested[0], system.events.executed - executed


@pytest.mark.parametrize("slice_kib", [16, 4])
def test_a_slice_hop_makes_no_object_machinery_calls(slice_kib):
    """Count gate on the slice hop: heap entries compare in C (no
    ``__lt__`` frame), a ``SliceData`` is built without a Python
    constructor frame, ``schedule_at`` pushes its own entry, no function
    object is made per slice (a send schedules the callback its task
    bound at assign), and an event costs at most 12 Python calls.
    Measured this way: 29.6 / 28.5 calls per event at 16 / 4 KiB slices
    with a Python ``__lt__``, a dataclass ``SliceData`` and
    ``schedule_at`` → ``schedule``; 16.0 / 14.5 with a closure per send,
    two task lookups per delivery and per-slice rate and corruption-window
    calls; 10.7 / 9.0 without them.  Counts, so the same on every
    machine."""
    from repro.cluster.datanode import DataNode
    from repro.cluster.messages import SliceData

    calls, nested, executed = _drain_calls(slice_kib * 1024)
    assert executed >= 600  # the gate has teeth: ~0.98 slice events per event
    constructors = {
        getattr(getattr(SliceData, name), "__code__", None)
        for name in ("__new__", "__init__")
    } - {None}
    assert sum(n for code, n in calls.items() if code.co_name == "__lt__") == 0
    assert sum(calls[code] for code in constructors) == 0
    assert nested == 0
    # a nested function of the hop's modules runs at most once per task
    tasks = calls[DataNode.assign.__code__]
    assert tasks >= 13
    per_slice = {
        code.co_qualname: n
        for code, n in calls.items()
        if "<locals>" in code.co_qualname and n > tasks
        and code.co_filename.endswith(("datanode.py", "system.py", "events.py"))
    }
    assert per_slice == {}
    per_event = sum(calls.values()) / executed
    assert per_event <= 12, f"{per_event:.1f} Python calls per event"
