"""The event queue against its pre-list reference, program by program.

``EventQueue`` keeps its heap entries as ``[time, seq, action]`` lists,
compared in C, and cancels by writing ``None`` into the action slot.
``tests/sim/reference_events.py`` is the queue as it was before: a
slotted ``_Entry`` with a Python ``__lt__`` and a ``cancelled`` flag.
Hypothesis drives both with the same programs — scheduling by delay and
by absolute time (an ulp-past time that clamps, a past one that raises),
cancellation by handle, ``step``, ``run`` with ``until`` and
``max_events``, exhaustion and resume, actions that schedule at their
own timestamp or raise — and every observable must agree: the
execution order, ``now``, ``executed``, ``pending_count``,
``peak_pending``, each exception's type and text, and what
an attached ``EngineProfiler`` and monitor see batch by batch.  Two
mutants of the new queue must fail the same comparison.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import EngineProfiler
from repro.sim import EventQueue, events
from tests.sim import reference_events

#: delays and offsets with many equal-time ties and float sums that round
_DELAYS = st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.0, 2.0])
_INDEX = st.integers(min_value=0, max_value=63)

#: what an action does when it runs (its children schedule leaf actions)
_CHILD = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("at_own_time")),
    st.tuples(st.just("cancel"), _INDEX),
    st.tuples(st.just("schedule_past")),  # the action raises
)
_ACTION = st.lists(_CHILD, max_size=3).map(tuple)

_OP = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS, _ACTION),
    st.tuples(st.just("schedule_at"), st.sampled_from(("ahead", "ulp", "past")),
              _DELAYS, _ACTION),
    st.tuples(st.just("cancel"), _INDEX),
    st.tuples(st.just("step")),
    st.tuples(st.just("run")),
    st.tuples(st.just("run_until"), st.sampled_from((-0.5, 0.0, 0.1, 0.3, 1.0, 1.5))),
    st.tuples(st.just("run_max"), st.integers(min_value=0, max_value=6)),
)
PROGRAMS = st.lists(_OP, max_size=40)


class _Monitor:
    """A run monitor that logs what the queue looks like at each hook."""

    def __init__(self, log: list) -> None:
        self.log = log

    def after_batch(self, queue) -> None:
        self.log.append(("batch", queue.now, queue.executed, queue.pending_count))

    def after_run(self, queue) -> None:
        self.log.append(("after_run", queue.now, queue.executed))


def observe(make_queue, program, *, hooked: bool) -> tuple:
    """Run ``program`` on a fresh queue; everything a caller can see."""
    q = make_queue()
    log: list = []
    handles: list = []
    tags = itertools.count()
    profiler = None
    if hooked:
        profiler = EngineProfiler().install(q)
        q.monitor = _Monitor(log)

    def action(children):
        tag = next(tags)

        def run() -> None:
            log.append(("ran", tag, q.now))
            for child in children:
                apply(child)

        return run

    def pick(i):
        return handles[i % len(handles)] if handles else None

    def apply(op):
        kind = op[0]
        if kind == "schedule":  # an action's child schedules a leaf
            handles.append(q.schedule(op[1], action(op[2] if len(op) > 2 else ())))
            return None
        if kind == "at_own_time":
            handles.append(q.schedule_at(q.now, action(())))
            return None
        if kind == "schedule_past":
            return q.schedule_at(q.now - 1.0, action(()))
        if kind == "schedule_at":
            how, offset = op[1], op[2]
            time = {
                "ahead": q.now + offset,
                "ulp": math.nextafter(q.now, -math.inf),
                "past": q.now - 0.5 - offset,
            }[how]
            handles.append(q.schedule_at(time, action(op[3])))
            return None
        if kind == "cancel":
            handle = pick(op[1])
            return None if handle is None else q.cancel(handle)
        if kind == "step":
            return q.step()
        if kind == "run":
            return q.run()
        if kind == "run_until":
            return q.run(until=q.now + op[1])
        return q.run(max_events=op[1])  # "run_max"

    for op in [*program, ("run",)]:
        try:
            result = apply(op)
        except Exception as exc:  # compared by type and text
            result = ("raised", type(exc).__name__, str(exc))
        log.append(("op", op[0], result, q.now, q.executed, q.pending_count,
                    q.peak_pending))
    if profiler is not None:
        log.append((
            profiler.events, profiler.batches, profiler.batch_hist,
            profiler.batch_samples,
            sorted((key, s.events) for key, s in profiler.sites.items()),
        ))
    return tuple(log)


@pytest.mark.parametrize("hooked", [False, True], ids=["bare", "hooked"])
@given(program=PROGRAMS)
def test_any_program_runs_as_on_the_reference_queue(hooked, program):
    assert observe(EventQueue, program, hooked=hooked) == observe(
        reference_events.EventQueue, program, hooked=hooked)


# one hand-written program: equal-time ties, an action that schedules at
# its own timestamp and one that cancels a batch sibling, a clamped and a
# refused past time, exhaustion and resume — pinned here, and the
# program both mutants below must fail on
_TIES = [
    ("schedule", 1.0, (("at_own_time",), ("schedule", 0.0))),
    ("schedule", 1.0, (("cancel", 2),)),
    ("schedule", 1.0, ()),
    ("schedule_at", "ulp", 0.0, ()),
    ("schedule_at", "past", 0.0, ()),
    ("run_max", 2), ("step",), ("run_max", 0), ("run_until", 0.3),
    ("run_max", 1), ("run",),
]


@pytest.mark.parametrize("hooked", [False, True], ids=["bare", "hooked"])
def test_a_tie_heavy_program_matches_and_exercises_every_path(hooked):
    seen = observe(EventQueue, _TIES, hooked=hooked)
    assert seen == observe(reference_events.EventQueue, _TIES, hooked=hooked)
    raised = [entry[2][2] for entry in seen
              if entry[0] == "op" and isinstance(entry[2], tuple)]
    assert raised == [
        "cannot schedule in the past (delay=-0.5)",
        "exceeded 2 events; runaway simulation?",
        "exceeded 0 events; runaway simulation?",
    ]
    # tags 0-2 are the three 1.0 s actions, 3 the ulp-past one, 4 the
    # refused past one; 0 schedules 5 (at its own time) and 6, and 1
    # cancels 2
    assert [entry[1] for entry in seen if entry[0] == "ran"] == [3, 0, 1, 5, 6]


# --------------------------------------------------------------------- #
# mutants: the comparison notices a wrong order or a cancel that leaks  #
# --------------------------------------------------------------------- #


class _TimeOnlyEntry(events._Entry):
    """Orders by time alone: equal-time events lose their FIFO order."""

    __slots__ = ()

    def __lt__(self, other):
        return self[0] < other[0]


class _CancelKeepsAction(EventQueue):
    """Forgets the event as pending but leaves its action in the heap."""

    def cancel(self, entry):
        return self._pending.pop(entry[1], None) is not None


@pytest.mark.parametrize("hooked", [False, True], ids=["bare", "hooked"])
@pytest.mark.parametrize("mutant", ["orders_by_time_only", "cancel_leaves_the_action"])
def test_mutant_queue_fails_the_comparison(mutant, hooked, monkeypatch):
    if mutant == "orders_by_time_only":
        monkeypatch.setattr(events, "_Entry", _TimeOnlyEntry)
        make_queue = EventQueue
    else:
        make_queue = _CancelKeepsAction
    assert observe(make_queue, _TIES, hooked=hooked) != observe(
        reference_events.EventQueue, _TIES, hooked=hooked)
