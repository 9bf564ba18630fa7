"""Count gate: a sampled repair instance costs its draws.

``plan_sweep`` samples thousands of contexts from 6,000-instant traces.
A trace is checked once, when built, and its arrays are read-only, so
``Trace.snapshot`` cuts an instant without running the snapshot's check
again, and ``sample_contexts`` makes a handful of Python-level calls per
context (``sys.setprofile`` "call" events, generator resumes included;
65 when every snapshot was re-checked through ``np.any`` and the ids
went through generator expressions).  Counts, unlike timings, are the
same on every machine.  A mutant ``Trace`` that leaves its arrays
writable lets an in-place negative reach a snapshot unchecked, and must
fail the gate.
"""

from __future__ import annotations

import inspect
import sys
import types

import numpy as np
import pytest

from repro.analysis.experiments import sample_contexts
from repro.net.bandwidth import BandwidthSnapshot
from repro.workloads import base, make_trace

#: Python-level calls per sampled (14,10) context; 65 before the trace
#: was checked once and the instant drawn with one integer.
CALLS_PER_CONTEXT = 12


@pytest.fixture(scope="module")
def trace():
    return make_trace("tpcds", num_nodes=16, num_snapshots=1500, seed=3)


def _calls(run) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_python_calls_per_context(trace):
    sample_contexts(trace, 14, 10, 5, seed=1)  # warm: imports and lazy attributes
    few = _calls(lambda: sample_contexts(trace, 14, 10, 100, seed=1))
    many = _calls(lambda: sample_contexts(trace, 14, 10, 300, seed=1))
    per_context = (many - few) / 200
    assert 0 < per_context <= CALLS_PER_CONTEXT


def test_snapshot_runs_no_snapshot_check(trace, monkeypatch):
    checks = 0
    real = BandwidthSnapshot.__post_init__

    def counting(self):
        nonlocal checks
        checks += 1
        real(self)

    monkeypatch.setattr(BandwidthSnapshot, "__post_init__", counting)
    BandwidthSnapshot.uniform(4, 1.0)
    assert checks == 1  # teeth: the counter sees a checked construction
    for t in range(len(trace)):
        trace.snapshot(t)
    sample_contexts(trace, 14, 10, 50, seed=2)
    assert checks == 1


def _writes_refused(trace_cls) -> bool:
    """Whether a trace's arrays refuse an in-place negative, so no
    unchecked snapshot can carry one."""
    t = trace_cls(
        workload="flat", capacity_mbps=100.0,
        uplink=np.full((3, 4), 50.0), downlink=np.full((3, 4), 50.0),
    )
    for array in (t.uplink, t.downlink):
        try:
            array[1, 2] = -1.0
        except ValueError:
            continue
    snap = t.snapshot(1)
    return bool((snap.uplink >= 0).all() and (snap.downlink >= 0).all())


def test_trace_arrays_refuse_in_place_writes(trace):
    assert _writes_refused(base.Trace)
    for array in (trace.uplink, trace.downlink):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = -1.0


#: the trace's arrays left writable after the check
WRITABLE = (
    "        check_bandwidths(up, down)\n"
    "        up.setflags(write=False)\n"
    "        down.setflags(write=False)\n",
    "        check_bandwidths(up, down)\n",
)


def test_a_writable_trace_mutant_fails_the_gate(monkeypatch):
    source = inspect.getsource(base)
    old, new = WRITABLE
    assert source.count(old) == 1
    module = types.ModuleType("base_mutant")
    module.__package__ = base.__package__
    monkeypatch.setitem(sys.modules, module.__name__, module)  # for @dataclass
    exec(compile(source.replace(old, new), "<mutant>", "exec"), module.__dict__)
    assert not _writes_refused(module.Trace)
