"""Count gate: trace synthesis makes one Python pass over its instants.

Every scenario synthesises a 6,000-instant trace, so a generator that
walks the instants once per latent series (four AR(1) loops, then the
burst chain) pays for it in every set-up.  Lines executed in
``repro/workloads/base.py`` are the same on every machine: between 1,000
and 3,000 instants they may grow by at most two per instant (the
recurrence's ``for`` line and its body), and the burst chain's
``np.where`` calls may not grow at all.  The frozen row-loop generator
reads ~11 lines per instant and one ``np.where`` per instant, and fails
both gates.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.workloads import WORKLOADS, make_trace
from repro.workloads import base

from . import reference_generator

SHORT, LONG = 1_000, 3_000


def _generate(t: int) -> None:
    make_trace("tpcds", num_nodes=12, num_snapshots=t, seed=7)


def _reference(t: int) -> None:
    reference_generator.reference_generate(
        "tpcds",
        WORKLOADS["tpcds"].profile,
        num_nodes=12,
        capacity_mbps=1000.0,
        seed=7,
        num_snapshots=t,
    )


def lines_executed(run, t: int, filename: str) -> int:
    """Line events ``run(t)`` executes in ``filename``."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run(t)
    finally:
        sys.settrace(previous)
    return count


def where_calls(run, t: int, monkeypatch) -> int:
    calls = 0
    real = np.where

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "where", counting)
        run(t)
    return calls


def per_instant(run, filename: str) -> float:
    grow = lines_executed(run, LONG, filename) - lines_executed(run, SHORT, filename)
    return grow / (LONG - SHORT)


def test_at_most_two_lines_per_instant():
    assert per_instant(_generate, base.__file__) <= 2.0


def test_the_row_loop_generator_fails_the_line_gate():
    assert per_instant(_reference, reference_generator.__file__) > 10.0


def test_np_where_calls_do_not_grow_with_the_trace(monkeypatch):
    assert where_calls(_generate, SHORT, monkeypatch) == where_calls(
        _generate, LONG, monkeypatch
    )


def test_the_row_loop_generator_fails_the_where_gate(monkeypatch):
    grow = where_calls(_reference, LONG, monkeypatch) - where_calls(
        _reference, SHORT, monkeypatch
    )
    assert grow == LONG - SHORT
