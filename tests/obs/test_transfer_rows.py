"""Transfer rows read back as the spans two ``record_span`` calls made.

The cluster's send hook records each slice with one
``Tracer.record_transfer`` call, which appends a row to flat columns and
builds no ``Span``.  :class:`ReferenceTracer` is the tracer as it was
before rows: its ``record_transfer`` makes the two ``record_span`` calls
(uplink, then downlink) the hook used to make.  Every input below runs
under both, and everything a reader can see must be equal:

* the span forest (``test_trace._forest``: ids, parents, names, kinds,
  times, attrs, events, placement) and the key order of every span's
  attrs;
* ``find`` and ``all_events``;
* the ``spans_to_jsonl`` and ``chrome_trace_json`` bytes;
* ``repro.obs.attr``'s attribution of every repair span;
* ``render_repair_timeline``.

Two mutants of the row reader — uplink and downlink ids swapped, and
orphan rows placed after the roots instead of among them by id — must
fail the same comparison.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis import render_repair_timeline
from repro.cluster import ClusterSystem
from repro.ec import RSCode
from repro.net import BandwidthSnapshot, units
from repro.obs import MetricsRegistry, Tracer, chrome_trace_json, spans_to_jsonl
from repro.obs import demo, trace
from repro.obs.attr import attribute_repairs
from repro.recovery import scenario

from ..cluster.test_chaos import run_one
from .test_trace import _forest


class ReferenceTracer(Tracer):
    """Records each slice as two closed spans, as the send hook once did."""

    def record_transfer(self, parent, src, dst, lo, hi, start, end, wire, pipeline):
        name = f"{src}→{dst}"
        self.record_span(
            name, start, end, kind="transfer", parent=parent,
            node=src, direction="uplink", src=src, dst=dst,
            lo=lo, hi=hi, wire=wire, pipeline=pipeline,
        )
        self.record_span(
            name, start, end, kind="transfer", parent=parent,
            node=dst, direction="downlink", src=src, dst=dst,
            lo=lo, hi=hi, wire=wire, pipeline=pipeline,
        )


def observed(tracer: Tracer) -> dict:
    """Everything a reader of ``tracer`` can see."""
    return {
        "forest": _forest(tracer),
        "attr_keys": [list(s.attrs) for s in tracer.spans()],
        "find": [s.span_id for s in tracer.find(kind="transfer")],
        "events": [(e.name, e.time, e.attrs) for e in tracer.all_events()],
        "jsonl": spans_to_jsonl(tracer),
        "chrome": chrome_trace_json(tracer),
        "attr": repr(attribute_repairs(tracer)),
        "timeline": render_repair_timeline(tracer),
    }


def _transfers(tracer: Tracer) -> int:
    return sum(1 for s in tracer.spans() if s.kind == "transfer")


# --------------------------------------------------------------------- #
# inputs                                                                #
# --------------------------------------------------------------------- #


def _hub_crash(tracer_cls, monkeypatch) -> Tracer:
    monkeypatch.setattr(demo, "Tracer", tracer_cls)
    return demo.traced_hub_crash_repair().tracer


def _recovery(tracer_cls, monkeypatch) -> Tracer:
    monkeypatch.setattr(scenario, "Tracer", tracer_cls)
    return scenario.run_recovery_scenario(
        num_stripes=3,
        chunk_bytes=8 * units.KIB,
        slice_bytes=1 * units.KIB,
        foreground_reads=10,
        kills=((0, 0.001), (3, 0.004)),
    ).tracer


def _clean_repair(tracer_cls, monkeypatch) -> Tracer:
    tracer = tracer_cls()
    system = ClusterSystem(16, RSCode(14, 10), slice_bytes=16 * units.KIB,
                           tracer=tracer, metrics=MetricsRegistry())
    rng = np.random.default_rng(7)
    system.set_bandwidth(BandwidthSnapshot(
        uplink=rng.uniform(100.0, 1000.0, 16),
        downlink=rng.uniform(100.0, 1000.0, 16),
    ))
    data = rng.integers(0, 256, (10, 256 * units.KIB), dtype=np.uint8)
    system.write_stripe("s", data, placement=tuple(range(14)))
    system.fail_node(0)
    assert system.repair("s", 0, 15, store=False).verified
    return tracer


def _synthetic(tracer_cls, monkeypatch=None) -> Tracer:
    """Orphan rows before, between and after roots; rows and own children
    interleaved under one pipeline span, which also carries events."""
    tr = tracer_cls()
    tr.record_transfer(None, 0, 1, 0, 10, 0.0, 1.0, "w0", 0)
    repair = tr.start_span("repair s", kind="repair", t=0.0, stripe="s",
                           requester=2, chunk_bytes=20, algorithm="fullrepair")
    attempt = tr.start_span("attempt 1", kind="attempt", parent=repair, t=0.0)
    pipe = tr.start_span("pipeline 0", kind="pipeline", parent=attempt, t=0.0,
                         pipeline=0, bytes=20, wire="w1", rate_mbps=100.0)
    tr.record_transfer(pipe, 0, 1, 0, 10, 0.0, 1.0, "w1", 0)
    tr.event(pipe, "slice.retransmit", t=0.5, node=1)
    tr.record_transfer(pipe, 1, 2, 0, 10, 1.0, 2.0, "w1", 0)
    tr.record_transfer(None, 3, 2, 10, 20, 1.5, 1.25, "w0", 1)  # ends early
    tr.start_span("probe", parent=pipe, t=1.0)
    tr.record_transfer(pipe, 1, 2, 10, 20, 2.0, 3.0, "w1", 0)
    tr.event(pipe, "watchdog.fire", t=2.5)
    tr.end_span(pipe, t=3.0)
    tr.end_span(attempt, t=3.0)
    tr.end_span(repair, t=3.0, status="completed")
    tr.start_span("second root", t=3.0)
    tr.record_transfer(None, 2, 0, 0, 4, 3.0, 3.5, "w2", 2)
    tr.event(None, "node.crash", t=0.5, node=3)
    return tr


INPUTS = {
    "hub_crash_demo": _hub_crash,
    "small_recovery_scenario": _recovery,
    "clean_14_10_repair": _clean_repair,
    "synthetic_forest": _synthetic,
}


@pytest.mark.parametrize("name", list(INPUTS))
def test_rows_read_as_the_reference_spans(name, monkeypatch):
    ref = INPUTS[name](ReferenceTracer, monkeypatch)
    real = INPUTS[name](Tracer, monkeypatch)
    assert _transfers(real) > 0
    assert observed(real) == observed(ref)


@pytest.mark.parametrize("seed", range(20))
def test_chaos_seed_traces_match_the_reference(seed):
    traces = []
    for tracer in (ReferenceTracer(), Tracer()):
        run_one(seed, tracer=tracer, metrics=MetricsRegistry())
        traces.append(observed(tracer))
    assert traces[1] == traces[0]


# a random program against the tracer's recording API: (op, target, a, b)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(("span", "row", "event", "end")),
        st.none() | st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=1 << 20),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    ),
    max_size=40,
)


def _replay(tracer: Tracer, ops) -> Tracer:
    spans = []
    for op, target, a, b in ops:
        parent = None if target is None or not spans else spans[target % len(spans)]
        if op == "span":
            spans.append(tracer.start_span(f"s{a}", parent=parent, t=b, a=a))
        elif op == "row":
            tracer.record_transfer(parent, a % 17, a % 5, a, a + 3, b, b + a % 3 - 1,
                                   f"w{a % 2}", a % 4)
        elif op == "event":
            tracer.event(parent, f"e{a % 3}", t=b, n=a)
        elif parent is not None:
            tracer.end_span(parent, t=b)
    return tracer


@given(_OPS)
def test_any_recording_program_reads_the_same(ops):
    assert observed(_replay(Tracer(), ops)) == observed(_replay(ReferenceTracer(), ops))


# --------------------------------------------------------------------- #
# mutants: the comparison notices a reader that gets ids or order wrong #
# --------------------------------------------------------------------- #


def _ids_swapped(real_spans):
    def spans(self, parent_id):
        out = real_spans(self, parent_id)
        for up, down in zip(out[0::2], out[1::2]):
            up.span_id, down.span_id = down.span_id, up.span_id
        return out

    return spans


MUTANTS = {
    "uplink_downlink_ids_swapped": lambda mp: mp.setattr(
        trace._Rows, "spans", _ids_swapped(trace._Rows.spans)
    ),
    "orphan_rows_after_roots": lambda mp: mp.setattr(
        Tracer, "roots",
        property(lambda self: self._roots + self._orphans.spans(None)),
    ),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_reader_fails_the_comparison(mutant, monkeypatch):
    ref = observed(_synthetic(ReferenceTracer))
    assert observed(_synthetic(Tracer)) == ref
    MUTANTS[mutant](monkeypatch)
    assert observed(_synthetic(Tracer)) != ref
