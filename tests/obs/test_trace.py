"""Tracer/Span/NullTracer unit behaviour."""

from hypothesis import given, strategies as st

from repro.obs import NULL_SPAN, NULL_TRACER, NullTracer, Tracer


class TestSpanTree:
    def test_start_end_roundtrip(self):
        tr = Tracer()
        span = tr.start_span("repair s1", kind="repair", t=1.0, stripe="s1")
        assert span.start == 1.0 and span.end is None
        assert span.duration is None
        tr.end_span(span, t=3.5, status="completed")
        assert span.end == 3.5
        assert span.duration == 2.5
        assert span.attrs == {"stripe": "s1", "status": "completed"}

    def test_parenting(self):
        tr = Tracer()
        root = tr.start_span("repair", kind="repair", t=0.0)
        child = tr.start_span("attempt 1", kind="attempt", parent=root, t=0.0)
        grand = tr.start_span("pipeline 0", kind="pipeline", parent=child, t=0.0)
        assert tr.roots == [root]
        assert root.children == [child]
        assert child.children == [grand]
        assert grand.parent_id == child.span_id
        assert child.parent_id == root.span_id
        assert root.parent_id is None

    def test_span_ids_unique(self):
        tr = Tracer()
        ids = {tr.start_span(f"s{i}", t=0.0).span_id for i in range(50)}
        assert len(ids) == 50

    def test_end_clamps_to_start(self):
        tr = Tracer()
        span = tr.start_span("x", t=5.0)
        tr.end_span(span, t=1.0)
        assert span.end == 5.0  # never negative durations

    def test_record_span_is_one_shot(self):
        tr = Tracer()
        span = tr.record_span("tx", 2.0, 4.0, kind="transfer", src=1)
        assert (span.start, span.end) == (2.0, 4.0)
        assert span.kind == "transfer"
        assert span.attrs == {"src": 1}
        assert tr.roots == [span]

    def test_set_attrs_merges(self):
        tr = Tracer()
        span = tr.start_span("x", t=0.0, a=1)
        tr.set_attrs(span, b=2)
        assert span.attrs == {"a": 1, "b": 2}

    def test_depth_first_iteration(self):
        tr = Tracer()
        a = tr.start_span("a", t=0.0)
        a1 = tr.start_span("a1", parent=a, t=0.0)
        tr.start_span("a1x", parent=a1, t=0.0)
        tr.start_span("a2", parent=a, t=0.0)
        tr.start_span("b", t=0.0)
        assert [s.name for s in tr.spans()] == ["a", "a1", "a1x", "a2", "b"]

    def test_find_by_kind_and_name(self):
        tr = Tracer()
        tr.start_span("repair s1", kind="repair", t=0.0)
        tr.start_span("attempt 1", kind="attempt", t=0.0)
        tr.start_span("attempt 2", kind="attempt", t=0.0)
        assert len(tr.find(kind="attempt")) == 2
        assert [s.name for s in tr.find(name="attempt 1")] == ["attempt 1"]
        assert tr.find(kind="pipeline") == []

    def test_clear(self):
        tr = Tracer()
        tr.start_span("x", t=0.0)
        tr.event(None, "e", t=0.0)
        tr.clear()
        assert tr.roots == [] and tr.events == []


class TestEvents:
    def test_event_on_span_vs_root(self):
        tr = Tracer()
        span = tr.start_span("x", t=0.0)
        on_span = tr.event(span, "watchdog.fire", t=1.0, attempt=1)
        on_root = tr.event(None, "node.crash", t=0.5, node=3)
        assert span.events == [on_span]
        assert tr.events == [on_root]
        assert on_span.attrs == {"attempt": 1}

    def test_all_events_time_sorted(self):
        tr = Tracer()
        span = tr.start_span("x", t=0.0)
        tr.event(span, "late", t=2.0)
        tr.event(None, "early", t=0.5)
        tr.event(span, "mid", t=1.0)
        assert tr.event_names() == ["early", "mid", "late"]

    def test_clock_supplies_default_timestamps(self):
        times = iter([1.25, 2.5])
        tr = Tracer(clock=lambda: next(times))
        span = tr.start_span("x")
        ev = tr.event(span, "e")
        assert span.start == 1.25
        assert ev.time == 2.5

    def test_no_clock_defaults_to_zero(self):
        tr = Tracer()
        assert tr.start_span("x").start == 0.0


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_null_span_is_falsy_and_shared(self):
        nt = NullTracer()
        span = nt.start_span("x", kind="repair", t=1.0, a=1)
        assert span is NULL_SPAN
        assert not span
        assert nt.record_span("y", 0.0, 1.0) is NULL_SPAN
        assert nt.end_span(span, t=5.0) is NULL_SPAN

    def test_swallows_everything(self):
        nt = NullTracer()
        s = nt.start_span("x")
        nt.event(s, "e", t=1.0)
        nt.event(None, "e2", t=1.0)
        nt.set_attrs(s, a=1)
        assert nt.record_transfer(s, 0, 1, 0, 8, 0.0, 1.0, "w", 0) is None
        assert nt.roots == [] and nt.events == []
        assert list(nt.spans()) == []
        assert nt.all_events() == []
        assert NULL_SPAN.attrs == {}

    def test_real_tracer_tolerates_null_span(self):
        # instrumented code ends/annotates whatever it kept a handle on,
        # which may be NULL_SPAN from an earlier no-op phase
        tr = Tracer()
        assert tr.end_span(NULL_SPAN, t=1.0) is NULL_SPAN
        tr.set_attrs(NULL_SPAN, a=1)
        tr.event(NULL_SPAN, "e", t=0.0)  # falsy span -> root event
        assert NULL_SPAN.attrs == {} and NULL_SPAN.end == 0.0
        assert [e.name for e in tr.events] == ["e"]


_ATTR_KEYS = ("src", "dst", "lo", "hi", "wire", "node", "direction")
_SPAN_SPECS = st.lists(
    st.tuples(
        st.text(max_size=8),  # name
        st.floats(allow_nan=False, allow_infinity=False),  # start
        st.floats(allow_nan=False, allow_infinity=False),  # end
        st.sampled_from(("span", "transfer", "pipeline")),  # kind
        st.none() | st.integers(min_value=0),  # parent: root, or an earlier span
        st.dictionaries(
            st.sampled_from(_ATTR_KEYS), st.integers() | st.text(max_size=4)
        ),
    ),
    min_size=1,
    max_size=12,
)


def _forest(tr):
    """Everything observable about a tracer's spans, placement included."""

    def view(span):
        return (
            span.span_id, span.parent_id, span.name, span.kind, span.start,
            span.end, span.attrs, [(e.name, e.time, e.attrs) for e in span.events],
            [view(c) for c in span.children],
        )

    return [view(root) for root in tr.roots]


class TestRecordSpanIsStartPlusEnd:
    """``record_span`` is the direct path, not a different one."""

    @given(_SPAN_SPECS)
    def test_same_forest_as_start_then_end(self, specs):
        fast, slow = Tracer(), Tracer()
        fast_spans, slow_spans = [], []
        for name, start, end, kind, parent, attrs in specs:
            at = parent % len(fast_spans) if parent is not None and fast_spans else None
            fp = None if at is None else fast_spans[at]
            sp = None if at is None else slow_spans[at]
            fast_spans.append(
                fast.record_span(name, start, end, kind=kind, parent=fp, **attrs)
            )
            span = slow.start_span(name, kind=kind, parent=sp, t=start, **attrs)
            slow_spans.append(slow.end_span(span, t=end))
        assert _forest(fast) == _forest(slow)
        assert all(s.end == max(s.start, spec[2]) for s, spec in zip(fast_spans, specs))
        assert [s.span_id for s in fast.spans()] == [s.span_id for s in slow.spans()]
        # a recorded span takes events, attrs and children like any other
        for tr, spans in ((fast, fast_spans), (slow, slow_spans)):
            tr.event(spans[0], "late", t=1.0, n=1)
            tr.event(spans[0], "later", t=2.0)
            tr.set_attrs(spans[-1], extra=True)
            tr.start_span("child", parent=spans[-1], t=0.0)
        assert _forest(fast) == _forest(slow)
        assert fast.event_names() == slow.event_names()

    def test_leaf_span_owns_no_containers_until_used(self):
        tr = Tracer()
        leaf = tr.record_span("tx", 0.0, 1.0, kind="transfer")
        assert leaf.children == () and leaf.events == ()
        assert list(leaf.children) == [] and len(leaf.events) == 0
        child = tr.record_span("c", 0.0, 1.0, parent=leaf)
        ev = tr.event(leaf, "e", t=0.5)
        assert leaf.children == [child] and leaf.events == [ev]
        assert tr.roots == [leaf]
