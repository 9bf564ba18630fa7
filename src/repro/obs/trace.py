"""Structured tracing keyed to *simulated* time.

A :class:`Tracer` records a forest of hierarchical :class:`Span` objects
(``repair -> attempt -> pipeline -> transfer``) plus point-in-time
:class:`SpanEvent` records (faults, watchdog fires, replans, ladder
rungs, cache hits).  Timestamps are plain floats in whatever clock the
producer uses — the cluster prototype passes its deterministic
event-queue time, so two runs with the same seed produce identical
traces.

The module is dependency-free (stdlib only) and the default tracer used
by every instrumented code path is :data:`NULL_TRACER`, whose methods do
nothing and return the shared :data:`NULL_SPAN` sentinel.  Hot paths
guard any *formatting* work behind ``tracer.enabled``, so no-op mode
pays only the plain calls — one attribute lookup plus an empty method
invocation each; a planning request makes two
(``tests/obs/test_obs_counts.py`` counts them).

All mutation goes through the tracer (``start_span`` / ``end_span`` /
``event`` / ``set_attrs`` / ``record_transfer``) rather than through
span objects, so the null implementation can swallow everything in one
place.

Slice transfers are recorded as *rows*, not spans.  Every slice a
repair puts on the wire is one uplink and one downlink ``transfer``
span — tens of thousands per repair at small slice sizes — so
:meth:`Tracer.record_transfer` appends the slice's numbers to flat
``array`` columns held by its pipeline span (72 bytes a slice, nothing
for the garbage collector to walk) and builds no ``Span``.
Readers never see the difference: ``roots``, ``spans()``, ``find()``
and a span's ``children`` present each row as its two ``Span`` objects,
in span-id order among the spans recorded directly.  Those spans are
built on every read and not kept, so reading a whole trace twice builds
its transfer spans twice; a span built from a row is a view, and events
or attributes added to it are not kept.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from operator import attrgetter
from typing import Callable, Iterator


class SpanEvent:
    """A point-in-time occurrence attached to a span (or to the root)."""

    __slots__ = ("name", "time", "attrs")

    def __init__(self, name: str, time: float, attrs: dict):
        self.name = name
        self.time = time
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"SpanEvent({self.name!r}, t={self.time:.6g}, {self.attrs})"


class Span:
    """One timed operation; nests through ``children``.

    ``end`` stays ``None`` while the span is open.  ``kind`` is the
    span-tree level (``repair`` / ``attempt`` / ``pipeline`` /
    ``transfer`` / free-form); exporters group lanes by it.

    ``events`` and ``children`` are iterables for readers: both are the
    shared empty tuple until the tracer first appends to them (a leaf
    ``transfer`` span never owns a container), and only the tracer
    mutates them.  ``children`` merges the spans recorded under this one
    with the transfer rows recorded under it, by span id.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "kind",
        "start",
        "end",
        "attrs",
        "events",
        "_children",
        "_rows",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        kind: str,
        start: float,
        parent_id: int | None = None,
        attrs: dict | None = None,
        end: float | None = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end = end
        self.attrs = attrs or {}
        self.events: list[SpanEvent] | tuple = ()
        self._children: list["Span"] | tuple = ()
        self._rows: _Rows | None = None

    @property
    def children(self) -> list["Span"] | tuple:
        rows = self._rows
        if rows is None:
            return self._children
        return _merged(self._children, rows.spans(self.span_id))

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"Span({self.kind}:{self.name!r}, [{self.start:.6g}, "
            f"{self.end if self.end is None else format(self.end, '.6g')}), "
            f"{len(self.children)} children)"
        )


class _Rows:
    """Slice transfers recorded under one span, one row per slice.

    Row ``i`` is ``ints[6i : 6i + 6]`` = (uplink span id, src, dst, lo,
    hi, pipeline), ``times[2i : 2i + 2]`` = (start, end) and
    ``wires[i]``; its downlink span's id is the uplink's plus one.
    """

    __slots__ = ("ints", "times", "wires")

    def __init__(self) -> None:
        self.ints = array("q")
        self.times = array("d")
        self.wires: list = []

    def spans(self, parent_id: int | None) -> list[Span]:
        """The rows as the uplink + downlink ``Span`` pairs they stand for."""
        ints, times = self.ints, self.times
        out: list[Span] = []
        append = out.append
        for sid, src, dst, lo, hi, pipeline, start, end, wire in zip(
            ints[0::6], ints[1::6], ints[2::6], ints[3::6], ints[4::6],
            ints[5::6], times[0::2], times[1::2], self.wires,
        ):
            name = f"{src}→{dst}"
            if start > end:  # record_span's max(end, start)
                end = start
            append(Span(sid, name, "transfer", start, parent_id, {
                "node": src, "direction": "uplink", "src": src, "dst": dst,
                "lo": lo, "hi": hi, "wire": wire, "pipeline": pipeline,
            }, end))
            append(Span(sid + 1, name, "transfer", start, parent_id, {
                "node": dst, "direction": "downlink", "src": src, "dst": dst,
                "lo": lo, "hi": hi, "wire": wire, "pipeline": pipeline,
            }, end))
        return out


def _merged(spans: list[Span] | tuple, built: list[Span]) -> list[Span]:
    """Two id-ordered span lists as one, in id order."""
    if not spans:
        return built
    return list(heapq.merge(spans, built, key=attrgetter("span_id")))


def _depth_first(roots, children) -> Iterator[Span]:
    stack = list(reversed(roots))
    while stack:
        span = stack.pop()
        yield span
        kids = children(span)
        if kids:
            stack.extend(reversed(kids))


class _NullSpan:
    """Shared sentinel returned by :class:`NullTracer`; falsy, immutable."""

    __slots__ = ()
    span_id = 0
    parent_id = None
    name = "null"
    kind = "null"
    start = 0.0
    end = 0.0
    duration = 0.0
    attrs: dict = {}
    events: tuple = ()
    children: tuple = ()

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return "NULL_SPAN"


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans and events; every producer shares one instance.

    ``clock`` supplies the default timestamp when a call omits ``t``
    (the cluster binds it to its event queue's ``now``); with no clock,
    implicit timestamps are 0.0, so standalone producers should pass
    explicit times.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock = clock
        self._roots: list[Span] = []
        #: transfer rows recorded with no parent span
        self._orphans = _Rows()
        #: events not attached to any span (e.g. faults outside a repair)
        self.events: list[SpanEvent] = []
        self._ids = itertools.count(1)

    @property
    def roots(self) -> list[Span]:
        """Top-level spans, in id order (orphaned transfer rows included)."""
        if not self._orphans.wires:
            return self._roots
        return _merged(self._roots, self._orphans.spans(None))

    # ---- time --------------------------------------------------------- #

    def now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def _at(self, t: float | None) -> float:
        return self.now() if t is None else t

    # ---- span lifecycle ------------------------------------------------ #

    def start_span(
        self,
        name: str,
        *,
        kind: str = "span",
        parent: Span | None = None,
        t: float | None = None,
        **attrs,
    ) -> Span:
        span = Span(
            next(self._ids),
            name,
            kind,
            self._at(t),
            parent.span_id if parent else None,
            attrs,
        )
        self._place(span, parent)
        return span

    def _place(self, span: Span, parent: Span | None) -> None:
        """Hang ``span`` under ``parent`` (or among the roots)."""
        if parent:
            if parent._children:
                parent._children.append(span)
            else:
                parent._children = [span]
        else:
            self._roots.append(span)

    def end_span(self, span: Span, t: float | None = None, **attrs) -> Span:
        if not span:
            return span
        span.end = max(self._at(t), span.start)
        if attrs:
            span.attrs.update(attrs)
        return span

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        kind: str = "span",
        parent: Span | None = None,
        **attrs,
    ) -> Span:
        """One-shot span whose start and end are both already known.

        Same ids, parents, attrs and placement as ``start_span(t=start)``
        followed by ``end_span(t=end)``; the span is built closed.
        """
        span = Span(
            next(self._ids),
            name,
            kind,
            start,
            parent.span_id if parent else None,
            attrs,
            max(end, start),
        )
        self._place(span, parent)
        return span

    def record_transfer(
        self,
        parent: Span | None,
        src: int,
        dst: int,
        lo: int,
        hi: int,
        start: float,
        end: float,
        wire: str,
        pipeline: int,
    ) -> None:
        """One slice on the wire, recorded as a row under ``parent``.

        Readers see the row as the two spans ``record_span`` would have
        recorded here — ``"{src}→{dst}"``, kind ``transfer``, attrs
        ``node`` / ``direction`` / ``src`` / ``dst`` / ``lo`` / ``hi`` /
        ``wire`` / ``pipeline``, uplink (``node=src``) then downlink
        (``node=dst``) — with the same two span ids.
        """
        if parent:
            rows = parent._rows
            if rows is None:
                rows = parent._rows = _Rows()
        else:
            rows = self._orphans
        sid = next(self._ids)
        next(self._ids)
        rows.ints.fromlist([sid, src, dst, lo, hi, pipeline])
        rows.times.fromlist([start, end])
        rows.wires.append(wire)

    def event(
        self,
        span: Span | None,
        name: str,
        t: float | None = None,
        **attrs,
    ) -> SpanEvent:
        ev = SpanEvent(name, self._at(t), attrs)
        if not span:
            self.events.append(ev)
        elif span.events:
            span.events.append(ev)
        else:
            span.events = [ev]
        return ev

    def set_attrs(self, span: Span, **attrs) -> None:
        if span:
            span.attrs.update(attrs)

    # ---- queries ------------------------------------------------------- #

    def spans(self) -> Iterator[Span]:
        """Depth-first iterator over every recorded span."""
        return _depth_first(self.roots, attrgetter("children"))

    def find(self, *, kind: str | None = None, name: str | None = None) -> list[Span]:
        return [
            s
            for s in self.spans()
            if (kind is None or s.kind == kind)
            and (name is None or s.name == name)
        ]

    def all_events(self) -> list[SpanEvent]:
        """Every event (span-attached and root-level), in time order."""
        out = list(self.events)
        # transfer rows carry no events: walk only the spans recorded as
        # spans (same depth-first order, so equal times tie the same way)
        for span in _depth_first(self._roots, attrgetter("_children")):
            out.extend(span.events)
        out.sort(key=lambda e: e.time)
        return out

    def event_names(self) -> list[str]:
        return [e.name for e in self.all_events()]

    def clear(self) -> None:
        self._roots.clear()
        self._orphans = _Rows()
        self.events.clear()


class NullTracer(Tracer):
    """The always-on default: swallows everything at near-zero cost."""

    enabled = False

    def __init__(self):
        super().__init__()

    def now(self) -> float:
        return 0.0

    def start_span(self, name, **kwargs) -> Span:  # type: ignore[override]
        return NULL_SPAN  # type: ignore[return-value]

    def end_span(self, span, t=None, **attrs) -> Span:
        return NULL_SPAN  # type: ignore[return-value]

    def record_span(self, name, start, end, **kwargs) -> Span:  # type: ignore[override]
        return NULL_SPAN  # type: ignore[return-value]

    def record_transfer(self, parent, *row) -> None:
        return None

    def event(self, span, name, t=None, **attrs) -> SpanEvent:
        return _NULL_EVENT

    def set_attrs(self, span, **attrs) -> None:
        return None


_NULL_EVENT = SpanEvent("null", 0.0, {})

#: Process-wide no-op tracer; instrumented code defaults to this.
NULL_TRACER = NullTracer()
