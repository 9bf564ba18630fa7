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
``event`` / ``set_attrs``) rather than through span objects, so the
null implementation can swallow everything in one place.
"""

from __future__ import annotations

import itertools
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
    mutates them.
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
        "children",
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
        self.children: list["Span"] | tuple = ()

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"Span({self.kind}:{self.name!r}, [{self.start:.6g}, "
            f"{self.end if self.end is None else format(self.end, '.6g')}), "
            f"{len(self.children)} children)"
        )


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
        self.roots: list[Span] = []
        #: events not attached to any span (e.g. faults outside a repair)
        self.events: list[SpanEvent] = []
        self._ids = itertools.count(1)

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
            if parent.children:
                parent.children.append(span)
            else:
                parent.children = [span]
        else:
            self.roots.append(span)

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
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

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
        for span in self.spans():
            out.extend(span.events)
        out.sort(key=lambda e: e.time)
        return out

    def event_names(self) -> list[str]:
        return [e.name for e in self.all_events()]

    def clear(self) -> None:
        self.roots.clear()
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

    def event(self, span, name, t=None, **attrs) -> SpanEvent:
        return _NULL_EVENT

    def set_attrs(self, span, **attrs) -> None:
        return None


_NULL_EVENT = SpanEvent("null", 0.0, {})

#: Process-wide no-op tracer; instrumented code defaults to this.
NULL_TRACER = NullTracer()
