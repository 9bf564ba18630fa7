"""Spans recorded from outside: wrappers around each layer's public calls.

Nothing under ``src/`` knows this file exists.  A :class:`Tracer`
replaces public functions and methods of the ``repro`` package with
timing wrappers for the length of a traced round and puts the original
objects back afterwards.  A span is ``(name, start_ns, end_ns,
parent)``; spans are kept in four flat ``array`` columns (34 bytes a
span, nothing for the garbage collector to walk) and written out once,
when the run ends.

Self time is a span's duration minus the time its child spans cover.
Every span has at most one parent and children never outlive it (one
thread, wrappers close in ``finally``), so self times of a tree sum to
the root's duration exactly — the ledger identity the harness checks.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

import numpy as np

#: span name of the harness's own per-op root span
ROOT = "op"
#: span name of the harness's per-round set-up root span
SETUP = "setup"


@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    ``owner`` is a class (``attr`` is looked up along its MRO and
    patched on the class that defines it) or a function object (every
    ``repro.*`` module attribute bound to that exact object is patched,
    so ``from .digest import slice_checksum`` call sites are covered).
    ``span=False`` installs a counting wrapper that takes no clock
    reading, so the callee's time stays in its caller's self time.
    ``value`` maps ``(args, kwargs, result)`` to an integer summed per
    name (bytes moved, tasks compiled, ...).  ``skip_modules`` lists
    module names whose binding is left alone (a helper called by
    another wrapped function of its own module).  ``per_site`` appends
    ``@<module>`` to the span name so call sites can be told apart.
    """

    name: str
    layer: str
    owner: object
    attr: str = ""
    span: bool = True
    value: Callable | None = None
    skip_modules: tuple[str, ...] = ()
    per_site: bool = False


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._sid: dict[str, int] = {}
        self.sids = array("h")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        #: summed ``Target.value`` results and call counts of counting
        #: wrappers, by span name
        self.values: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        #: (holder, attribute, original, wrapper) of every live patch
        self._patches: list[tuple[object, str, object, object]] = []

    # ---- recording ---------------------------------------------------- #

    def sid(self, name: str, layer: str) -> int:
        """Small-integer id of a span name (registered on first use)."""
        sid = self._sid.get(name)
        if sid is None:
            sid = self._sid[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return sid

    def begin(self, sid: int) -> int:
        """Open a span by hand (the harness's root spans); returns its index."""
        i = len(self.starts)
        self.sids.append(sid)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(perf_counter_ns())
        return i

    def end(self, i: int) -> int:
        """Close span ``i``; returns its duration in nanoseconds."""
        now = perf_counter_ns()
        self.ends[i] = now
        self._stack.pop()
        return now - self.starts[i]

    def _span_wrapper(self, fn, name: str, layer: str, value):
        sid = self.sid(name, layer)
        sids_append = self.sids.append
        parents_append = self.parents.append
        starts = self.starts
        starts_append = starts.append
        ends = self.ends
        ends_append = ends.append
        stack = self._stack
        push, pop = stack.append, stack.pop
        now = perf_counter_ns
        values = self.values

        if value is None:

            def wrapper(*args, **kwargs):
                i = len(starts)
                sids_append(sid)
                parents_append(stack[-1])
                ends_append(0)
                push(i)
                starts_append(now())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = now()
                    pop()

        else:
            values.setdefault(name, 0)

            def wrapper(*args, **kwargs):
                i = len(starts)
                sids_append(sid)
                parents_append(stack[-1])
                ends_append(0)
                push(i)
                starts_append(now())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[i] = now()
                    pop()
                values[name] += value(args, kwargs, result)
                return result

        return wrapper

    def _count_wrapper(self, fn, name: str, value):
        counts, values = self.counts, self.values
        counts.setdefault(name, 0)
        values.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            if value is not None:
                values[name] += value(args, kwargs, result)
            return result

        return wrapper

    def counters_snapshot(self) -> tuple[dict, dict]:
        """Copy of the summed values and counts (see :meth:`counters_restore`)."""
        return dict(self.values), dict(self.counts)

    def counters_restore(self, snapshot: tuple[dict, dict]) -> None:
        """Forget what values and counts accumulated since ``snapshot``.

        The harness brackets set-up with this, so summed bytes and
        counts cover timed ops only.  (In place: wrappers hold the dicts.)
        """
        for live, saved in zip((self.values, self.counts), snapshot):
            for key in live:
                live[key] = saved.get(key, 0)

    # ---- patching ----------------------------------------------------- #

    def install(self, targets: list[Target]) -> None:
        """Replace every target with its wrapper (undo with :meth:`uninstall`)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in targets:
            for holder, attr, original in _binding_sites(target):
                name = target.name
                if target.per_site:
                    name = f"{name}@{holder.__name__}"
                if target.span:
                    wrapper = self._span_wrapper(
                        original, name, target.layer, target.value
                    )
                else:
                    wrapper = self._count_wrapper(original, name, target.value)
                wrapper.__wrapped__ = original
                setattr(holder, attr, wrapper)
                self._patches.append((holder, attr, original, wrapper))

    def uninstall(self) -> None:
        """Put every original object back, and prove it.

        A module imported *while* the wrappers were installed may have
        bound one through ``from x import f``; those late bindings are
        found by identity and restored too.  Raises if any patched
        attribute does not end up holding the identical original.
        """
        originals = {id(w): o for (_h, _a, o, w) in self._patches}
        for holder, attr, original, _wrapper in reversed(self._patches):
            setattr(holder, attr, original)
        for module in _repro_modules():
            for attr, obj in list(vars(module).items()):
                original = originals.get(id(obj))
                if original is not None and obj.__wrapped__ is original:
                    setattr(module, attr, original)
        left = [
            f"{getattr(h, '__name__', h)}.{a}"
            for (h, a, o, _w) in self._patches
            if vars(h).get(a) is not o
        ]
        self._patches.clear()
        if left:
            raise RuntimeError(f"patched attributes not restored: {left}")

    # ---- reading ------------------------------------------------------ #

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(sids, parents, starts, ends)`` as numpy arrays (copies)."""
        return (
            np.array(self.sids, dtype=np.int64),
            np.array(self.parents, dtype=np.int64),
            np.array(self.starts, dtype=np.int64),
            np.array(self.ends, dtype=np.int64),
        )

    def write(self, path) -> int:
        """Write the spans as gzip'd JSON lines; returns the span count.

        Line 1 is a header naming the columns and mapping span-name ids
        to ``[name, layer]``; every further line is one span,
        ``[name_id, op, start_ns, end_ns, parent]`` (``op`` is the index
        of the enclosing root span, ``-1`` outside any op).
        """
        sids, parents, starts, ends = self.columns()
        ops = op_ids(sids, parents, self._sid.get(ROOT, -1))
        header = {
            "columns": ["name_id", "op", "start_ns", "end_ns", "parent"],
            "names": [list(pair) for pair in zip(self.names, self.layers)],
        }
        fmt = "[%d,%d,%d,%d,%d]".__mod__
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            rows = zip(
                sids.tolist(), ops.tolist(), starts.tolist(),
                ends.tolist(), parents.tolist(),
            )
            fh.write("\n".join(map(fmt, rows)))
            fh.write("\n")
        return len(sids)


def _repro_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def _binding_sites(target: Target) -> list[tuple[object, str, object]]:
    """``(holder, attribute, original)`` triples a target resolves to."""
    owner = target.owner
    if isinstance(owner, type):
        for cls in owner.__mro__:
            if target.attr in vars(cls):
                return [(cls, target.attr, vars(cls)[target.attr])]
        raise AttributeError(f"{owner.__name__} has no attribute {target.attr!r}")
    sites = [
        (module, attr, owner)
        for module in _repro_modules()
        if module.__name__ not in target.skip_modules
        for attr, obj in list(vars(module).items())
        if obj is owner
    ]
    if not sites:
        raise LookupError(f"no repro module binds {owner!r}")
    return sites


# --------------------------------------------------------------------- #
# span arithmetic                                                       #
# --------------------------------------------------------------------- #


def self_times(parents, starts, ends) -> np.ndarray:
    """Per-span self time in ns: duration minus direct children's durations."""
    parents = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    child = parents >= 0
    covered = np.bincount(
        parents[child], weights=durations[child], minlength=len(durations)
    ).astype(np.int64)
    return durations - covered


def op_ids(sids, parents, root_sid: int) -> np.ndarray:
    """Number of the op each span ran in (``-1``: outside every op).

    Spans are stored in the order they opened and top-level spans are
    never nested, so a span belongs to the latest parentless span
    opened at or before it.  That span is an op when its name is the
    root's; ops are numbered in the order they ran.
    """
    sids = np.asarray(sids)
    tops = np.nonzero(np.asarray(parents) < 0)[0]
    if not len(tops):
        return np.full(len(sids), -1)
    is_op = sids[tops] == root_sid
    number = np.where(is_op, np.cumsum(is_op) - 1, -1)
    enclosing = np.searchsorted(tops, np.arange(len(sids)), side="right") - 1
    return np.where(enclosing >= 0, number[np.maximum(enclosing, 0)], -1)


@dataclass
class Ledger:
    """Per-name totals over a set of spans."""

    names: list[str]
    layers: list[str]
    calls: np.ndarray
    self_ns: np.ndarray
    total_ns: np.ndarray

    def _i(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def count(self, name: str) -> int:
        i = self._i(name)
        return int(self.calls[i]) if i is not None else 0

    def self_ms(self, name: str) -> float:
        i = self._i(name)
        return float(self.self_ns[i]) / 1e6 if i is not None else 0.0

    def total_ms(self, name: str) -> float:
        i = self._i(name)
        return float(self.total_ns[i]) / 1e6 if i is not None else 0.0

    def by_layer(self) -> dict[str, float]:
        """Self time in ms summed per layer."""
        out: dict[str, float] = {}
        for layer, ns in zip(self.layers, self.self_ns):
            out[layer] = out.get(layer, 0.0) + float(ns) / 1e6
        return out


def build_ledger(tracer: Tracer, keep: np.ndarray | None = None) -> Ledger:
    """Aggregate a tracer's spans (optionally only those in ``keep``)."""
    sids, parents, starts, ends = tracer.columns()
    selfs = self_times(parents, starts, ends)
    durations = ends - starts
    if keep is not None:
        sids, selfs, durations = sids[keep], selfs[keep], durations[keep]
    n = len(tracer.names)
    return Ledger(
        names=list(tracer.names),
        layers=list(tracer.layers),
        calls=np.bincount(sids, minlength=n),
        self_ns=np.bincount(sids, weights=selfs, minlength=n).astype(np.int64),
        total_ns=np.bincount(sids, weights=durations, minlength=n).astype(np.int64),
    )
