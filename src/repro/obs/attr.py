"""Per-repair bottleneck attribution: *why* did a repair miss ``t_max``?

PR 3's tracer records what happened — spans for every repair, attempt,
pipeline and slice transfer, keyed to simulated time.  This module
replays that record against the planner's model and decomposes the
``achieved / t_max`` throughput gap into four buckets:

``fault_recovery``
    Time burned before the *final* attempt began: failed attempts,
    watchdog timeouts, retry backoff — everything the self-healing
    ladder spent reacting to faults.
``plan_suboptimality``
    The final plan itself promised less than the reference optimum
    (e.g. a degradation-ladder rung replanned around dead helpers at a
    lower ``t_max``).  Charged as the extra transfer time of the
    remaining bytes at the final plan's rate versus the reference rate.
``straggler``
    The final attempt's critical pipeline finished later than the
    execution model predicts for its byte count and planned rate —
    slow senders, throttled links.  Localised to nodes by walking the
    critical path of slice transfers inside the late pipeline.
``queueing``
    The residual: serialisation and scheduling slack that is not
    explained by the three structural buckets (slice dispatch queues,
    hub fan-in waits, event-loop ordering).

**Invariant (by construction):** the four buckets are carved out of the
measured gap ``G = elapsed - ideal_s`` in priority order, each clamped
to what remains, and the residual lands in ``queueing`` — so they sum
to ``G`` *exactly*, and the Mbps shares returned by
:meth:`RepairAttribution.bucket_shares_mbps` sum to
``t_ref - achieved`` exactly.  The split between buckets is a modelled
estimate; the total is a measurement.

The replay needs nothing beyond the trace itself: plan rates ride on
the spans (``t_max_mbps`` on attempts, ``rate_mbps`` on pipelines —
recorded by :class:`~repro.cluster.system.ClusterSystem`), and the
execution-model constants are the ones the simulator charges
(:mod:`repro.sim.transfer`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net import units
from ..sim.transfer import DISPATCH_LATENCY_S, SLICE_OVERHEAD_S
from .trace import Span, Tracer

#: Attribution buckets, in carving priority order.
BUCKETS = ("fault_recovery", "plan_suboptimality", "straggler", "queueing")

#: The four bandwidth constraints of the planner's model (paper §III).
CONSTRAINTS = ("uplink", "downlink", "storage", "repairing")


@dataclass(frozen=True)
class GapBuckets:
    """The gap decomposition, in seconds.  Sums to the measured gap."""

    fault_recovery_s: float
    plan_suboptimality_s: float
    straggler_s: float
    queueing_s: float

    @property
    def total_s(self) -> float:
        return (
            self.fault_recovery_s
            + self.plan_suboptimality_s
            + self.straggler_s
            + self.queueing_s
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "fault_recovery": self.fault_recovery_s,
            "plan_suboptimality": self.plan_suboptimality_s,
            "straggler": self.straggler_s,
            "queueing": self.queueing_s,
        }


@dataclass(frozen=True)
class NodeIdle:
    """Measured busy/idle time of one node-constraint over the repair window."""

    node: int
    constraint: str  # "uplink" | "downlink"
    role: str  # "requester" | "relay" | "helper"
    busy_s: float
    window_s: float

    @property
    def idle_s(self) -> float:
        return max(self.window_s - self.busy_s, 0.0)

    @property
    def busy_fraction(self) -> float:
        return min(self.busy_s / self.window_s, 1.0) if self.window_s > 0 else 0.0


@dataclass(frozen=True)
class CriticalHop:
    """One hop on a pipeline's critical path (the last-arriving slice)."""

    src: int
    dst: int
    lo: int
    hi: int
    start: float
    end: float
    wait_s: float  # time the hop sat behind its latest input
    excess_s: float  # duration beyond the modelled slice time


@dataclass(frozen=True)
class PipelineDiagnosis:
    """Replay verdict for one pipeline of the final attempt."""

    pipeline: int
    bytes: int
    rate_mbps: float
    depth: int
    slices: int
    expected_s: float
    actual_s: float
    critical_path: tuple[CriticalHop, ...]

    @property
    def lateness_s(self) -> float:
        return max(self.actual_s - self.expected_s, 0.0)


@dataclass(frozen=True)
class RepairAttribution:
    """The full attribution for one repair span."""

    repair: str
    algorithm: str
    status: str
    chunk_bytes: int
    attempts: int
    t_ref_mbps: float
    achieved_mbps: float
    ideal_s: float
    elapsed_s: float
    buckets: GapBuckets
    node_idle: tuple[NodeIdle, ...]
    pipelines: tuple[PipelineDiagnosis, ...]
    #: per-node straggler share of ``buckets.straggler_s`` (seconds)
    straggler_nodes: dict[int, float]
    #: nodes that died / were replanned around (fault_recovery culprits)
    fault_nodes: tuple[int, ...]

    @property
    def gap_s(self) -> float:
        return self.buckets.total_s

    @property
    def gap_mbps(self) -> float:
        return max(self.t_ref_mbps - self.achieved_mbps, 0.0)

    def bucket_shares_mbps(self) -> dict[str, float]:
        """Mbps lost per bucket; sums to ``gap_mbps`` exactly.

        Seconds convert to Mbps by scaling each bucket's share of the
        time gap onto the throughput gap, so rounding cannot break the
        sum invariant.
        """
        gap_s = self.gap_s
        if gap_s <= 0 or self.gap_mbps <= 0:
            return {name: 0.0 for name in BUCKETS}
        d = self.buckets.as_dict()
        shares = {
            name: self.gap_mbps * (d[name] / gap_s) for name in BUCKETS[:-1]
        }
        shares["queueing"] = self.gap_mbps - sum(shares.values())
        return shares

    def node_shares_s(self) -> list[tuple[str, str, str, float]]:
        """Per-bucket ``(bucket, node-label, constraint, seconds)`` rows.

        Each bucket's seconds are spread over the nodes the replay holds
        responsible (fault nodes, critical-path stragglers); buckets with
        no localised culprit charge a single synthetic label, so the rows
        always sum to ``gap_s`` exactly.
        """
        rows: list[tuple[str, str, str, float]] = []
        b = self.buckets
        if b.fault_recovery_s > 0:
            if self.fault_nodes:
                per = b.fault_recovery_s / len(self.fault_nodes)
                for n in self.fault_nodes:
                    rows.append(("fault_recovery", f"node {n}", "storage", per))
            else:
                rows.append(("fault_recovery", "cluster", "storage", b.fault_recovery_s))
        if b.plan_suboptimality_s > 0:
            rows.append(("plan_suboptimality", "planner", "repairing", b.plan_suboptimality_s))
        if b.straggler_s > 0:
            total = sum(self.straggler_nodes.values())
            if total > 0:
                # proportional shares; the heaviest node takes the exact
                # remainder so the rows sum to straggler_s despite fp,
                # and zero-weight underflow rows are dropped
                items = sorted(
                    self.straggler_nodes.items(), key=lambda kv: kv[1]
                )
                acc = 0.0
                shares: list[tuple[int, float]] = []
                for n, w in items[:-1]:
                    s = b.straggler_s * (w / total)
                    shares.append((n, s))
                    acc += s
                shares.append((items[-1][0], b.straggler_s - acc))
                for n, s in sorted(shares):
                    if s > 0:
                        rows.append(("straggler", f"node {n}", "uplink", s))
            else:
                rows.append(("straggler", "cluster", "uplink", b.straggler_s))
        if b.queueing_s > 0:
            rows.append(("queueing", "cluster", "downlink", b.queueing_s))
        return rows


# ------------------------------------------------------------------ #
# replay internals                                                   #
# ------------------------------------------------------------------ #


def _span_end(span: Span, default: float) -> float:
    return span.end if span.end is not None else default


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    total += cur_hi - cur_lo
    return total


def _transfers(span: Span) -> list[Span]:
    """All transfer spans beneath ``span`` (depth-first)."""
    out: list[Span] = []
    stack = list(span.children)
    while stack:
        s = stack.pop()
        if s.kind == "transfer":
            out.append(s)
        stack.extend(s.children)
    return out


def _hop_depth(hops: list[Span]) -> int:
    """Longest src->dst chain over one pipeline's (deduplicated) hops."""
    edges = {(h.attrs["src"], h.attrs["dst"]) for h in hops}
    children = {}
    for src, dst in edges:
        children.setdefault(src, set()).add(dst)
    best = 0
    for start in children:
        depth, frontier, seen = 0, {start}, {start}
        while depth <= len(edges):
            nxt = {
                m
                for n in frontier
                for m in children.get(n, ())
                if m not in seen
            }
            if not nxt:
                break
            depth += 1
            seen |= nxt
            frontier = nxt
        best = max(best, depth)
    return best


def _critical_path(
    hops: list[Span], requester: int, rate_mbps: float
) -> tuple[CriticalHop, ...]:
    """Walk back from the last slice delivered to the requester.

    At each step, the predecessor is the latest-finishing hop (any
    slice) that fed the current hop's source — the input the relay
    actually waited on.
    """
    terminal = None
    for h in hops:
        if h.attrs["dst"] == requester:
            if terminal is None or _span_end(h, h.start) > _span_end(
                terminal, terminal.start
            ):
                terminal = h
    if terminal is None:
        return ()
    path: list[CriticalHop] = []
    cur = terminal
    for _ in range(len(hops)):
        feeders = [
            h
            for h in hops
            if h.attrs["dst"] == cur.attrs["src"]
            and _span_end(h, h.start) <= cur.start + 1e-12
        ]
        pred = max(feeders, key=lambda h: _span_end(h, h.start), default=None)
        wait = 0.0 if pred is None else max(cur.start - _span_end(pred, pred.start), 0.0)
        nbytes = cur.attrs["hi"] - cur.attrs["lo"]
        modelled = (
            units.transfer_seconds(nbytes, rate_mbps) if rate_mbps > 0 else 0.0
        ) + SLICE_OVERHEAD_S
        path.append(
            CriticalHop(
                src=cur.attrs["src"],
                dst=cur.attrs["dst"],
                lo=cur.attrs["lo"],
                hi=cur.attrs["hi"],
                start=cur.start,
                end=_span_end(cur, cur.start),
                wait_s=wait,
                excess_s=max(
                    (_span_end(cur, cur.start) - cur.start) - modelled, 0.0
                ),
            )
        )
        if pred is None:
            break
        cur = pred
    path.reverse()
    return tuple(path)


def _diagnose_pipeline(
    pspan: Span, requester: int, end_default: float
) -> PipelineDiagnosis:
    transfers = _transfers(pspan)
    # each physical hop is recorded twice (uplink + downlink lanes)
    hops = [t for t in transfers if t.attrs.get("direction") == "uplink"]
    rate = float(pspan.attrs.get("rate_mbps", 0.0))
    nbytes = int(pspan.attrs.get("bytes", 0))
    slices = len(
        {(h.attrs["lo"], h.attrs["hi"]) for h in hops if h.attrs["dst"] == requester}
    )
    depth = _hop_depth(hops)
    slice_sizes = [h.attrs["hi"] - h.attrs["lo"] for h in hops]
    max_slice = max(slice_sizes, default=0)
    per_slice = (
        units.transfer_seconds(max_slice, rate) if rate > 0 and max_slice else 0.0
    )
    expected = DISPATCH_LATENCY_S
    if rate > 0 and nbytes > 0:
        # bottleneck-hop streaming time + per-slice sender overhead,
        # plus the pipeline-fill of the extra hops for the first slice
        expected += (
            units.transfer_seconds(nbytes, rate)
            + slices * SLICE_OVERHEAD_S
            + max(depth - 1, 0) * (per_slice + SLICE_OVERHEAD_S)
        )
    actual = _span_end(pspan, end_default) - pspan.start
    return PipelineDiagnosis(
        pipeline=int(pspan.attrs.get("pipeline", 0)),
        bytes=nbytes,
        rate_mbps=rate,
        depth=depth,
        slices=slices,
        expected_s=expected,
        actual_s=max(actual, 0.0),
        critical_path=_critical_path(hops, requester, rate),
    )


def _node_idle(
    repair: Span, window_lo: float, window_hi: float
) -> tuple[NodeIdle, ...]:
    """Measured busy time per (node, direction) over the repair window."""
    requester = repair.attrs.get("requester")
    busy: dict[tuple[int, str], list[tuple[float, float]]] = {}
    senders: set[int] = set()
    receivers: set[int] = set()
    for t in _transfers(repair):
        direction = t.attrs.get("direction")
        if direction not in ("uplink", "downlink"):
            continue
        node = t.attrs["node"]
        lo = max(t.start, window_lo)
        hi = min(_span_end(t, window_hi), window_hi)
        if hi > lo:
            busy.setdefault((node, direction), []).append((lo, hi))
        if direction == "uplink":
            senders.add(t.attrs["src"])
            receivers.add(t.attrs["dst"])
    window = max(window_hi - window_lo, 0.0)
    out = []
    for (node, direction), intervals in sorted(busy.items()):
        if node == requester:
            role = "requester"
        elif node in senders and node in receivers:
            role = "relay"
        else:
            role = "helper"
        out.append(
            NodeIdle(
                node=node,
                constraint=direction,
                role=role,
                busy_s=_union_seconds(intervals),
                window_s=window,
            )
        )
    return tuple(out)


def _fault_nodes(repair: Span) -> tuple[int, ...]:
    """Nodes implicated in fault recovery: crashes and replan casualties."""
    nodes: set[int] = set()
    stack = [repair]
    while stack:
        s = stack.pop()
        for ev in s.events:
            if ev.name in ("node.crash", "fault.injected"):
                n = ev.attrs.get("node")
                if n is not None:
                    nodes.add(int(n))
            elif ev.name == "replan":
                nodes.update(int(n) for n in ev.attrs.get("newly_dead", ()))
        stack.extend(s.children)
    return tuple(sorted(nodes))


def attribute_repair_span(repair: Span) -> RepairAttribution:
    """Attribute one repair span's throughput gap to the four buckets."""
    chunk_bytes = int(repair.attrs.get("chunk_bytes", 0))
    requester = repair.attrs.get("requester")
    end = _span_end(repair, repair.start)
    elapsed = max(end - repair.start, 0.0)

    attempts = sorted(
        (c for c in repair.children if c.kind == "attempt"),
        key=lambda s: s.start,
    )
    final = attempts[-1] if attempts else repair

    # reference rate: the FIRST plan's water-filling optimum (the
    # planner's promise before any fault degraded it)
    first = attempts[0] if attempts else repair
    t_ref_mbps = float(
        first.attrs.get("t_max_mbps") or repair.attrs.get("t_max_mbps") or 0.0
    )
    ideal_s = (
        units.transfer_seconds(chunk_bytes, t_ref_mbps)
        if t_ref_mbps > 0 and chunk_bytes
        else 0.0
    )
    achieved = (
        units.bytes_per_s_to_mbps(chunk_bytes / elapsed) if elapsed > 0 else 0.0
    )

    gap = max(elapsed - ideal_s, 0.0)
    remaining = gap

    # 1. fault recovery: everything before the final attempt started
    raw_fault = max(final.start - repair.start, 0.0) if attempts else 0.0
    b_fault = min(raw_fault, remaining)
    remaining -= b_fault

    # 2. plan suboptimality: the final plan's promised rate vs reference
    final_bytes = int(final.attrs.get("remaining_bytes", chunk_bytes) or 0)
    t_final = float(
        final.attrs.get("t_max_mbps") or repair.attrs.get("t_max_mbps") or 0.0
    )
    raw_plan = 0.0
    if final_bytes > 0 and 0 < t_final < t_ref_mbps:
        raw_plan = units.transfer_seconds(
            final_bytes, t_final
        ) - units.transfer_seconds(final_bytes, t_ref_mbps)
    b_plan = min(max(raw_plan, 0.0), remaining)
    remaining -= b_plan

    # 3. stragglers: the critical pipeline of the final attempt ran
    #    longer than its modelled duration
    pspans = [c for c in final.children if c.kind == "pipeline"]
    diagnoses = tuple(
        _diagnose_pipeline(p, requester, end) for p in pspans
    )
    raw_straggler = max((d.lateness_s for d in diagnoses), default=0.0)
    b_straggler = min(raw_straggler, remaining)
    remaining -= b_straggler

    # 4. residual: queueing / serialisation slack
    b_queue = remaining

    # localise stragglers via critical-path excess on late pipelines
    straggler_nodes: dict[int, float] = {}
    for d in diagnoses:
        if d.lateness_s <= 0:
            continue
        for hop in d.critical_path:
            if hop.excess_s > 0:
                straggler_nodes[hop.src] = (
                    straggler_nodes.get(hop.src, 0.0) + hop.excess_s
                )

    return RepairAttribution(
        repair=repair.name,
        algorithm=str(repair.attrs.get("algorithm", "?")),
        status=str(repair.attrs.get("status", "?")),
        chunk_bytes=chunk_bytes,
        attempts=len(attempts) or 1,
        t_ref_mbps=t_ref_mbps,
        achieved_mbps=achieved,
        ideal_s=ideal_s,
        elapsed_s=elapsed,
        buckets=GapBuckets(
            fault_recovery_s=b_fault,
            plan_suboptimality_s=b_plan,
            straggler_s=b_straggler,
            queueing_s=b_queue,
        ),
        node_idle=_node_idle(repair, final.start, end),
        pipelines=diagnoses,
        straggler_nodes=straggler_nodes,
        fault_nodes=_fault_nodes(repair),
    )


def attribute_repairs(tracer: Tracer) -> list[RepairAttribution]:
    """Attribute every repair span recorded by ``tracer``."""
    return [attribute_repair_span(span) for span in tracer.find(kind="repair")]


def attribute_repair(tracer: Tracer) -> RepairAttribution:
    """Attribute the first (usually only) repair in a trace."""
    repairs = tracer.find(kind="repair")
    if not repairs:
        raise ValueError("trace contains no repair spans")
    return attribute_repair_span(repairs[0])
