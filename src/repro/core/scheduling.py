"""Algorithm 2 — Pipelined Repair Task Scheduling.

Turns Algorithm 1's throughput budget ``t_max`` into an executable
multi-pipeline schedule in three steps:

1. **Own-task assignment** (paper Lines 2-11): helpers, visited in
   descending adjusted-downlink order, become pipeline *hubs* with rate
   ``s_j = min(remaining, D_j / (k-1))``; leftover throughput becomes the
   requester's own task (a direct star pipeline with k senders).

2. **Sending-task assignment** (Lines 12-21 + TASKASSIGN): helpers,
   visited in descending residual-uplink order, greedily pack their spare
   uplink into the tasks' sender demand — each task ``j`` needs
   ``(k-1) * s_j`` (``k * s_j`` for the requester's task) with at most
   ``s_j`` per helper (a sender covers each chunk position of a task at
   most once) and none from the hub itself.  Task priority follows the
   paper: most remaining unfilled slots first, already-touched tasks
   (``T_assigned``) preferred on ties; this walk reproduces Fig. 3 /
   Table III exactly on the worked example.  The fast path selects the
   target task with a single O(|tasks|) scan per assignment instead of
   re-sorting both task lists every iteration (the seed's sort-based
   walk is preserved in ``tests/core/reference_planner.py`` and the
   test-suite pins the two selections to identical plans).  The paper's
   *task exchange* step is generalised into a max-flow re-solve — an
   in-repo Dinic's solver (:mod:`repro.core.maxflow`), so the planning
   hot path carries no graph-library dependency — that provably
   completes the fill whenever ``t_max`` is schedulable at all.

3. **Segment layout**: each task's per-sender amounts are laid out over
   the task's chunk range by McNaughton's wrap-around rule (senders kept
   in first-contribution order, each sender's total <= ``s_j``, so no
   sender ever covers the same chunk position twice), then cut at row
   boundaries into elementary pipelines whose per-byte participants are
   k *distinct* helpers — the invariant
   :class:`repro.repair.plan.Pipeline` validates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..ec.slicing import Segment
from ..net.bandwidth import RepairContext
from ..repair.plan import Edge, Pipeline
from .maxflow import Dinic
from .throughput import ThroughputResult

#: Absolute bandwidth bookkeeping tolerance, in Mbps.
AMOUNT_TOL = 1e-7


@dataclass
class Task:
    """One pipeline task: a hub repairing a ``speed``-Mbps chunk share.

    ``slots`` is the sender-slot count: k-1 when the hub is a helper (it
    supplies its own chunk), k when the hub is the requester.  Sender
    contributions are tracked as per-node *amounts* (insertion-ordered);
    the slot-row structure is materialised later by the wrap-around
    layout.
    """

    task_id: int
    hub: int
    speed: float
    slots: int
    #: per-sender Mbps contributions, in first-contribution order
    amounts: dict[int, float] = field(default_factory=dict)
    #: True when the hub is a helper that must upload its combined result
    has_own: bool = True
    own_assigned: bool = False
    touched: bool = False  # member of T_assigned?
    #: running sum of ``amounts`` (kept by :meth:`add`; the greedy queries
    #: ``remain`` inside sort keys, so this must be O(1))
    _filled: float = 0.0

    @property
    def demand(self) -> float:
        """Total sender bandwidth this task needs."""
        return self.slots * self.speed

    @property
    def filled(self) -> float:
        return self._filled

    def set_amounts(self, amounts: dict[int, float]) -> None:
        """Replace the contribution map wholesale (flow completion)."""
        self.amounts = amounts
        self._filled = sum(amounts.values())

    @property
    def remain(self) -> int:
        """The paper's ``task.remain``: unassigned parts.

        Counts sender slots not yet fully covered plus the hub's own part
        while unclaimed; partially-covered slots still count as remaining.
        """
        complete = min(self.slots, math.floor((self.filled + AMOUNT_TOL) / self.speed))
        own_pending = 1 if self.has_own and not self.own_assigned else 0
        return (self.slots - complete) + own_pending

    def room(self, node: int) -> float:
        """How much more ``node`` may contribute to this task."""
        if node == self.hub:
            return 0.0
        per_node = self.speed - self.amounts.get(node, 0.0)
        return max(0.0, min(per_node, self.demand - self.filled))

    def add(self, node: int, amount: float) -> float:
        """Contribute up to ``amount`` from ``node``; returns the take."""
        take = min(amount, self.room(node))
        if take <= AMOUNT_TOL:
            return 0.0
        self.amounts[node] = self.amounts.get(node, 0.0) + take
        self._filled += take
        self.touched = True
        return take


@dataclass
class ScheduleResult:
    """Algorithm 2 output: tasks plus the emitted elementary pipelines."""

    tasks: list[Task]
    pipelines: list[Pipeline]
    requester_task: Task | None
    flow_completion_used: bool
    t_max: float


def schedule_tasks(
    context: RepairContext,
    throughput: ThroughputResult,
    *,
    use_requester_task: bool = True,
) -> ScheduleResult:
    """Run Algorithm 2 for a context given Algorithm 1's result.

    ``use_requester_task=False`` drops the leftover-throughput requester
    pipeline (paper Lines 9-11) — an ablation knob; the realised
    aggregate rate then falls short of ``t_max`` by the leftover.
    """
    k = context.k
    t_max = throughput.t_max
    up = dict(throughput.uplink)
    down = dict(throughput.downlink)

    # ---- own-task assignment (Lines 2-11) ----------------------------
    order = sorted(context.helpers, key=lambda h: (-down[h], h))
    remain_throughput = t_max
    own_speed: dict[int, float] = {}
    for h in order:
        if remain_throughput <= AMOUNT_TOL:
            break
        s = min(remain_throughput, down[h] / (k - 1)) if k > 1 else min(
            remain_throughput, up[h]
        )
        if s <= AMOUNT_TOL:
            continue
        own_speed[h] = s
        remain_throughput -= s
    requester_speed = remain_throughput if remain_throughput > AMOUNT_TOL else 0.0
    if not use_requester_task:
        t_max -= requester_speed
        requester_speed = 0.0
        if t_max <= AMOUNT_TOL:
            raise ValueError(
                "no helper-hub throughput available without the requester task"
            )

    # ---- task numbering (Lines 12-13) --------------------------------
    tasks: list[Task] = []
    hubs = sorted(own_speed, key=lambda h: (-(up[h] - own_speed[h]), h))
    for i, h in enumerate(hubs, start=1):
        tasks.append(Task(task_id=i, hub=h, speed=own_speed[h], slots=k - 1))
    requester_task: Task | None = None
    if requester_speed > 0:
        requester_task = Task(
            task_id=len(tasks) + 1,
            hub=context.requester,
            speed=requester_speed,
            slots=k,
            has_own=False,
        )
        tasks.append(requester_task)

    # ---- sending-task assignment (Lines 14-21 + TASKASSIGN) ----------
    capacity = {h: up[h] for h in context.helpers}
    node_order = sorted(
        context.helpers, key=lambda h: (-(capacity[h] - own_speed.get(h, 0.0)), h)
    )
    _assign_senders(node_order, tasks, capacity)

    # ---- flow completion (generalised task exchange) ------------------
    flow_used = False
    for t in tasks:
        demand = t.slots * t.speed
        if demand - t._filled > AMOUNT_TOL * (demand if demand > 1.0 else 1.0):
            flow_used = True
            _flow_completion(tasks, capacity, context, up, own_speed)
            break

    shortfall = [
        t for t in tasks if t.demand - t.filled > 1e-4 * max(1.0, t.demand)
    ]
    if shortfall:
        raise RuntimeError(
            "scheduling could not realise t_max="
            f"{t_max:.6f} Mbps: unfilled tasks "
            f"{[(t.task_id, t.demand - t.filled) for t in shortfall]}"
        )

    pipelines = _layout_pipelines(tasks, context, t_max)
    return ScheduleResult(
        tasks=tasks,
        pipelines=pipelines,
        requester_task=requester_task,
        flow_completion_used=flow_used,
        t_max=t_max,
    )


def _assign_senders(
    node_order: list[int], tasks: list[Task], capacity: dict[int, float]
) -> None:
    """The paper's TASKASSIGN over all nodes (flat-array fast path).

    For each node: first charge the node's own task (its hub -> requester
    result upload), then greedily pack the node's residual uplink into
    sender demand, always preferring the task with the most remaining
    unfilled parts (``T_assigned`` wins ties, per Function TASKASSIGN
    Lines 8-12).

    Each node's picks are computed with **one sort + one walk**: after a
    pick, either the node's capacity is exhausted (the loop ends) or the
    picked task's per-node room is exactly zero (``take == room``), so a
    task is picked at most once per node — and since a pick only changes
    the *picked* task's ``(remain, touched)`` key, the priority order of
    the remaining candidates never changes mid-node.  Sorting the
    candidates once by the seed's composite key and walking down the
    list therefore reproduces the seed's pick-by-pick re-sorted walk
    exactly (pinned by the equivalence tests against
    ``tests/core/reference_planner.py``).  The whole phase runs on parallel
    local lists — attribute/property dispatch on :class:`Task` dominated
    the planner profile — and results are written back into the ``Task``
    objects at the end, amounts in first-contribution order.
    """
    num = len(tasks)
    speed = [t.speed for t in tasks]
    slots = [t.slots for t in tasks]
    hub = [t.hub for t in tasks]
    has_own = [t.has_own for t in tasks]
    tid = [t.task_id for t in tasks]
    amounts: list[dict[int, float]] = [{} for _ in range(num)]
    filled = [0.0] * num
    residual = [t.slots * t.speed for t in tasks]  # demand - filled
    touched = [False] * num
    own_done = [False] * num
    # remain = unfilled slots + (1 while the hub's own part is unclaimed)
    remain = [slots[j] + (1 if has_own[j] else 0) for j in range(num)]
    own_of = {hub[j]: j for j in range(num)}

    for u in node_order:
        cap = capacity[u]
        oj = own_of.get(u)
        if oj is not None and speed[oj] > AMOUNT_TOL:
            own_done[oj] = True
            touched[oj] = True
            remain[oj] -= 1
            cap = cap - speed[oj]
            if cap < 0.0:
                cap = 0.0
        if cap > AMOUNT_TOL:
            # seed priority: most remain first; T_assigned beats
            # T_unassigned on ties; lowest id within T_assigned, highest
            # within T_unassigned.  The trailing j makes lookups free
            # (never compared: the id component is already unique).
            cands = sorted(
                [
                    (-remain[j], 0, tid[j], j)
                    if touched[j]
                    else (-remain[j], 1, -tid[j], j)
                    for j in range(num)
                    if residual[j] > AMOUNT_TOL and hub[j] != u
                ]
            )
            for key in cands:
                j = key[3]
                res = residual[j]
                room = speed[j] if speed[j] < res else res
                take = room if room < cap else cap
                amounts[j][u] = take
                filled[j] += take
                residual[j] = res - take
                touched[j] = True
                complete = int((filled[j] + AMOUNT_TOL) / speed[j])
                if complete > slots[j]:
                    complete = slots[j]
                remain[j] = (
                    slots[j]
                    - complete
                    + (1 if has_own[j] and not own_done[j] else 0)
                )
                cap -= take
                if cap <= AMOUNT_TOL:
                    break
        capacity[u] = cap

    for j, t in enumerate(tasks):
        t.amounts = amounts[j]
        t._filled = filled[j]
        t.touched = touched[j]
        t.own_assigned = own_done[j]


def _flow_completion(
    tasks: list[Task],
    capacity: dict[int, float],
    context: RepairContext,
    uplink: dict[int, float],
    own_speed: dict[int, float],
) -> None:
    """Re-solve the whole sender assignment as a transportation problem.

    The paper's greedy plus pairwise *task exchange* can strand capacity
    in corner cases (e.g. a hub whose residual uplink can only serve its
    own task once every other task is filled).  The clean generalisation
    is a from-scratch max-flow: source -> helper (uplink minus the hub's
    own result upload), helper -> task (at most ``speed`` per pair, hub
    excluded), task -> sink (full sender demand).  Whenever any feasible
    assignment at ``t_max`` exists, the flow saturates; amounts are
    integral in 1e-6 Mbps units so no sender ever exceeds a slot width.

    Solved with the in-repo Dinic's implementation
    (:class:`repro.core.maxflow.Dinic`) — max-flow *solutions* are not
    unique, so the exact sender split may differ from the seed's
    networkx preflow-push result, but the flow value (and hence task
    fill, rates, and feasibility) is identical; the test-suite pins the
    value against the networkx oracle.
    """
    scale = 1e6
    helpers = list(context.helpers)
    live = [t for t in tasks if t.demand > AMOUNT_TOL]
    helper_node = {u: 2 + i for i, u in enumerate(helpers)}
    source, sink = 0, 1
    g = Dinic(2 + len(helpers) + len(live))
    edge_of: dict[tuple[int, int], int] = {}  # (task_id, helper) -> edge id
    total_demand = 0
    for j, t in enumerate(live):
        tnode = 2 + len(helpers) + j
        demand_units = int(t.demand * scale)  # floored: never unsatisfiable
        total_demand += demand_units
        g.add_edge(tnode, sink, demand_units)
        for u in helpers:
            if u == t.hub:
                continue
            edge_of[(t.task_id, u)] = g.add_edge(
                helper_node[u], tnode, int(t.speed * scale)
            )
    if total_demand == 0:
        return
    any_supply = False
    for u in helpers:
        cap = uplink[u] - own_speed.get(u, 0.0)
        if cap > AMOUNT_TOL:
            g.add_edge(source, helper_node[u], int(cap * scale))
            any_supply = True
    if not any_supply:
        return
    g.max_flow(source, sink)
    for t in tasks:
        amounts: dict[int, float] = {}
        for u in helpers:
            eid = edge_of.get((t.task_id, u))
            amt = g.flow_on(eid) / scale if eid is not None else 0.0
            if amt > AMOUNT_TOL:
                amounts[u] = min(amt, t.speed)
        # the integral flow undershoots the real demand by up to one unit
        # per edge; rescale multiplicatively so rows tile exactly (the
        # relative stretch is <= 1e-6/speed, far inside rate tolerances)
        filled = sum(amounts.values())
        if filled > 0 and t.demand - filled > 0:
            factor = t.demand / filled
            amounts = {u: min(a * factor, t.speed) for u, a in amounts.items()}
        t.set_amounts(amounts)
    used_by: dict[int, float] = {u: 0.0 for u in helpers}
    for (_tid, u), eid in edge_of.items():
        used_by[u] += g.flow_on(eid)
    for u in helpers:
        capacity[u] = uplink[u] - own_speed.get(u, 0.0) - used_by[u] / scale


#: Tick resolution of the integer layout grid (per task row).
LAYOUT_GRID = 1 << 30


def _quantize_amounts(task: Task) -> list[tuple[int, int]]:
    """Sender amounts as integer ticks summing exactly to ``slots * GRID``.

    Quantisation makes the wrap-around layout exact: every row is exactly
    ``LAYOUT_GRID`` ticks wide, every sender holds at most one row's worth
    (so its wrapped pieces can never share a column), and cut positions
    are integers.  Rounding drift and the max-flow's 1e-6-unit flooring
    are absorbed by distributing the residual ticks over senders with
    headroom (largest first), which perturbs rates by at most
    ``speed / LAYOUT_GRID`` — about 1e-7 Mbps per task.
    """
    target = task.slots * LAYOUT_GRID
    speed = task.speed
    ticks: list[tuple[int, int]] = []
    total = 0
    for u, a in task.amounts.items():
        t = round(a / speed * LAYOUT_GRID)
        if t < 0:
            t = 0
        elif t > LAYOUT_GRID:
            t = LAYOUT_GRID
        ticks.append((u, t))
        total += t
    diff = target - total
    if diff:
        # most headroom first (ascending ticks when giving, descending
        # when taking back); the sort is stable, so ties keep
        # first-contribution order exactly like the seed's key sort
        held = dict(ticks)
        for u in sorted(held, key=held.__getitem__, reverse=diff < 0):
            if diff > 0:
                step = min(diff, LAYOUT_GRID - held[u])
            else:
                step = -min(-diff, held[u])
            held[u] += step
            diff -= step
            if diff == 0:
                break
        else:
            raise RuntimeError(
                f"task {task.task_id}: cannot tile {task.slots} slots from "
                f"amounts {task.amounts} (residual {diff} ticks)"
            )
        ticks = list(held.items())
    return [(u, t) for u, t in ticks if t > 0]


def _wraparound_columns(task: Task) -> tuple[list[int], list[list[int]]]:
    """McNaughton wrap-around layout, as ``(cut_list, sender_columns)``.

    Senders are laid end-to-end (first-contribution order) over
    ``task.slots`` rows of exactly ``LAYOUT_GRID`` ticks; a sender split
    by a row boundary occupies the end of one row and the start of the
    next, and since its total is at most one row it never covers the
    same column twice.  A sender starting at global tick ``B`` takes over
    row ``B // LAYOUT_GRID`` from cut ``B mod LAYOUT_GRID`` on, so the
    cuts are the senders' start offsets, and adjacent cut columns differ
    only in the rows whose boundary defines the cut: column 0 is each
    row's first occupant, and every later column is its left neighbour
    with those rows handed to their next sender — O(senders + cuts)
    steps (plus one list copy per cut), no rows x cuts walk.

    Returns the sorted cut positions (ending at ``LAYOUT_GRID``) and,
    per cut segment, the senders occupying it in ascending-row order —
    exactly the seed layout's per-cut ``_occupant_at`` columns.
    """
    first: list[int] = [0] * task.slots  # column 0: who opens each row
    takeovers: dict[int, list[tuple[int, int]]] = {}  # cut -> (row, sender)
    start = 0
    for u, t in _quantize_amounts(task):
        row, cut = divmod(start, LAYOUT_GRID)
        if cut == 0:
            first[row] = u
        else:
            takeovers.setdefault(cut, []).append((row, u))
            if cut + t > LAYOUT_GRID:  # wraps into the next row
                first[row + 1] = u
        start += t
    # common case: no takeovers — every sender starts on a row edge and
    # holds one full row, so the single column is the sender list
    cuts = sorted(takeovers)
    cols = [first]
    for cut in cuts:
        column = cols[-1].copy()
        for row, u in takeovers[cut]:
            column[row] = u
        cols.append(column)
    return [0, *cuts, LAYOUT_GRID], cols


def _layout_pipelines(
    tasks: list[Task], context: RepairContext, t_max: float
) -> list[Pipeline]:
    """Cut slot rows into elementary pipelines with distinct participants.

    Tasks are placed on the normalised chunk axis in task-id order; within
    a task, every row spans the task range and the cut points are the
    union of row-internal boundaries.  Each resulting subsegment yields a
    pipeline: its senders are the row occupants at that position, its hub
    relays the combined slice range to the requester (or, for the
    requester's own task, the senders stream directly).
    """
    pipelines: list[Pipeline] = []
    append = pipelines.append
    offset = 0.0
    live = [t for t in sorted(tasks, key=lambda t: t.task_id) if t.speed > AMOUNT_TOL]
    requester = context.requester
    make_edge = Edge._unchecked  # inputs valid by construction (below)
    last = len(live) - 1
    for index, task in enumerate(live):
        cut_list, sender_cols = _wraparound_columns(task)
        # the final task absorbs float slack so segments tile [0, 1) exactly
        speed = task.speed
        task_end = 1.0 if index == last else (offset + speed) / t_max
        hub = task.hub
        tid = task.task_id
        direct = hub == requester
        lo = 0
        for ci, hi in enumerate(cut_list[1:]):
            senders = sender_cols[ci]
            # Senders at any tick are distinct by construction: each
            # sender's ticks total at most LAYOUT_GRID (clamped in
            # _quantize_amounts) and occupy one contiguous span, so a
            # wrapped sender's two row pieces can never share a column.
            # Plan-level validation (Pipeline.validate) still enforces
            # the k-distinct-helpers invariant when requested; the seed
            # layout's per-cut re-check lives on in the test reference.
            # rate > 0 (cuts are strictly increasing, speed > AMOUNT_TOL)
            # and endpoints differ (senders are helpers, hub != requester,
            # the hub occupies no sender slot) — Edge validation holds.
            rate = (hi - lo) / LAYOUT_GRID * speed
            if direct:
                edges = [make_edge((u, requester, rate)) for u in senders]
            else:
                edges = [make_edge((u, hub, rate)) for u in senders]
                edges.append(make_edge((hub, requester, rate)))
            start = (offset + lo / LAYOUT_GRID * speed) / t_max
            stop = (
                task_end
                if hi == LAYOUT_GRID
                else (offset + hi / LAYOUT_GRID * speed) / t_max
            )
            append(
                Pipeline(task_id=tid, segment=Segment(start, stop), edges=edges)
            )
            lo = hi
        offset += speed
    return pipelines
