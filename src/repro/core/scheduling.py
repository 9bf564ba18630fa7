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
   Table III exactly on the worked example.  The fast path keeps one
   standing priority order, re-sorted only when a task's key changed,
   instead of re-sorting both task lists after every pick (the seed's
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
   :class:`repro.repair.plan.Pipeline` validates.  One pass per task
   rounds the amounts to ticks and places them, and each cut's pipeline
   is emitted as soon as its column is known.
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
            # a task can fall short only here: without the re-solve every
            # task passed the tighter test above
            shortfall = [
                t for t in tasks if t.demand - t.filled > 1e-4 * max(1.0, t.demand)
            ]
            if shortfall:
                raise RuntimeError(
                    "scheduling could not realise t_max="
                    f"{t_max:.6f} Mbps: unfilled tasks "
                    f"{[(t.task_id, t.demand - t.filled) for t in shortfall]}"
                )
            break

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

    The priority order is **one standing list** of task indices, sorted
    by one key per task and re-sorted only when a key changed since the
    last sort (the node's own-task charge, or an earlier node's picks).
    Within a node, after a pick either the node's capacity is exhausted
    (the walk ends) or the picked task's per-node room is exactly zero
    (``take == room``), so a task is picked at most once per node — and
    since a pick only changes the *picked* task's ``(remain, touched)``
    key, the order of the tasks still ahead in the walk never changes
    mid-node.  Walking the standing order, skipping filled tasks and the
    node's own, therefore reproduces the seed's pick-by-pick re-sorted
    walk exactly (pinned by the equivalence tests against
    ``tests/core/reference_planner.py``).  The whole phase runs on parallel
    local lists — attribute/property dispatch on :class:`Task` dominated
    the planner profile — and results are written back into the ``Task``
    objects at the end, amounts in first-contribution order.
    """
    num = len(tasks)
    speed = [t.speed for t in tasks]
    slots = [t.slots for t in tasks]
    hub = [t.hub for t in tasks]
    tid = [t.task_id for t in tasks]
    amounts: list[dict[int, float]] = [{} for _ in range(num)]
    filled = [0.0] * num
    residual = [t.slots * t.speed for t in tasks]  # demand - filled
    own_done = [False] * num
    # parts = slots + (1 while the hub's own part is unclaimed); a task's
    # remain is its parts minus its completely filled slots
    parts = [t.slots + (1 if t.has_own else 0) for t in tasks]
    own_of = {hub[j]: j for j in range(num)}
    # seed priority: most remain first; T_assigned beats T_unassigned on
    # ties; lowest id within T_assigned, highest within T_unassigned (the
    # id component makes every key unique, so the order is total)
    keys = [(-parts[j], 1, -tid[j]) for j in range(num)]
    order = list(range(num))
    stale = True

    for u in node_order:
        cap = capacity[u]
        oj = own_of.get(u)
        if oj is not None and speed[oj] > AMOUNT_TOL:
            own_done[oj] = True
            parts[oj] -= 1
            keys[oj] = (keys[oj][0] + 1, 0, tid[oj])
            stale = True
            cap = cap - speed[oj]
            if cap < 0.0:
                cap = 0.0
        if cap > AMOUNT_TOL:
            if stale:
                order.sort(key=keys.__getitem__)
                stale = False
            for j in order:
                res = residual[j]
                if res <= AMOUNT_TOL or hub[j] == u:
                    continue
                room = speed[j] if speed[j] < res else res
                take = room if room < cap else cap
                amounts[j][u] = take
                residual[j] = res - take
                filled[j] = done = filled[j] + take
                complete = int((done + AMOUNT_TOL) / speed[j])
                if complete > slots[j]:
                    complete = slots[j]
                keys[j] = (complete - parts[j], 0, tid[j])
                stale = True
                cap -= take
                if cap <= AMOUNT_TOL:
                    break
        capacity[u] = cap

    for j, t in enumerate(tasks):
        t.amounts = amounts[j]
        t._filled = filled[j]
        t.touched = own_done[j] or bool(amounts[j])  # every pick adds an amount
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


def _quantize_amounts(task: Task, ticks: list[int]) -> list[tuple[int, int]]:
    """Rounded ticks repaired to sum exactly to ``slots * GRID``.

    The layout's own rounding (``round(a / speed * GRID)`` per sender)
    serves every task whose ticks already tile its rows; this path takes
    the rest.  Rounding drift and the max-flow's 1e-6-unit flooring are
    absorbed by distributing the residual ticks over senders with
    headroom (largest first), which perturbs rates by at most
    ``speed / LAYOUT_GRID`` — about 1e-7 Mbps per task.  Senders left
    with no ticks are dropped.
    """
    held = dict(zip(task.amounts, ticks))
    diff = task.slots * LAYOUT_GRID - sum(ticks)
    if diff:
        # most headroom first (ascending ticks when giving, descending
        # when taking back); the sort is stable, so ties keep
        # first-contribution order exactly like the seed's key sort
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
    return [(u, t) for u, t in held.items() if t > 0]


def _layout_pipelines(
    tasks: list[Task], context: RepairContext, t_max: float
) -> list[Pipeline]:
    """Cut slot rows into elementary pipelines with distinct participants.

    Tasks are placed on the normalised chunk axis in task-id order.
    Within a task, senders are laid end-to-end (first-contribution order)
    over ``task.slots`` rows of exactly ``LAYOUT_GRID`` ticks by
    McNaughton's wrap-around rule: a sender split by a row boundary
    occupies the end of one row and the start of the next, and since
    every amount lies in ``(0, speed]`` its ticks total at most one row,
    so it never covers the same column twice.  A sender starting at
    tick ``cut`` of a row takes that row over from ``cut`` on, so the
    cuts are the senders' start offsets, and adjacent cut columns differ
    only in the rows whose boundary defines the cut: column 0 is each
    row's first occupant, and each later column is its left neighbour
    with those rows handed to their next sender.  Each column yields one
    pipeline as soon as it is known: its senders are the column, its hub
    relays the combined slice range to the requester (or, for the
    requester's own task, the senders stream directly).

    A *full-row* task — ``slots`` senders each contributing exactly
    ``speed`` — is one row per sender and no cut: its single column is
    the senders in first-contribution order, with no ticks to compute.
    """
    pipelines: list[Pipeline] = []
    append = pipelines.append
    offset = 0.0
    live = [t for t in tasks if t.speed > AMOUNT_TOL]  # numbered in list order
    requester = context.requester
    make_edge = Edge._unchecked  # inputs valid by construction (below)
    last = len(live) - 1
    for index, task in enumerate(live):
        speed = task.speed
        slots = task.slots
        amounts = task.amounts
        takeovers: dict[int, list[tuple[int, int]]] = {}  # cut -> (row, sender)
        if len(amounts) == slots == list(amounts.values()).count(speed):
            column = list(amounts)  # full rows: one column, no cut
        else:
            column = []  # who opens each row, then who holds it at each cut
            ticks = [round(a / speed * LAYOUT_GRID) for a in amounts.values()]
            # (a sender rounded to no ticks must not open a row)
            if sum(ticks) == slots * LAYOUT_GRID and 0 not in ticks:
                placed = zip(amounts, ticks)
            else:
                placed = _quantize_amounts(task, ticks)
            cut = 0
            for u, t in placed:
                if cut:
                    takeovers.setdefault(cut, []).append((len(column) - 1, u))
                else:
                    column.append(u)
                cut += t
                if cut >= LAYOUT_GRID:
                    cut -= LAYOUT_GRID
                    if cut:  # wraps: also opens the next row
                        column.append(u)
        cuts = sorted(takeovers)
        cuts.append(LAYOUT_GRID)
        # the final task absorbs float slack so segments tile [0, 1) exactly
        task_end = 1.0 if index == last else (offset + speed) / t_max
        hub = task.hub
        tid = task.task_id
        direct = hub == requester
        lo = 0
        start = offset / t_max
        for hi in cuts:
            if lo:
                # the column is updated in place: the previous pipeline's
                # edges were already built from it
                for row, u in takeovers[lo]:
                    column[row] = u
            # rate > 0 (cuts are strictly increasing, speed > AMOUNT_TOL)
            # and endpoints differ (senders are helpers, hub != requester,
            # the hub occupies no sender slot) — Edge validation holds.
            # Plan-level validation still enforces the k-distinct-helpers
            # invariant; the seed layout's per-cut re-check lives on in
            # the test reference.
            rate = (hi - lo) / LAYOUT_GRID * speed
            if direct:
                edges = [make_edge((u, requester, rate)) for u in column]
            else:
                edges = [make_edge((u, hub, rate)) for u in column]
                edges.append(make_edge((hub, requester, rate)))
            stop = (
                task_end
                if hi == LAYOUT_GRID
                else (offset + hi / LAYOUT_GRID * speed) / t_max
            )
            append(Pipeline(tid, Segment(start, stop), edges))
            lo = hi
            start = stop
        offset += speed
    return pipelines
