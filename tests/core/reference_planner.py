"""Test-only oracle: the frozen seed implementation of Algorithms 1 + 2.

This module preserves, verbatim, the original (pre-fast-path) planner:
the pure-Python water-filling loop, the alternating downlink fixpoint,
the sort-per-iteration greedy sender assignment, the networkx-backed
flow completion, and the per-cut segment layout.  The planner in
:mod:`repro.core.throughput` / :mod:`repro.core.scheduling` must emit
plans identical (within ``AMOUNT_TOL``) to this reference on the
paper's worked example and on randomised contexts
(``test_fastpath_equivalence.py``).  Nothing in ``src/`` imports it, and
networkx is imported inside the flow-completion function only.  Do not
"optimise" this file — its value is being frozen.
"""

from __future__ import annotations

from repro.core import constraints
from repro.core.scheduling import (
    AMOUNT_TOL,
    LAYOUT_GRID,
    ScheduleResult,
    Task,
)
from repro.core.throughput import FIXPOINT_TOL, MAX_ALTERNATIONS, ThroughputResult
from repro.repair.plan import Segment
from repro.net.bandwidth import RepairContext
from repro.repair.plan import Edge, Pipeline, RepairPlan

# --------------------------------------------------------------------- #
# Algorithm 1 (seed): Python water-filling loop + alternating fixpoint  #
# --------------------------------------------------------------------- #


def seed_max_pipelined_throughput(context: RepairContext) -> ThroughputResult:
    """The seed Algorithm 1, preserved exactly."""
    k = context.k
    helpers = list(context.helpers)
    up = {h: context.uplink(h) for h in helpers}
    down = {h: context.downlink(h) for h in helpers}
    d0 = context.downlink(context.requester)

    # ---- Lines 2-12: limit by uplinks (water-filling) ----------------
    picked: list[int] = []
    pool = list(helpers)
    while True:
        denom = k - len(picked)
        pool_sum = sum(up[h] for h in pool)
        pool_max = max(up[h] for h in pool)
        if denom <= 1 or pool_sum / denom >= pool_max:
            break
        best = max(pool, key=lambda h: (up[h], -h))
        pool.remove(best)
        picked.append(best)
    c = min(sum(up[h] for h in pool) / (k - len(picked)), d0)
    for h in picked:
        up[h] = c

    # ---- Lines 13-25: limit by downlinks (alternating fixpoint) ------
    for _ in range(MAX_ALTERNATIONS):
        c = min((d0 + sum(down.values())) / k, c)
        stable = True
        for h in helpers:
            up[h] = min(c, up[h])
            cap = up[h] * (k - 1)
            if cap < down[h]:
                down[h] = cap
                stable = False
        if stable:
            break
    else:  # adversarial slow convergence: solve the fixpoint exactly
        c = _seed_downlink_fixpoint(
            c,
            d0,
            {h: context.uplink(h) for h in helpers},
            {h: context.downlink(h) for h in helpers},
            k,
        )
        for h in helpers:
            up[h] = min(c, up[h])
            down[h] = min(down[h], up[h] * (k - 1))

    if c <= 0:
        raise ValueError(
            "no positive repair throughput achievable: uplinks "
            f"{[context.uplink(h) for h in helpers]}, requester downlink {d0}"
        )
    return ThroughputResult(
        t_max=float(c),
        uplink={h: float(v) for h, v in up.items()},
        downlink={h: float(v) for h, v in down.items()},
        picked=tuple(picked),
    )


def _seed_downlink_fixpoint(
    c0: float, d0: float, orig_up: dict[int, float], orig_down: dict[int, float], k: int
) -> float:
    """Bisection fixpoint backstop, preserved from the seed."""

    def feasible(c: float) -> bool:
        total = d0 + sum(
            min(orig_down[h], (k - 1) * min(c, orig_up[h])) for h in orig_up
        )
        return c * k <= total + FIXPOINT_TOL

    lo, hi = 0.0, c0
    if feasible(hi):
        return hi
    for _ in range(200):
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# --------------------------------------------------------------------- #
# Algorithm 2 (seed): sort-per-iteration greedy + networkx completion   #
# --------------------------------------------------------------------- #


def seed_schedule_tasks(
    context: RepairContext,
    throughput: ThroughputResult,
    *,
    use_requester_task: bool = True,
) -> ScheduleResult:
    """The seed Algorithm 2, preserved exactly (networkx flow fallback)."""
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
    by_hub = {t.hub: t for t in tasks}

    # ---- sending-task assignment (Lines 14-21 + TASKASSIGN) ----------
    capacity = {h: up[h] for h in context.helpers}
    node_order = sorted(
        context.helpers, key=lambda h: (-(capacity[h] - own_speed.get(h, 0.0)), h)
    )
    for u in node_order:
        _seed_task_assign(u, by_hub.get(u), tasks, capacity)

    # ---- flow completion (generalised task exchange) ------------------
    flow_used = False
    if any(t.demand - t.filled > AMOUNT_TOL * max(1.0, t.demand) for t in tasks):
        flow_used = True
        _seed_flow_completion(tasks, capacity, context, up, own_speed)

    shortfall = [
        t for t in tasks if t.demand - t.filled > 1e-4 * max(1.0, t.demand)
    ]
    if shortfall:
        raise RuntimeError(
            "scheduling could not realise t_max="
            f"{t_max:.6f} Mbps: unfilled tasks "
            f"{[(t.task_id, t.demand - t.filled) for t in shortfall]}"
        )

    pipelines = _seed_layout_pipelines(tasks, context, t_max)
    return ScheduleResult(
        tasks=tasks,
        pipelines=pipelines,
        requester_task=requester_task,
        flow_completion_used=flow_used,
        t_max=t_max,
    )


def _seed_sorted_assigned(tasks: list[Task]) -> list[Task]:
    return sorted(
        (t for t in tasks if t.touched), key=lambda t: (-t.remain, t.task_id)
    )


def _seed_sorted_unassigned(tasks: list[Task]) -> list[Task]:
    return sorted(
        (t for t in tasks if not t.touched), key=lambda t: (-t.remain, -t.task_id)
    )


def _seed_task_assign(
    node: int, own: Task | None, tasks: list[Task], capacity: dict[int, float]
) -> None:
    """The seed TASKASSIGN: full sorts of both task lists per iteration."""
    if own is not None and own.speed > AMOUNT_TOL:
        own.own_assigned = True
        own.touched = True
        capacity[node] = max(0.0, capacity[node] - own.speed)

    while capacity[node] > AMOUNT_TOL:
        assigned_pick = next(
            (t for t in _seed_sorted_assigned(tasks) if t.room(node) > AMOUNT_TOL),
            None,
        )
        unassigned_pick = next(
            (t for t in _seed_sorted_unassigned(tasks) if t.room(node) > AMOUNT_TOL),
            None,
        )
        target = assigned_pick
        if unassigned_pick is not None and (
            target is None or unassigned_pick.remain > target.remain
        ):
            target = unassigned_pick
        if target is None:
            break
        took = target.add(node, capacity[node])
        capacity[node] -= took
        if took <= AMOUNT_TOL:
            break


def _seed_flow_completion(
    tasks: list[Task],
    capacity: dict[int, float],
    context: RepairContext,
    uplink: dict[int, float],
    own_speed: dict[int, float],
) -> None:
    """The seed transportation re-solve, on networkx (lazy import)."""
    import networkx as nx  # test oracle only — never on the hot path

    g = nx.DiGraph()
    scale = 1e6
    total_demand = 0
    for t in tasks:
        if t.demand <= AMOUNT_TOL:
            continue
        demand_units = int(t.demand * scale)  # floored: never unsatisfiable
        total_demand += demand_units
        g.add_edge(f"t{t.task_id}", "sink", capacity=demand_units)
        for u in context.helpers:
            if u == t.hub:
                continue
            g.add_edge(f"u{u}", f"t{t.task_id}", capacity=int(t.speed * scale))
    if total_demand == 0:
        return
    for u in context.helpers:
        cap = uplink[u] - own_speed.get(u, 0.0)
        if cap > AMOUNT_TOL:
            g.add_edge("source", f"u{u}", capacity=int(cap * scale))
    if "source" not in g or "sink" not in g:
        return
    _value, flows = nx.maximum_flow(g, "source", "sink")
    for t in tasks:
        key = f"t{t.task_id}"
        amounts: dict[int, float] = {}
        for u in context.helpers:
            amt = flows.get(f"u{u}", {}).get(key, 0) / scale
            if amt > AMOUNT_TOL:
                amounts[u] = min(amt, t.speed)
        filled = sum(amounts.values())
        if filled > 0 and t.demand - filled > 0:
            factor = t.demand / filled
            amounts = {u: min(a * factor, t.speed) for u, a in amounts.items()}
        t.set_amounts(amounts)
    for u in context.helpers:
        used = sum(flows.get(f"u{u}", {}).values()) / scale
        capacity[u] = uplink[u] - own_speed.get(u, 0.0) - used


# --------------------------------------------------------------------- #
# Segment layout (seed): per-cut occupant scans, dataclass constructors  #
# --------------------------------------------------------------------- #


def _seed_quantize_amounts(task: Task) -> dict[int, int]:
    """The seed tick quantisation, preserved exactly."""
    target = task.slots * LAYOUT_GRID
    ticks: dict[int, int] = {}
    for u, a in task.amounts.items():
        t = int(round(a / task.speed * LAYOUT_GRID))
        ticks[u] = max(0, min(t, LAYOUT_GRID))
    diff = target - sum(ticks.values())
    if diff > 0:
        for u in sorted(ticks, key=lambda u: -(LAYOUT_GRID - ticks[u])):
            give = min(diff, LAYOUT_GRID - ticks[u])
            ticks[u] += give
            diff -= give
            if diff == 0:
                break
    elif diff < 0:
        for u in sorted(ticks, key=lambda u: -ticks[u]):
            take = min(-diff, ticks[u])
            ticks[u] -= take
            diff += take
            if diff == 0:
                break
    if diff != 0:
        raise RuntimeError(
            f"task {task.task_id}: cannot tile {task.slots} slots from "
            f"amounts {task.amounts} (residual {diff} ticks)"
        )
    return {u: t for u, t in ticks.items() if t > 0}


def _seed_wraparound_rows(task: Task) -> list[list[tuple[int, int]]]:
    """The seed McNaughton wrap-around layout, preserved exactly."""
    ticks = _seed_quantize_amounts(task)
    rows: list[list[tuple[int, int]]] = []
    row: list[tuple[int, int]] = []
    fill = 0
    for u, a in ticks.items():
        while a > 0:
            take = min(a, LAYOUT_GRID - fill)
            row.append((u, take))
            fill += take
            a -= take
            if fill == LAYOUT_GRID:
                rows.append(row)
                row, fill = [], 0
    if row:
        rows.append(row)
    return rows


def _seed_occupant_at(row: list[tuple[int, int]], position: int) -> int:
    """The seed per-row occupant scan, preserved exactly."""
    pos = 0
    for u, a in row:
        if position < pos + a:
            return u
        pos += a
    raise RuntimeError(f"no occupant at tick {position} (row ends at {pos})")


def _seed_layout_pipelines(
    tasks: list[Task], context: RepairContext, t_max: float
) -> list[Pipeline]:
    """The seed segment layout, preserved exactly."""
    pipelines: list[Pipeline] = []
    offset = 0.0
    live = [t for t in sorted(tasks, key=lambda t: t.task_id) if t.speed > AMOUNT_TOL]
    for index, task in enumerate(live):
        rows = _seed_wraparound_rows(task)
        if len(rows) != task.slots:
            raise RuntimeError(
                f"task {task.task_id}: {len(rows)} filled rows != {task.slots} slots"
            )
        cuts = {0, LAYOUT_GRID}
        for row in rows:
            pos = 0
            for _, a in row[:-1]:
                pos += a
                cuts.add(pos)
        cut_list = sorted(cuts)
        # the final task absorbs float slack so segments tile [0, 1) exactly
        task_end = 1.0 if index == len(live) - 1 else (offset + task.speed) / t_max
        for lo, hi in zip(cut_list[:-1], cut_list[1:]):
            senders = [_seed_occupant_at(row, lo) for row in rows]
            if len(set(senders)) != task.slots:
                raise RuntimeError(
                    f"task {task.task_id}: tick {lo} covered by senders "
                    f"{senders}, expected {task.slots} distinct"
                )
            rate = (hi - lo) / LAYOUT_GRID * task.speed
            if task.hub == context.requester:
                edges = [
                    Edge(child=u, parent=context.requester, rate=rate)
                    for u in senders
                ]
            else:
                edges = [Edge(child=u, parent=task.hub, rate=rate) for u in senders]
                edges.append(
                    Edge(child=task.hub, parent=context.requester, rate=rate)
                )
            start = (offset + lo / LAYOUT_GRID * task.speed) / t_max
            stop = (
                task_end
                if hi == LAYOUT_GRID
                else (offset + hi / LAYOUT_GRID * task.speed) / t_max
            )
            pipelines.append(
                Pipeline(
                    task_id=task.task_id, segment=Segment(start, stop), edges=edges
                )
            )
        offset += task.speed
    return pipelines


# --------------------------------------------------------------------- #
# End-to-end seed planning path                                         #
# --------------------------------------------------------------------- #


def seed_schedule(
    context: RepairContext,
    *,
    check_constraints: bool = True,
    use_requester_task: bool = True,
) -> RepairPlan:
    """The seed FullRepair.schedule: Algorithm 1 + checks + Algorithm 2."""
    throughput = seed_max_pipelined_throughput(context)
    if check_constraints:
        constraints.assert_holds(context, throughput)
    result = seed_schedule_tasks(
        context, throughput, use_requester_task=use_requester_task
    )
    return RepairPlan(
        algorithm="fullrepair",
        context=context,
        pipelines=result.pipelines,
        meta={
            "t_max": result.t_max,
            "picked": throughput.picked,
            "num_tasks": len(result.tasks),
            "requester_task_rate": (
                result.requester_task.speed if result.requester_task else 0.0
            ),
            "flow_completion_used": result.flow_completion_used,
            "tasks": [
                (t.task_id, t.hub, t.speed, t.slots) for t in result.tasks
            ],
            "seed_reference": True,
        },
    )
