#!/usr/bin/env python3
"""Whole-node failure recovery with batched multi-pipeline repair.

Builds a 14-node cluster with several (9,6) stripes, kills a node, and
recovers every chunk it held — comparing the sequential and batched
full-node strategies and verifying all rebuilt bytes.  Also demonstrates
degraded reads and recovery from a helper dying *during* a repair.

Run:  python examples/full_node_recovery.py
"""

import numpy as np

from repro import ClusterSystem, RSCode
from repro.workloads import make_trace


def build_cluster(algorithm: str) -> tuple[ClusterSystem, dict, int]:
    code = RSCode(9, 6)
    cluster = ClusterSystem(14, code, algorithm=algorithm, slice_bytes=16 * 1024)
    rng = np.random.default_rng(11)
    originals = {}
    for i in range(6):
        sid = f"stripe-{i}"
        data = rng.integers(0, 256, (code.k, 128 * 1024), dtype=np.uint8)
        placement = tuple(int(x) for x in rng.permutation(13)[:9])
        cluster.write_stripe(sid, data, placement=placement)
        originals[sid] = data
    trace = make_trace("swim", num_nodes=14, num_snapshots=300, seed=11)
    cluster.set_bandwidth(trace.snapshot(int(trace.congested_instants()[0])))
    victim = cluster.master.stripe("stripe-0").placement[0]
    return cluster, originals, victim


def main() -> None:
    print("=== full-node recovery: sequential vs batched ===")
    for strategy in ("sequential", "batched"):
        cluster, _, victim = build_cluster("fullrepair")
        cluster.fail_node(victim)
        stripes = cluster.stripes_on(victim)
        outcomes = cluster.repair_node(victim, strategy=strategy)
        assert all(o.verified for o in outcomes.values())
        span = max(o.elapsed_seconds for o in outcomes.values())
        print(
            f"  {strategy:>10}: node {victim} held {len(stripes)} chunks, "
            f"all rebuilt+verified; slowest repair {span * 1e3:.1f} ms"
        )

    print("\n=== degraded read through a failure ===")
    cluster, originals, victim = build_cluster("fullrepair")
    sid = cluster.stripes_on(victim)[0]
    lost = cluster.master.stripe(sid).chunk_on(victim)
    cluster.fail_node(victim)
    reader = next(
        r for r in range(cluster.num_nodes)
        if cluster.is_alive(r) and r not in cluster.master.stripe(sid).placement
    )
    payload, secs = cluster.degraded_read(sid, lost, reader=reader)
    ok = (lost >= 6) or bool(np.array_equal(payload, originals[sid][lost]))
    print(f"  chunk {lost} of {sid} served in {secs * 1e3:.2f} ms "
          f"(byte-exact: {ok})")

    print("\n=== helper dies mid-repair ===")
    cluster, _, victim = build_cluster("fullrepair")
    sid = cluster.stripes_on(victim)[0]
    cluster.fail_node(victim)
    helpers = [
        n for n in cluster.master.stripe(sid).placement if n != victim
    ]
    requester = next(
        r for r in range(cluster.num_nodes)
        if cluster.is_alive(r) and r not in cluster.master.stripe(sid).placement
    )
    cluster.events.schedule(0.001, lambda: cluster.fail_node(helpers[0]))
    out = cluster.repair(
        sid, failed_node=victim, requester=requester,
    )
    print(
        f"  helper {helpers[0]} killed 1 ms into the repair: "
        f"verified={out.verified} after {out.attempts} attempts "
        f"({out.elapsed_seconds * 1e3:.1f} ms total)"
    )


if __name__ == "__main__":
    main()
