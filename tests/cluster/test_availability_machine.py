"""Availability as a state machine: every query equals a plain-set model.

The cluster keeps availability in three words — ``ClusterSystem.down``
(crashed nodes), ``Master.dead`` (nodes the master believes dead) and
``Master.corrupt`` (quarantined chunks per stripe) — and derives every
"who can serve / who can take work" answer from them.  This machine
writes stripes, crashes nodes, sends heartbeats and expires leases,
rejoins nodes, quarantines and relocates chunks, and after every step
checks each query against a model kept as plain Python sets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster import ClusterSystem
from repro.cluster.master import LEASE_MISSED_REPORTS, RepairImpossibleError
from repro.cluster.messages import BandwidthReport
from repro.ec import RSCode

NUM_NODES = 9
N, K = 5, 3
LEASE_S = 1.0
MAX_STRIPES = 4

nodes = st.integers(0, NUM_NODES - 1)


class AvailabilityMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.system = ClusterSystem(NUM_NODES, RSCode(N, K), slice_bytes=64)
        self.master = self.system.master
        self.master.configure_lease(LEASE_S)
        # the model: plain sets and dicts
        self.down: set[int] = set()
        self.dead: set[int] = set()
        self.quarantined: set[tuple[str, int]] = set()
        self.placements: dict[str, tuple[int, ...]] = {}
        self.last_report: dict[int, float] = {}
        self.now = 0.0

    # ---- rules ---------------------------------------------------------- #

    @precondition(lambda self: len(self.placements) < MAX_STRIPES)
    @rule(data=st.data())
    def write_stripe(self, data):
        up = [n for n in range(NUM_NODES) if n not in self.down]
        if len(up) < N:
            return
        placement = tuple(data.draw(st.permutations(up))[:N])
        sid = f"s{len(self.placements)}"
        chunks = np.zeros((K, 64), dtype=np.uint8)
        self.system.write_stripe(sid, chunks, placement=placement)
        self.placements[sid] = placement

    @rule(node=nodes)
    def crash(self, node):
        self.system.fail_node(node)
        self.down.add(node)

    @rule(dt=st.sampled_from([0.5, 1.0, 2.5]))
    def heartbeat(self, dt):
        """Time passes; every node that is up and not believed dead reports."""
        self.now += dt
        for node in range(NUM_NODES):
            if node in self.down or node in self.dead:
                continue
            self.master.on_bandwidth_report(
                BandwidthReport(node=node, uplink_mbps=100.0, downlink_mbps=100.0),
                now=self.now,
            )
            self.last_report[node] = self.now

    @rule(dt=st.sampled_from([0.0, 1.0, 4.0]))
    def expire_leases(self, dt):
        self.now += dt
        expired = sorted(
            n
            for n, last in self.last_report.items()
            if n not in self.dead and self.now - last > LEASE_S * LEASE_MISSED_REPORTS
        )
        assert self.master.check_leases(self.now) == expired
        for n in expired:
            self.dead.add(n)
            del self.last_report[n]

    @rule(node=nodes)
    def rejoin(self, node):
        self.master.mark_node_live(node)
        self.dead.discard(node)

    @precondition(lambda self: self.placements)
    @rule(data=st.data(), chunk=st.integers(0, N - 1))
    def quarantine(self, data, chunk):
        sid = data.draw(st.sampled_from(sorted(self.placements)))
        fresh = (sid, chunk) not in self.quarantined
        assert self.system.quarantine_chunk(sid, chunk) == fresh
        self.quarantined.add((sid, chunk))

    @precondition(lambda self: self.placements)
    @rule(data=st.data(), chunk=st.integers(0, N - 1))
    def relocate(self, data, chunk):
        sid = data.draw(st.sampled_from(sorted(self.placements)))
        placement = self.placements[sid]
        outside = [n for n in range(NUM_NODES) if n not in placement]
        target = data.draw(st.sampled_from([placement[chunk], *outside]))
        self.master.relocate_chunk(sid, chunk, target)
        self.placements[sid] = (
            placement[:chunk] + (target,) + placement[chunk + 1 :]
        )
        self.quarantined.discard((sid, chunk))

    # ---- the queries, against the model --------------------------------- #

    @invariant()
    def nodes_agree(self):
        system, master = self.system, self.master
        live = [
            n for n in range(NUM_NODES) if n not in self.down and n not in self.dead
        ]
        assert [system.is_alive(n) for n in range(NUM_NODES)] == [
            n not in self.down for n in range(NUM_NODES)
        ]
        assert [master.is_node_dead(n) for n in range(NUM_NODES)] == [
            n in self.dead for n in range(NUM_NODES)
        ]
        assert master.dead_nodes() == tuple(sorted(self.dead))
        assert system.live == live
        assert system.live_mask == sum(1 << n for n in live)

    @invariant()
    def stripes_agree(self):
        system, master = self.system, self.master
        for sid, placement in self.placements.items():
            serves = [
                n not in self.down and (sid, ci) not in self.quarantined
                for ci, n in enumerate(placement)
            ]
            assert [
                system.can_serve(sid, ci, n) for ci, n in enumerate(placement)
            ] == serves
            lost = tuple(n for n, ok in zip(placement, serves) if not ok)
            assert system.unavailable_nodes(sid) == lost
            assert system.exposure(sid) == len(lost)
            assert system.spares(sid) == [
                n
                for n in range(NUM_NODES)
                if n not in self.down and n not in self.dead and n not in placement
            ]
            assert master.quarantined_chunks(sid) == tuple(
                sorted(ci for s, ci in self.quarantined if s == sid)
            )
            self.check_context(sid, placement)

    def check_context(self, sid, placement):
        """Planning reads the master's belief: dead, not crashed."""
        requesters = [
            n for n in range(NUM_NODES) if n not in placement and n not in self.dead
        ]
        if not requesters:
            return
        failed = placement[0]
        helpers = tuple(
            n
            for ci, n in enumerate(placement)
            if n != failed and n not in self.dead and (sid, ci) not in self.quarantined
        )
        if len(helpers) < K:
            with pytest.raises(RepairImpossibleError):
                self.master.build_context(sid, failed, requesters[0])
            return
        context = self.master.build_context(sid, failed, requesters[0])
        assert context.helpers == helpers
        assert context.chunk_index == {n: placement.index(n) for n in helpers}


AvailabilityMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestAvailability = AvailabilityMachine.TestCase
