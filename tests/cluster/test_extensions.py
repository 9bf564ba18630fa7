"""Cluster extensions: degraded reads, failure recovery, full-node repair."""

import numpy as np
import pytest

from repro.cluster import ClusterSystem
from repro.ec import RSCode
from repro.workloads import make_trace


@pytest.fixture
def snapshot():
    return make_trace("tpcds", num_nodes=14, num_snapshots=60, seed=4).snapshot(30)


def build(algorithm="fullrepair", num_nodes=14, **kw):
    return ClusterSystem(num_nodes, RSCode(9, 6), algorithm=algorithm,
                         slice_bytes=4096, **kw)


def write(system, stripe_id="s1", chunk=32 * 1024, seed=2, placement=None):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (6, chunk), dtype=np.uint8)
    system.write_stripe(stripe_id, data,
                        placement=placement or tuple(range(9)))
    return data


class TestDegradedRead:
    def test_healthy_chunk_direct(self, snapshot):
        sys_ = build()
        data = write(sys_)
        sys_.set_bandwidth(snapshot)
        payload, secs = sys_.degraded_read("s1", 0, reader=12)
        assert np.array_equal(payload, data[0])
        assert secs > 0
        assert not payload.flags.writeable  # a view of the store, no copy

    def test_lost_chunk_repaired_on_read(self, snapshot):
        sys_ = build()
        data = write(sys_)
        sys_.set_bandwidth(snapshot)
        sys_.fail_node(2)
        payload, secs = sys_.degraded_read("s1", 2, reader=12)
        assert np.array_equal(payload, data[2])
        assert secs > 0

    def test_degraded_read_does_not_persist(self, snapshot):
        sys_ = build()
        write(sys_)
        sys_.set_bandwidth(snapshot)
        sys_.fail_node(2)
        sys_.degraded_read("s1", 2, reader=12)
        assert not sys_.nodes[12].store.has("s1", 2)

    def test_degraded_read_slower_than_direct(self, snapshot):
        sys_ = build()
        write(sys_)
        sys_.set_bandwidth(snapshot)
        _, direct = sys_.degraded_read("s1", 2, reader=12)
        sys_.fail_node(2)
        _, degraded = sys_.degraded_read("s1", 2, reader=12)
        assert degraded > direct


class TestFailureRecovery:
    def test_helper_death_triggers_reschedule(self, snapshot):
        sys_ = build()
        data = write(sys_, chunk=64 * 1024)
        sys_.set_bandwidth(snapshot)
        sys_.fail_node(3)
        sys_.events.schedule(0.002, lambda: sys_.fail_node(5))
        out = sys_.repair("s1", failed_node=3, requester=12)
        assert out.verified
        assert out.attempts >= 2
        assert np.array_equal(out.rebuilt, data[3])

    def test_second_plan_avoids_dead_helper(self, snapshot):
        sys_ = build()
        write(sys_, chunk=64 * 1024)
        sys_.set_bandwidth(snapshot)
        sys_.fail_node(3)
        sys_.events.schedule(0.002, lambda: sys_.fail_node(5))
        out = sys_.repair("s1", failed_node=3, requester=12)
        uploaders = {e.child for p in out.plan.pipelines for e in p.edges}
        assert 5 not in uploaders  # final plan excludes the dead helper

    def test_failure_after_completion_is_harmless(self, snapshot):
        sys_ = build()
        write(sys_)
        sys_.set_bandwidth(snapshot)
        sys_.fail_node(3)
        sys_.events.schedule(1e6, lambda: sys_.fail_node(5))
        out = sys_.repair("s1", failed_node=3, requester=12)
        assert out.verified
        assert out.attempts == 1

    def test_attempts_exhausted_raises(self, snapshot):
        sys_ = build(num_nodes=11)  # only 10 live nodes: n-2=7 surviving < ...
        write(sys_)
        sys_.set_bandwidth(snapshot.restrict(range(11)))
        sys_.fail_node(3)
        # kill helpers until fewer than k remain -> every attempt fails
        for h in (0, 1, 2):
            sys_.fail_node(h)
        with pytest.raises((RuntimeError, ValueError)):
            sys_.repair("s1", failed_node=3, requester=10)


class TestRepairNode:
    def _multi_stripe_cluster(self, snapshot, num_stripes=4):
        sys_ = build(num_nodes=14)
        rng = np.random.default_rng(8)
        originals = {}
        for i in range(num_stripes):
            sid = f"st{i}"
            data = rng.integers(0, 256, (6, 16 * 1024), dtype=np.uint8)
            nodes = tuple(int(x) for x in rng.permutation(13)[:9])
            sys_.write_stripe(sid, data, placement=nodes)
            originals[sid] = data
        sys_.set_bandwidth(snapshot)
        return sys_, originals

    def test_all_chunks_rebuilt_and_verified(self, snapshot):
        sys_, _ = self._multi_stripe_cluster(snapshot)
        victim = sys_.master.stripe("st0").placement[2]
        sys_.fail_node(victim)
        expected = set(sys_.stripes_on(victim))
        outcomes = sys_.repair_node(victim)
        assert set(outcomes) == expected
        assert all(o.verified for o in outcomes.values())
        # metadata moved on: the dead node no longer owns any chunk
        assert sys_.stripes_on(victim) == []

    def test_replacement_nodes_hold_chunks(self, snapshot):
        sys_, _ = self._multi_stripe_cluster(snapshot)
        victim = sys_.master.stripe("st0").placement[0]
        sys_.fail_node(victim)
        lost_of = {
            sid: sys_.master.stripe(sid).chunk_on(victim)
            for sid in sys_.stripes_on(victim)
        }
        outcomes = sys_.repair_node(victim)
        for sid, lost in lost_of.items():
            holders = [
                node for node in range(sys_.num_nodes)
                if sys_.nodes[node].store.has(sid, lost) and node != victim
            ]
            assert len(holders) == 1
            # metadata points at the replacement holder
            assert sys_.master.stripe(sid).node_of(lost) == holders[0]

    def test_explicit_requesters_honoured(self, snapshot):
        sys_, _ = self._multi_stripe_cluster(snapshot, num_stripes=2)
        victim = sys_.master.stripe("st0").placement[0]
        sys_.fail_node(victim)
        stripes = sys_.stripes_on(victim)
        target = next(
            r for r in range(sys_.num_nodes)
            if sys_.is_alive(r)
            and all(r not in sys_.master.stripe(s).placement for s in stripes)
        )
        lost_of = {s: sys_.master.stripe(s).chunk_on(victim) for s in stripes}
        outcomes = sys_.repair_node(victim, {s: target for s in stripes})
        for sid in outcomes:
            assert sys_.nodes[target].store.has(sid, lost_of[sid])

    def test_sequential_strategy(self, snapshot):
        sys_, _ = self._multi_stripe_cluster(snapshot)
        victim = sys_.master.stripe("st1").placement[1]
        sys_.fail_node(victim)
        outcomes = sys_.repair_node(victim, strategy="sequential")
        assert all(o.verified for o in outcomes.values())

    def test_healthy_node_rejected(self, snapshot):
        sys_, _ = self._multi_stripe_cluster(snapshot)
        with pytest.raises(ValueError):
            sys_.repair_node(0 if sys_.is_alive(0) else 1)

    def test_node_without_stripes(self, snapshot):
        sys_ = build(num_nodes=14)
        write(sys_)
        sys_.set_bandwidth(snapshot)
        sys_.fail_node(13)  # holds nothing
        assert sys_.repair_node(13) == {}
