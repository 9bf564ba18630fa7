"""Striped-file layer."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.cluster import ClusterSystem
from repro.cluster.files import FileStore
from repro.cluster.placement import RandomSpreadPlacement, RoundRobinPlacement, make_policy
from repro.ec import RSCode
from repro.net import BandwidthSnapshot
from repro.workloads import make_trace


@pytest.fixture
def cluster():
    sys_ = ClusterSystem(12, RSCode(6, 4), slice_bytes=2048)
    trace = make_trace("tpcds", num_nodes=12, num_snapshots=30, seed=6)
    sys_.set_bandwidth(trace.snapshot(10))
    return sys_


@pytest.fixture
def store(cluster):
    return FileStore(cluster, chunk_bytes=4096)


def payload(size, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()


class TestWrite:
    def test_roundtrip_exact_multiple(self, store):
        data = payload(4 * 4096)  # exactly one stripe
        entry = store.write("a", data)
        assert entry.num_stripes == 1
        got, secs = store.read("a")
        assert got == data
        assert secs > 0

    def test_roundtrip_with_padding(self, store):
        data = payload(10_000, seed=1)  # not chunk-aligned
        entry = store.write("b", data)
        assert entry.size_bytes == 10_000
        got, _ = store.read("b")
        assert got == data

    def test_multi_stripe_file(self, store):
        data = payload(3 * 4 * 4096 + 777, seed=2)
        entry = store.write("c", data)
        assert entry.num_stripes == 4
        got, _ = store.read("c")
        assert got == data

    def test_duplicate_name_rejected(self, store):
        store.write("dup", payload(100))
        with pytest.raises(FileExistsError):
            store.write("dup", payload(100))

    def test_empty_file_rejected(self, store):
        with pytest.raises(ValueError):
            store.write("empty", b"")

    def test_catalog(self, store):
        store.write("x", payload(100))
        store.write("y", payload(100, seed=3))
        assert store.files() == ["x", "y"]
        assert len(store.stripes_of("x")) == 1
        with pytest.raises(FileNotFoundError):
            store.entry("zz")


class TestWriteAfterACrash:
    """Stripes are placed among the live nodes, all before the first is
    written (10 nodes, RS(6, 4), 4 KiB chunks: a 51,200 B file is 4 stripes)."""

    @pytest.fixture
    def small(self):
        system = ClusterSystem(10, RSCode(6, 4), slice_bytes=2048)
        system.set_bandwidth(BandwidthSnapshot.uniform(10, 1000.0))
        store = FileStore(system, chunk_bytes=4096)
        store.write("a", payload(51_200, seed=3))
        return system, store

    def test_a_write_avoids_the_dead_node_and_round_trips(self, small):
        system, store = small
        system.fail_node(1)
        data = payload(51_200, seed=4)
        entry = store.write("b", data)
        assert entry.num_stripes == 4
        for sid in entry.stripe_ids:
            assert 1 not in system.master.stripe(sid).placement
        got, _ = store.read("b")
        assert got == data

    @pytest.mark.parametrize("policy", ["round_robin", "random_spread", "load_balanced"])
    def test_each_policy_places_among_the_live_nodes(self, small, policy):
        system, _ = small
        store = FileStore(system, chunk_bytes=4096,
                          placement=make_policy(policy, system.num_nodes, 6))
        system.fail_node(1)
        system.fail_node(7)
        data = payload(51_200, seed=5)
        entry = store.write("c", data)
        for sid in entry.stripe_ids:
            assert not {1, 7} & set(system.master.stripe(sid).placement)
        got, _ = store.read("c")
        assert got == data

    @pytest.mark.parametrize("refusal", ["second_stripe", "too_few_live"])
    def test_a_refused_write_stores_nothing(self, small, refusal):
        system, store = small
        if refusal == "second_stripe":
            store.placement = _RefusesStripe(5, system.num_nodes, 6)
        else:
            for node in range(1, 6):  # five live nodes left for six chunks
                system.fail_node(node)
        stripes, counter = system.master.stripe_ids(), store._stripe_counter
        with pytest.raises(ValueError):
            store.write("b", payload(51_200, seed=4))
        assert system.master.stripe_ids() == stripes
        assert store._stripe_counter == counter
        assert store.files() == ["a"]


class _RefusesStripe(RoundRobinPlacement):
    """Round-robin placement that has no room for one stripe index."""

    def __init__(self, refused: int, num_nodes: int, n: int) -> None:
        super().__init__(num_nodes, n)
        self.refused = refused

    def place(self, stripe_index, eligible):
        if stripe_index == self.refused:
            raise ValueError(f"no room for stripe {stripe_index}")
        return super().place(stripe_index, eligible)


class TestDegradedReads:
    def test_read_through_single_failure(self, store, cluster):
        data = payload(2 * 4 * 4096, seed=4)
        store.write("f", data)
        victim = cluster.master.stripe(store.stripes_of("f")[0]).placement[1]
        cluster.fail_node(victim)
        got, secs = store.read("f")
        assert got == data
        assert secs > 0

    def test_degraded_read_costs_more(self, store, cluster):
        data = payload(4 * 4096, seed=5)
        store.write("g", data)
        _, healthy = store.read("g")
        victim = cluster.master.stripe(store.stripes_of("g")[0]).placement[0]
        cluster.fail_node(victim)
        _, degraded = store.read("g")
        assert degraded > healthy

    def test_reader_skips_a_master_dead_node(self, store, cluster):
        data = payload(4 * 4096, seed=8)
        store.write("m", data)
        placement = cluster.master.stripe(store.stripes_of("m")[0]).placement
        cluster.fail_node(placement[0])
        outside = [n for n in range(cluster.num_nodes) if n not in placement]
        cluster.master.mark_node_dead(outside[0])  # alive, declared dead
        got, _ = store.read("m")  # the default reader is the lowest eligible
        assert got == data
        got, _ = store.read("m", reader=outside[0])  # preference not honoured
        assert got == data

    def test_affected_files(self, store, cluster):
        store.write("h1", payload(4 * 4096, seed=6))
        store.write("h2", payload(4 * 4096, seed=7))
        sid = store.stripes_of("h1")[0]
        node = cluster.master.stripe(sid).placement[0]
        affected = store.affected_files(node)
        assert "h1" in affected


class TestReadMemory:
    """A read copies the file's bytes once: healthy chunks arrive as
    views and are joined straight into the returned ``bytes``."""

    MIB = 1 << 20

    @pytest.mark.parametrize("down", [False, True])
    @pytest.mark.parametrize("tail", [0, 12345])
    def test_peak_is_the_file_plus_two_chunks(self, down, tail):
        cluster = ClusterSystem(12, RSCode(9, 6), slice_bytes=64 * 1024)
        cluster.set_bandwidth(BandwidthSnapshot.uniform(12, 1000.0))
        store = FileStore(cluster, chunk_bytes=self.MIB)
        data = payload(6 * self.MIB - tail, seed=3)
        store.write("f", data)
        if down:
            cluster.fail_node(0)  # chunk 0 is rebuilt at the reader
        _, warm_seconds = store.read("f")  # warm the kernel tables
        gc.collect()
        tracemalloc.start()
        try:
            got, seconds = store.read("f")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == data
        assert seconds == pytest.approx(warm_seconds)
        assert peak <= len(data) + 2 * self.MIB


class TestPlacementIntegration:
    def test_custom_policy_used(self, cluster):
        policy = RandomSpreadPlacement(12, 6, seed=9)
        store = FileStore(cluster, chunk_bytes=4096, placement=policy)
        data = payload(2 * 4 * 4096, seed=8)
        store.write("p", data)
        sids = store.stripes_of("p")
        placements = {cluster.master.stripe(s).placement for s in sids}
        assert placements == {policy.place(0, range(12)), policy.place(1, range(12))}

    def test_bad_chunk_size(self, cluster):
        with pytest.raises(ValueError):
            FileStore(cluster, chunk_bytes=0)
