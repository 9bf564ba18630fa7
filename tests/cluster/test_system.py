"""End-to-end cluster repairs: byte exactness, timing, all algorithms."""

import numpy as np
import pytest

from repro.cluster import ClusterSystem
from repro.ec import RSCode
from repro.net import units
from repro.sim import TransferParams, execute
from repro.sim.transfer import DISPATCH_LATENCY_S
from repro.workloads import make_trace


def build_cluster(algorithm="fullrepair", n=9, k=6, num_nodes=12, **kw):
    return ClusterSystem(num_nodes, RSCode(n, k), algorithm=algorithm, **kw)


@pytest.fixture
def snapshot():
    return make_trace("tpcds", num_nodes=12, num_snapshots=40, seed=5).snapshot(17)


def write_and_fail(system, seed=1, chunk_bytes=32 * 1024):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (system.code.k, chunk_bytes), dtype=np.uint8)
    system.write_stripe("s1", data, placement=tuple(range(system.code.n)))
    system.fail_node(2)
    return data


class TestLifecycle:
    def test_write_places_chunks(self, snapshot):
        sys_ = build_cluster()
        data = write_and_fail(sys_)
        for idx in (0, 1, 3):
            chunk = sys_.read_chunk("s1", idx)
            if idx < sys_.code.k:
                assert np.array_equal(chunk, data[idx])

    def test_read_is_a_read_only_view_of_its_generation(self, snapshot):
        sys_ = build_cluster()
        data = write_and_fail(sys_)
        chunk = sys_.read_chunk("s1", 0)
        with pytest.raises(ValueError, match="read-only"):
            chunk[0] ^= 1
        # the store replaces a chunk it rots, so the read keeps its bytes
        sys_.nodes[0].store.corrupt("s1", 0, flips=64)
        assert np.array_equal(chunk, data[0])
        assert not np.array_equal(sys_.read_chunk("s1", 0), data[0])

    def test_read_failed_chunk_raises(self, snapshot):
        sys_ = build_cluster()
        write_and_fail(sys_)
        with pytest.raises(RuntimeError):
            sys_.read_chunk("s1", 2)

    def test_cannot_place_on_failed_node(self, snapshot):
        sys_ = build_cluster()
        sys_.fail_node(0)
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, (6, 64), dtype=np.uint8)
        with pytest.raises(ValueError):
            sys_.write_stripe("s2", data, placement=tuple(range(9)))

    def test_too_small_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterSystem(9, RSCode(9, 6))

    def test_repair_requires_failed_node(self, snapshot):
        sys_ = build_cluster()
        write_and_fail(sys_)
        sys_.set_bandwidth(snapshot)
        with pytest.raises(ValueError):
            sys_.repair("s1", failed_node=3, requester=10)

    def test_repair_of_a_node_outside_the_placement_is_a_bad_argument(
        self, snapshot
    ):
        # node 10 holds no chunk of s1: both single-chunk entry points
        # refuse it as repair_multi does, not with a lookup KeyError
        sys_ = build_cluster()
        write_and_fail(sys_)
        sys_.set_bandwidth(snapshot)
        sys_.fail_node(10)
        with pytest.raises(ValueError, match="node 10 holds no chunk of s1"):
            sys_.repair("s1", failed_node=10, requester=11)
        with pytest.raises(ValueError, match="node 10 holds no chunk of s1"):
            sys_.repair_async("s1", 10, 11, on_done=lambda outcome: None)
        assert sys_.events.pending_count == 0 and not sys_._assemblies


@pytest.mark.parametrize(
    "algorithm", ["conventional", "rp", "ppt", "pivotrepair", "fullrepair"]
)
class TestRepairAllAlgorithms:
    def test_bytes_exact(self, snapshot, algorithm):
        kw = {}
        sys_ = build_cluster(algorithm=algorithm, slice_bytes=4096)
        write_and_fail(sys_, chunk_bytes=24 * 1024)
        sys_.set_bandwidth(snapshot)
        out = sys_.repair("s1", failed_node=2, requester=10)
        assert out.verified
        assert out.elapsed_seconds > 0
        # the rebuilt chunk is now stored at the requester
        assert np.array_equal(
            sys_.nodes[10].store.get("s1", 2), out.rebuilt
        )

    def test_repair_data_chunk_matches_original_data(self, snapshot, algorithm):
        sys_ = build_cluster(algorithm=algorithm, slice_bytes=4096)
        data = write_and_fail(sys_, chunk_bytes=16 * 1024)
        sys_.set_bandwidth(snapshot)
        out = sys_.repair("s1", failed_node=2, requester=11)
        assert np.array_equal(out.rebuilt, data[2])  # systematic chunk 2


class TestTimingAgreement:
    def test_cluster_time_matches_transfer_executor(self, snapshot):
        """The event-driven data plane and the vectorised recurrence are
        the same model: elapsed == dispatch latency + transfer makespan."""
        for algorithm in ("rp", "pivotrepair", "fullrepair"):
            sys_ = build_cluster(algorithm=algorithm, slice_bytes=2048)
            write_and_fail(sys_, chunk_bytes=20 * 1024)
            sys_.set_bandwidth(snapshot)
            out = sys_.repair("s1", failed_node=2, requester=10)
            params = TransferParams(chunk_bytes=20 * 1024, slice_bytes=2048)
            expected = execute(out.plan, params).transfer_seconds
            got = out.elapsed_seconds - DISPATCH_LATENCY_S
            assert got == pytest.approx(expected, rel=0.05), algorithm

    def test_fullrepair_faster_than_rp(self, snapshot):
        times = {}
        for algorithm in ("rp", "fullrepair"):
            sys_ = build_cluster(algorithm=algorithm, slice_bytes=4096)
            write_and_fail(sys_, chunk_bytes=64 * 1024)
            sys_.set_bandwidth(snapshot)
            times[algorithm] = sys_.repair(
                "s1", failed_node=2, requester=10
            ).elapsed_seconds
        assert times["fullrepair"] < times["rp"]


class TestRepairTraffic:
    def test_conventional_moves_k_chunks(self, snapshot):
        sys_ = build_cluster(algorithm="conventional", slice_bytes=4096)
        write_and_fail(sys_, chunk_bytes=12 * 1024)
        sys_.set_bandwidth(snapshot)
        out = sys_.repair("s1", failed_node=2, requester=10)
        # the requester downloads k whole chunks (the repair penalty)
        assert out.bytes_received == sys_.code.k * 12 * 1024

    def test_pipelined_delivers_one_chunk(self, snapshot):
        sys_ = build_cluster(algorithm="rp", slice_bytes=4096)
        write_and_fail(sys_, chunk_bytes=12 * 1024)
        sys_.set_bandwidth(snapshot)
        out = sys_.repair("s1", failed_node=2, requester=10)
        assert out.bytes_received == 12 * 1024

    def test_multiple_sequential_repairs(self, snapshot):
        sys_ = build_cluster(algorithm="fullrepair", slice_bytes=4096)
        rng = np.random.default_rng(3)
        for sid in ("a", "b"):
            data = rng.integers(0, 256, (6, 8192), dtype=np.uint8)
            sys_.write_stripe(sid, data, placement=tuple(range(9)))
        sys_.fail_node(4)
        sys_.set_bandwidth(snapshot)
        out_a = sys_.repair("a", failed_node=4, requester=9)
        out_b = sys_.repair("b", failed_node=4, requester=10)
        assert out_a.verified and out_b.verified
