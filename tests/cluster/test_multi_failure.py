"""Multi-failure repair within a single stripe."""

import numpy as np
import pytest

from repro.cluster import ClusterSystem
from repro.ec import RSCode
from repro.workloads import make_trace


@pytest.fixture
def snapshot():
    return make_trace("tpcds", num_nodes=14, num_snapshots=60, seed=4).snapshot(30)


def build(n=9, k=6, algorithm="fullrepair"):
    sys_ = ClusterSystem(14, RSCode(n, k), algorithm=algorithm, slice_bytes=4096)
    rng = np.random.default_rng(2)
    data = rng.integers(0, 256, (k, 24 * 1024), dtype=np.uint8)
    sys_.write_stripe("s1", data, placement=tuple(range(n)))
    return sys_, data


class TestRepairMulti:
    @pytest.mark.parametrize("algorithm", ["fullrepair", "pivotrepair", "rp"])
    def test_double_failure_byte_exact(self, snapshot, algorithm):
        sys_, data = build(algorithm=algorithm)
        sys_.set_bandwidth(snapshot)
        sys_.fail_node(1)
        sys_.fail_node(4)
        outs = sys_.repair_multi("s1", (1, 4), {1: 10, 4: 11})
        assert set(outs) == {1, 4}
        assert all(o.verified for o in outs.values())
        assert np.array_equal(outs[1].rebuilt, data[1])
        assert np.array_equal(outs[4].rebuilt, data[4])

    def test_max_tolerable_failures(self, snapshot):
        sys_, _ = build()  # (9,6): tolerates 3
        sys_.set_bandwidth(snapshot)
        for f in (0, 3, 8):
            sys_.fail_node(f)
        outs = sys_.repair_multi("s1", (0, 3, 8), {0: 10, 3: 11, 8: 12})
        assert all(o.verified for o in outs.values())

    def test_too_many_failures_rejected(self, snapshot):
        sys_, _ = build()
        sys_.set_bandwidth(snapshot)
        for f in (0, 1, 2, 3):
            sys_.fail_node(f)
        with pytest.raises(ValueError, match="tolerates at most"):
            sys_.repair_multi("s1", (0, 1, 2, 3), {0: 10, 1: 11, 2: 12, 3: 13})

    def test_requesters_must_be_distinct(self, snapshot):
        sys_, _ = build()
        sys_.set_bandwidth(snapshot)
        sys_.fail_node(0)
        sys_.fail_node(1)
        with pytest.raises(ValueError, match="distinct"):
            sys_.repair_multi("s1", (0, 1), {0: 10, 1: 10})

    def test_alive_node_rejected(self, snapshot):
        sys_, _ = build()
        sys_.set_bandwidth(snapshot)
        sys_.fail_node(0)
        with pytest.raises(ValueError, match="must have failed"):
            sys_.repair_multi("s1", (0, 1), {0: 10, 1: 11})

    def test_requester_in_stripe_rejected(self, snapshot):
        sys_, _ = build()
        sys_.set_bandwidth(snapshot)
        sys_.fail_node(0)
        sys_.fail_node(1)
        with pytest.raises(ValueError, match="invalid requester"):
            sys_.repair_multi("s1", (0, 1), {0: 5, 1: 10})

    def test_repairs_run_concurrently(self, snapshot):
        """Both repairs complete in one queue run, overlapping in time —
        total elapsed is far below the sum of two sequential repairs."""
        sys_, _ = build()
        sys_.set_bandwidth(snapshot)
        sys_.fail_node(1)
        sys_.fail_node(4)
        outs = sys_.repair_multi("s1", (1, 4), {1: 10, 4: 11})
        concurrent = max(o.elapsed_seconds for o in outs.values())
        seq_sys, _ = build()
        seq_sys.set_bandwidth(snapshot)
        seq_sys.fail_node(1)
        a = seq_sys.repair("s1", 1, 10).elapsed_seconds
        seq_sys.fail_node(4)
        b = seq_sys.repair("s1", 4, 11).elapsed_seconds
        assert concurrent < (a + b)

    def test_chunks_stored_at_requesters(self, snapshot):
        sys_, _ = build()
        sys_.set_bandwidth(snapshot)
        sys_.fail_node(2)
        sys_.fail_node(6)
        sys_.repair_multi("s1", (2, 6), {2: 12, 6: 13})
        assert sys_.nodes[12].store.has("s1", 2)
        assert sys_.nodes[13].store.has("s1", 6)


class TestMasterDeadRequester:
    """A node the master declared dead takes no rebuilt chunk on the
    multi-chunk path, as the watched path already refuses it."""

    @pytest.fixture
    def cluster(self):
        trace = make_trace("tpcds", num_nodes=10, num_snapshots=60, seed=4)
        sys_ = ClusterSystem(10, RSCode(6, 4), slice_bytes=4096)
        rng = np.random.default_rng(2)
        data = rng.integers(0, 256, (4, 24 * 1024), dtype=np.uint8)
        sys_.write_stripe("s0", data, placement=tuple(range(6)))
        sys_.set_bandwidth(trace.snapshot(30))
        sys_.master.mark_node_dead(6)
        return sys_, data

    def test_watched_repair_refuses_it(self, cluster):
        sys_, _ = cluster
        sys_.fail_node(0)
        with pytest.raises(RuntimeError, match="requester 6 is dead"):
            sys_.repair("s0", 0, 6)

    def test_repair_node_skips_it(self, cluster):
        sys_, data = cluster
        sys_.fail_node(0)
        out = sys_.repair_node(0)["s0"]
        assert out.verified
        assert sys_.master.stripe("s0").node_of(0) == 7
        assert np.array_equal(sys_.read_chunk("s0", 0), data[0])

    def test_repair_multi_refuses_it(self, cluster):
        sys_, _ = cluster
        sys_.fail_node(0)
        sys_.fail_node(1)
        with pytest.raises(ValueError, match="invalid requester 6"):
            sys_.repair_multi("s0", (0, 1), {0: 6, 1: 7})
