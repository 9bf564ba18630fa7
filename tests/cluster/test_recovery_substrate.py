"""Substrate the recovery orchestrator stands on: structured node-repair
failures, the node->stripes index, and the async repair primitives."""

import numpy as np
import pytest

from repro.cluster import ClusterSystem, FileStore
from repro.cluster.system import ESCALATION_MARK
from repro.ec import RSCode
from repro.faults import ESCALATED, FAILED
from repro.net import BandwidthSnapshot
from repro.obs import Tracer


def make_system(num_nodes=8, n=4, k=2, chunk=4096, mbps=500.0, seed=0):
    sys_ = ClusterSystem(num_nodes, RSCode(n, k), slice_bytes=2048)
    sys_.set_bandwidth(BandwidthSnapshot.uniform(num_nodes, mbps))
    rng = np.random.default_rng(seed)
    payloads = {}

    def write(sid, placement):
        data = rng.integers(0, 256, (k, chunk), dtype=np.uint8)
        sys_.write_stripe(sid, data, placement=placement)
        payloads[sid] = data

    return sys_, write, payloads


class TestRepairNodeStructuredFailure:
    def test_helper_death_mid_batch_yields_per_stripe_failed_outcome(self):
        # k=3 needs all three surviving chunks of "bad"; killing helper 4
        # mid-transfer starves that assembly while "good" (whose helpers
        # are 1,2,3) streams on — the batch must degrade per stripe, not
        # abort with a bare RuntimeError
        sys_, write, payloads = make_system(
            n=4, k=3, chunk=64 * 1024, mbps=100.0
        )
        write("good", (0, 1, 2, 3))
        write("bad", (0, 4, 5, 6))
        sys_.fail_node(0)
        sys_.events.schedule(0.0002, lambda: sys_.fail_node(4))
        outcomes = sys_.repair_node(0, {"good": 7, "bad": 7})
        assert set(outcomes) == {"good", "bad"}
        bad = outcomes["bad"]
        assert bad.status == FAILED
        assert not bad.verified
        assert bad.rebuilt is None
        assert bad.failure_reason.startswith("batched repair incomplete: ")
        assert f"of {64 * 1024} bytes arrived" in bad.failure_reason
        good = outcomes["good"]
        assert good.verified
        assert np.array_equal(good.rebuilt, payloads["good"][0])


class TestRepairNodeRequesterCheck:
    """``repair_node`` checks every requester as ``repair_multi`` does,
    before anything is planned or any event runs."""

    def make(self):
        sys_, write, _ = make_system(num_nodes=10, n=6, k=4)
        write("s0", (0, 1, 2, 3, 4, 5))
        write("s1", (0, 6, 7, 8, 9, 1))
        sys_.fail_node(0)
        return sys_

    def test_a_dead_requester_is_refused(self):
        sys_ = self.make()
        sys_.fail_node(7)
        executed = sys_.events.executed
        with pytest.raises(ValueError, match="invalid requester 7 for s0"):
            sys_.repair_node(0, {"s0": 7, "s1": 2})
        assert sys_.events.executed == executed

    def test_a_requester_inside_the_placement_is_refused(self):
        sys_ = self.make()
        with pytest.raises(ValueError, match="invalid requester 3 for s0"):
            sys_.repair_node(0, {"s0": 3})
        with pytest.raises(ValueError, match="invalid requester 3 for failed node 0"):
            sys_.repair_multi("s0", (0,), {0: 3})

    def test_a_requester_rebuilding_another_chunk_is_refused(self):
        sys_ = self.make()
        sys_.fail_node(1)
        sys_.repair_multi_async("s0", (0, 1), {0: 8, 1: 6}, on_done=lambda o: None)
        with pytest.raises(ValueError, match="node 6 already rebuilds chunk 1 of s0"):
            sys_.repair_node(0, {"s0": 6, "s1": 2})

    def test_valid_requesters_still_repair(self):
        sys_ = self.make()
        outcomes = sys_.repair_node(0, {"s0": 8, "s1": 2})
        assert {sid: o.verified for sid, o in outcomes.items()} == {
            "s0": True, "s1": True,
        }


class TestNodeStripesIndex:
    def make_populated(self, num_stripes=40):
        sys_, write, _ = make_system(num_nodes=10)
        rng = np.random.default_rng(42)
        for s in range(num_stripes):
            placement = tuple(
                int(x) for x in rng.choice(10, size=4, replace=False)
            )
            write(f"s{s:02d}", placement)
        return sys_

    def brute_force(self, sys_, node):
        return sorted(
            sid
            for sid in sys_.master.stripe_ids()
            if node in sys_.master.stripe(sid).placement
        )

    def test_index_matches_placement_scan(self):
        sys_ = self.make_populated()
        for node in range(sys_.num_nodes):
            assert sys_.stripes_on(node) == self.brute_force(sys_, node)

    def test_index_follows_relocation(self):
        sys_ = self.make_populated(num_stripes=12)
        moved = 0
        for sid in sys_.master.stripe_ids():
            loc = sys_.master.stripe(sid)
            spare = next(
                n for n in range(sys_.num_nodes) if n not in loc.placement
            )
            sys_.master.relocate_chunk(sid, 0, spare)
            moved += 1
        assert moved == 12
        for node in range(sys_.num_nodes):
            assert sys_.stripes_on(node) == self.brute_force(sys_, node)

    def test_index_survives_reregistration(self):
        sys_, write, _ = make_system()
        write("s0", (0, 1, 2, 3))
        write("s0", (4, 5, 6, 7))  # re-register elsewhere
        assert sys_.stripes_on(0) == []
        assert sys_.stripes_on(4) == ["s0"]

    def test_affected_files_uses_both_index_hops(self):
        sys_, _, _ = make_system(num_nodes=10)
        store = FileStore(sys_, chunk_bytes=2048)
        rng = np.random.default_rng(7)
        for name in ("alpha", "beta", "gamma"):
            store.write(name, rng.integers(0, 256, 3 * 4096, dtype=np.uint8))
        for node in range(sys_.num_nodes):
            expected = sorted(
                {
                    name
                    for name in store.files()
                    for sid in store.stripes_of(name)
                    if node in sys_.master.stripe(sid).placement
                }
            )
            assert store.affected_files(node) == expected


#: RepairOutcome fields the blocking and non-blocking entry points must
#: agree on for the same cluster history
TWIN_FIELDS = (
    "status", "attempts", "retries", "replans", "elapsed_seconds",
    "bytes_received", "bytes_retransferred", "verified", "failure_reason",
)


def twin_clusters(failed=(0,), algorithm="fullrepair"):
    """Two identical (9,6) clusters, one per entry-point family."""
    pair = []
    for _ in range(2):
        sys_ = ClusterSystem(
            12, RSCode(9, 6), slice_bytes=4096, algorithm=algorithm
        )
        sys_.set_bandwidth(BandwidthSnapshot.uniform(12, 200.0))
        rng = np.random.default_rng(3)
        sys_.write_stripe(
            "s0", rng.integers(0, 256, (6, 256 * 1024), dtype=np.uint8)
        )
        for f in failed:
            sys_.fail_node(f)
        pair.append(sys_)
    return pair


def assert_twins_agree(blocking, non_blocking, a, b):
    for name in TWIN_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    assert blocking.events.executed == non_blocking.events.executed


#: fault name -> (arm(system), check(outcome) proving the fault bit)
TWIN_FAULTS = {
    "clean": (
        lambda s: None,
        lambda o: o.verified and o.retries == 0,
    ),
    "helper-crash": (
        lambda s: s.events.schedule(0.004, lambda: s.fail_node(3)),
        lambda o: o.verified and o.retries == 1 and o.replans == 1,
    ),
    "requester-crash": (
        lambda s: s.events.schedule(0.004, lambda: s.fail_node(10)),
        lambda o: o.status == FAILED and "requester" in o.failure_reason,
    ),
    "straggler": (
        lambda s: s.events.schedule(0.002, lambda: s.set_rate_cap(2, 1.0)),
        lambda o: o.verified and o.elapsed_seconds > 0.1,
    ),
    "corrupt-wire": (
        lambda s: s.events.schedule(
            0.002, lambda: s.corrupt_wire(4, 0.003, seed=1)
        ),
        lambda o: o.verified and o.corruption_detected,
    ),
}


class TestAsyncPrimitives:
    def test_concurrent_repairs_of_same_chunk_get_unique_ids(self):
        sys_, write, payloads = make_system()
        write("s0", (0, 4, 5, 6))
        sys_.fail_node(0)
        done = []
        ids = [
            sys_.repair_async(
                "s0", 0, requester=r, store=False, on_done=done.append
            )
            for r in (1, 2, 3)
        ]
        assert len(set(ids)) == 3
        sys_.events.run()
        assert len(done) == 3
        assert all(o.verified for o in done)
        for o in done:
            assert np.array_equal(o.rebuilt, payloads["s0"][0])

    def test_slow_degraded_read_survives_concurrent_relocation(self):
        # a store=True repair relocates the chunk off node 0 while a
        # slower store=False degraded read of the same chunk is still in
        # flight; the read must settle against its dispatch-time
        # placement, not crash on the relocated one
        sys_, write, payloads = make_system()
        write("s0", (0, 4, 5, 6))
        sys_.fail_node(0)
        done = []
        sys_.repair_async(
            "s0", 0, requester=2, store=False,
            bandwidth_scale=0.05, on_done=done.append,
        )
        sys_.repair_async(
            "s0", 0, requester=1, store=True,
            bandwidth_scale=1.0, on_done=done.append,
        )
        sys_.events.run()
        assert len(done) == 2
        assert sys_.master.stripe("s0").placement[0] == 1  # relocated
        for outcome in done:
            assert outcome.verified
            assert np.array_equal(outcome.rebuilt, payloads["s0"][0])

    def test_multi_repair_deadline_returns_failed_outcomes(self):
        # the transfer needs ~ms at 1 Mbps; a 50 us deadline must expire
        # first and surface FAILED outcomes instead of hanging
        sys_, write, _ = make_system(chunk=64 * 1024, mbps=1.0)
        write("s0", (0, 1, 5, 6))
        sys_.fail_node(0)
        sys_.fail_node(1)
        results = []
        sys_.repair_multi_async(
            "s0", (0, 1), {0: 2, 1: 3},
            deadline_s=0.00005, on_done=results.append,
        )
        sys_.events.run()
        assert len(results) == 1
        outcomes = results[0]
        assert set(outcomes) == {0, 1}
        for outcome in outcomes.values():
            assert outcome.status == FAILED
            assert not outcome.verified
            assert "deadline" in outcome.failure_reason

    @pytest.mark.parametrize("fault", sorted(TWIN_FAULTS))
    def test_repair_matches_repair_async(self, fault):
        arm, bit = TWIN_FAULTS[fault]
        blocking, non_blocking = twin_clusters()
        arm(blocking)
        arm(non_blocking)
        a = blocking.repair(
            "s0", 0, requester=10, on_failure="outcome", store=False
        )
        done = []
        non_blocking.repair_async(
            "s0", 0, requester=10, store=False, on_done=done.append
        )
        non_blocking.events.run()
        (b,) = done
        assert bit(a), a
        assert_twins_agree(blocking, non_blocking, a, b)

    def test_repair_multi_matches_repair_multi_async(self):
        blocking, non_blocking = twin_clusters(failed=(0, 1))
        for sys_ in (blocking, non_blocking):
            sys_.events.schedule(
                0.002, lambda s=sys_: s.set_rate_cap(4, 5.0)
            )
        a = blocking.repair_multi("s0", (0, 1), {0: 10, 1: 11})
        done = []
        non_blocking.repair_multi_async(
            "s0", (0, 1), {0: 10, 1: 11}, on_done=done.append
        )
        non_blocking.events.run()
        (b,) = done
        assert set(a) == set(b) == {0, 1}
        for f in (0, 1):
            assert a[f].verified
            assert_twins_agree(blocking, non_blocking, a[f], b[f])
        assert (
            blocking.master.stripe("s0").placement
            == non_blocking.master.stripe("s0").placement
        )

    def test_second_loss_escalates_inline_but_bounces_when_non_blocking(self):
        # the one documented difference: a blocking repair may nest the
        # multi-chunk repair, a non-blocking one must hand the stripe back
        blocking, non_blocking = twin_clusters(algorithm="conventional")
        probe = blocking.master.schedule_repair("s0", 0, requester=10)
        participants = {e.child for p in probe.pipelines for e in p.edges}
        bystander = next(n for n in range(1, 9) if n not in participants)
        for sys_ in (blocking, non_blocking):
            sys_.events.schedule(
                0.004, lambda s=sys_: s.fail_node(bystander)
            )
        a = blocking.repair("s0", 0, requester=10, on_failure="outcome")
        done = []
        non_blocking.repair_async("s0", 0, requester=10, on_done=done.append)
        non_blocking.events.run()
        (b,) = done
        assert a.status == ESCALATED and a.verified
        assert b.status == FAILED and not b.verified
        assert ESCALATION_MARK in b.failure_reason
        assert b.elapsed_seconds == pytest.approx(0.004)
        assert not non_blocking._assemblies and not non_blocking._wire_assembly


class TestRepairMultiStall:
    def test_stalled_call_leaves_no_assembly_or_open_span_behind(self):
        # (5,3) with nodes 0,1 lost needs all three survivors; killing
        # helper 2 mid-transfer starves both chunks: each comes back as a
        # failed outcome, and neither stays registered
        tracer = Tracer()
        sys_ = ClusterSystem(8, RSCode(5, 3), slice_bytes=2048, tracer=tracer)
        sys_.set_bandwidth(BandwidthSnapshot.uniform(8, 100.0))
        rng = np.random.default_rng(0)
        sys_.write_stripe(
            "a", rng.integers(0, 256, (3, 64 * 1024), dtype=np.uint8),
            placement=(0, 1, 2, 3, 4),
        )
        sys_.fail_node(0)
        sys_.fail_node(1)
        sys_.events.schedule(0.0002, lambda: sys_.fail_node(2))
        outcomes = sys_.repair_multi("a", (0, 1), {0: 5, 1: 6})
        assert list(outcomes) == [0, 1]
        for outcome in outcomes.values():
            assert outcome.status == FAILED and outcome.rebuilt is None
            assert outcome.failure_reason.startswith(
                "batched repair incomplete: "
            )
        assert sys_.master.stripe("a").placement == (0, 1, 2, 3, 4)
        assert sys_._assemblies == {}
        assert sys_._wire_assembly == {}
        assert sys_.obs._pipeline_spans == {} and sys_.obs._open == {}
        assert [s.name for s in tracer.spans() if s.end is None] == []

    def test_a_starved_chunk_fails_while_its_sibling_settles(self):
        # requester 6 downloads at a tenth of requester 5's rate, so
        # chunk 0 has landed when helper 2 crashes and starves chunk 1:
        # chunk 0 is persisted and relocated, chunk 1 fails on its own
        sys_, write, payloads = make_system(chunk=64 * 1024, mbps=100.0)
        downlink = np.full(8, 100.0)
        downlink[6] = 10.0
        sys_.set_bandwidth(BandwidthSnapshot(np.full(8, 100.0), downlink))
        write("s0", (0, 1, 2, 3))
        sys_.fail_node(0)
        sys_.fail_node(1)
        sys_.events.schedule(0.05, lambda: sys_.fail_node(2))
        outcomes = sys_.repair_multi("s0", (0, 1), {0: 5, 1: 6})
        assert outcomes[0].verified and outcomes[0].elapsed_seconds < 0.05
        assert np.array_equal(outcomes[0].rebuilt, payloads["s0"][0])
        assert outcomes[1].status == FAILED
        assert sys_.master.stripe("s0").placement == (5, 1, 2, 3)
        assert sys_._assemblies == {}


def test_orchestrator_matches_the_marker_the_cluster_writes():
    from repro.cluster import system
    from repro.recovery import orchestrator

    assert orchestrator.ESCALATION_MARK is system.ESCALATION_MARK
