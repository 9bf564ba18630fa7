"""Foreground traffic under recovery: correctness, contention, coexistence."""

import gc
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import ClusterSystem
from repro.cluster.chunkstore import ChunkStore
from repro.ec import RSCode
from repro.faults import FAILED
from repro.net import BandwidthSnapshot
from repro.recovery import (
    ForegroundTraffic,
    RecoveryConfig,
    RecoveryOrchestrator,
    run_recovery_scenario,
)
from repro.recovery.foreground import PERIOD_S

pytestmark = pytest.mark.recovery


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


def run_two_loss(with_read):
    """Two stripes lost on node 0; optionally a degraded read mid-recovery."""
    sys_, write, payloads = make_system()
    write("a", (0, 4, 5, 6))
    write("b", (0, 5, 6, 7))
    orch = RecoveryOrchestrator(
        sys_, RecoveryConfig(max_concurrent=1, budget_fraction=0.3)
    )
    orch.start()
    sys_.events.schedule(0.001, lambda: sys_.fail_node(0))
    outcomes = []
    if with_read:
        # while "a" is in flight and "b" still queued, a client reads
        # the lost chunk of "b" through the real repair machinery
        sys_.events.schedule(
            0.0015,
            lambda: sys_.repair_async(
                "b", 0, requester=2, store=False,
                bandwidth_scale=0.1, on_done=outcomes.append,
            ),
        )
    sys_.events.run()
    return sys_, orch, payloads, outcomes


class TestDegradedReadMidRecovery:
    def test_degraded_read_returns_correct_bytes(self):
        sys_, orch, payloads, outcomes = run_two_loss(with_read=True)
        assert len(outcomes) == 1
        out = outcomes[0]
        assert out.verified
        # node 0 held chunk 0 of "b" (a data chunk, k=2)
        assert np.array_equal(out.rebuilt, payloads["b"][0])
        # store=False: the read did not heal the stripe behind the
        # orchestrator's back — recovery itself repaired both stripes
        repaired = {r.stripe_id for r in orch.records if r.status != FAILED}
        assert repaired == {"a", "b"}
        assert all(r.verified for r in orch.records)

    def test_read_traffic_is_accounted(self):
        quiet = run_two_loss(with_read=False)[0]
        busy = run_two_loss(with_read=True)[0]
        assert busy.traffic_bytes > quiet.traffic_bytes

    def test_read_does_not_perturb_recovery_schedule(self):
        """The event queues interleave without changing repair outcomes."""

        def fingerprint(orch):
            return [
                (r.stripe_id, r.status, r.verified, r.admitted_at,
                 r.finished_at, r.share)
                for r in orch.records
            ]

        baseline = fingerprint(run_two_loss(with_read=False)[1])
        with_read = fingerprint(run_two_loss(with_read=True)[1])
        assert with_read == baseline


class TestHealthyLatencyContention:
    def test_committed_fraction_inflates_latency(self):
        def p_latency(orchestrator):
            sys_, write, _ = make_system()
            write("s0", (0, 1, 2, 3))
            fg = ForegroundTraffic(
                sys_, ["s0"], num_reads=10,
                seed=3, orchestrator=orchestrator,
            )
            fg.start()
            sys_.events.run()
            assert fg.done and len(fg.reads) == 10
            return [r.latency_s for r in fg.reads]

        free = p_latency(None)
        # half the bandwidth committed to repairs -> latency doubles
        contended = p_latency(SimpleNamespace(committed_fraction=0.5))
        for a, b in zip(free, contended):
            assert b == pytest.approx(2.0 * a)

    def test_no_live_reader_fails_cleanly(self):
        sys_, write, _ = make_system(num_nodes=5, n=4, k=2)
        write("s0", (0, 1, 2, 3))
        sys_.fail_node(4)
        sys_.fail_node(0)
        fg = ForegroundTraffic(sys_, ["s0"], num_reads=6, seed=0)
        fg.start()
        sys_.events.run()
        degraded = [r for r in fg.reads if r.degraded]
        assert degraded  # chunk 0 reads hit the dead node eventually
        assert all(not r.ok for r in degraded)
        assert all(
            r.failure_reason == "no live node outside the placement"
            for r in degraded
        )


    def test_a_healthy_read_without_a_reader_fails(self):
        """No live node outside the placement: a healthy read has nowhere
        to land either, and fails as a degraded one does."""
        sys_, write, _ = make_system(num_nodes=5, n=4, k=2)
        write("s0", (0, 1, 2, 3))
        sys_.fail_node(4)
        downlink = np.full(5, 500.0)
        downlink[0] = 5.0  # a reader-less read must not be timed here
        sys_.set_bandwidth(BandwidthSnapshot(np.full(5, 500.0), downlink))
        fg = ForegroundTraffic(sys_, ["s0"], num_reads=6, seed=0)
        fg.start()
        sys_.events.run()
        assert fg.done and len(fg.reads) == 6
        for read in fg.reads:
            assert not read.degraded and not read.ok
            assert read.reader == -1 and read.payload is None
            assert read.failure_reason == "no live node outside the placement"
        assert fg.bytes_read == 0


class TestScenarioCoexistence:
    def test_degraded_reads_in_scenario_are_byte_exact(self):
        # big chunks + a tight budget keep the dead node exposed long
        # enough for the read stream to hit lost chunks
        sc = run_recovery_scenario(
            num_stripes=12,
            foreground_reads=150,
            chunk_bytes=65536,
            budget_fraction=0.2,
            kills=((0, 0.001),),
            slo_latency_multiple=None,
        )
        degraded_ok = [
            r for r in sc.foreground.reads if r.degraded and r.ok
        ]
        assert degraded_ok, "scenario produced no degraded reads"
        for read in degraded_ok:
            expected = sc.payloads[read.stripe_id][read.chunk_index]
            assert np.array_equal(read.payload, expected)
        # foreground and recovery both finished on the same event queue
        assert sc.foreground.done
        assert sc.orchestrator.drained_at is not None
        summary = sc.foreground.summary()
        assert summary["ok"] == summary["recorded"] == 150
        assert summary["bytes"] == 150 * 65536


class TestServeRule:
    def test_quarantined_chunk_is_rebuilt_not_served(self):
        """A rotten copy on a live node is quarantined: reads of it take
        the degraded path and come back with the true bytes."""
        sys_, write, payloads = make_system(n=6, k=4)
        write("s0", tuple(range(6)))
        sys_.nodes[1].store.corrupt("s0", 1)
        assert sys_.quarantine_chunk("s0", 1)
        fg = ForegroundTraffic(sys_, ["s0"], num_reads=12, seed=0)
        fg.start()
        sys_.events.run()
        assert fg.done and len(fg.reads) == 12
        hits = [r for r in fg.reads if r.chunk_index == 1]
        assert hits  # the stream reads the rotten chunk
        for read in fg.reads:
            assert read.ok
            assert read.degraded == (read.chunk_index == 1)
            expected = payloads["s0"][read.chunk_index]
            assert np.array_equal(read.payload, expected)


class TestReadsHoldNoCopy:
    def test_a_recovery_with_reads_copies_no_chunk(self, monkeypatch):
        counts = {"get": 0, "get_range": 0}
        for attr in counts:
            real = getattr(ChunkStore, attr)

            def counting(*args, _real=real, _attr=attr, **kwargs):
                counts[_attr] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(ChunkStore, attr, counting)
        sc = run_recovery_scenario(
            num_stripes=12,
            foreground_reads=150,
            chunk_bytes=65536,
            budget_fraction=0.2,
            kills=((0, 0.001),),
            slo_latency_multiple=None,
        )
        summary = sc.foreground.summary()
        assert summary["ok"] == 150
        assert 0 < summary["degraded"] < 150  # both read paths ran
        assert sc.orchestrator.records  # ... beside the recovery's repairs
        assert counts == {"get": 0, "get_range": 0}
        for read in sc.foreground.reads:
            if not read.degraded:
                assert not read.payload.flags.writeable

    def test_retained_memory_does_not_grow_with_healthy_reads(self):
        """Each healthy read's record holds a view of the stored chunk,
        not a copy: 30 more reads retain less than one chunk more."""

        def retained(reads):
            gc.collect()
            tracemalloc.start()
            try:
                sc = run_recovery_scenario(
                    num_stripes=6,
                    foreground_reads=reads,
                    chunk_bytes=65536,
                    kills=(),
                    slo_latency_multiple=None,
                )
                gc.collect()
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert sc.foreground.summary()["recorded"] == reads
            assert not any(r.degraded for r in sc.foreground.reads)
            return held

        retained(5)  # warm the kernel tables and caches
        few, many = retained(10), retained(40)
        assert abs(many - few) < 65536


class TestConstruction:
    @pytest.mark.parametrize(
        "stripes, kwargs, message",
        [
            (["s0"], {"num_reads": -1}, "num_reads"),
            ([], {}, "at least one stripe"),
        ],
    )
    def test_bad_arguments_rejected(self, stripes, kwargs, message):
        sys_, _, _ = make_system()
        with pytest.raises(ValueError, match=message):
            ForegroundTraffic(sys_, stripes, **kwargs)

    def test_reads_are_issued_one_period_apart(self):
        sys_, write, _ = make_system()
        write("s0", (0, 1, 2, 3))
        fg = ForegroundTraffic(sys_, ["s0"], num_reads=5, seed=0)
        fg.start()
        sys_.events.run()
        assert fg.done
        assert [r.t for r in fg.reads] == pytest.approx(
            [PERIOD_S * (i + 1) for i in range(5)]
        )

    def test_start_is_idempotent(self):
        sys_, write, _ = make_system()
        write("s0", (0, 1, 2, 3))
        fg = ForegroundTraffic(sys_, ["s0"], num_reads=3)
        fg.start()
        fg.start()
        sys_.events.run()
        assert fg.summary()["issued"] == 3
