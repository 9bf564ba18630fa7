"""Fault branches a line-execution audit found no test reaching.

Each scenario drives the branch from an injected fault, end to end: the
degradation ladder's star-fallback rung and its ``RepairImpossibleError``
floor, the three post-repair verification verdicts beyond ok / retry
(``unverifiable``, healed from surplus parity, not localizable), a
rotten chunk and a torn write under the multi-chunk settle path, the lease
false-positive rejoin, the ``on_failure`` contract of a repair that
fails without escalating, and the trace / metric record of a read-path
rot and a torn write.  ``tools/unexecuted.py`` keeps the list.
"""

import numpy as np
import pytest

from repro.faults import COMPLETED, DEGRADED, FAILED
from repro.net import BandwidthSnapshot
from repro.obs import MetricsRegistry, Tracer

from tests.integrity.conftest import N, NUM_NODES as NODES, build_system

LOST, REQUESTER = 3, 12


def build(algorithm="fullrepair", *, uplink=None, downlink=None, **obs):
    """The integrity suite's RS(9, 6) stripe ``s0`` on nodes 0..8 of 14,
    optionally under another algorithm or a degenerate bandwidth picture."""
    system, _, _ = build_system(algorithm=algorithm, **obs)
    if uplink is not None or downlink is not None:
        snapshot = system.master.snapshot()
        system.set_bandwidth(
            BandwidthSnapshot(
                uplink=snapshot.uplink if uplink is None else uplink,
                downlink=snapshot.downlink if downlink is None else downlink,
            )
        )
    return system


def verify_verdicts(tracer):
    return [
        e.attrs["result"] for e in tracer.all_events() if e.name == "integrity.verify"
    ]


class TestDegradationLadderFloor:
    def test_star_fallback_when_the_algorithm_cannot_plan(self):
        """RP needs helper-to-helper links; with every helper downlink
        dead only the star (helpers -> requester) is feasible."""
        downlink = np.full(NODES, 500.0)
        downlink[:N] = 0.0
        tracer, metrics = Tracer(), MetricsRegistry()
        system = build("rp", downlink=downlink, tracer=tracer, metrics=metrics)
        original = system.read_chunk("s0", LOST).copy()
        system.fail_node(LOST)
        out = system.repair("s0", LOST, REQUESTER)
        assert out.status == DEGRADED and out.verified
        assert np.array_equal(out.rebuilt, original)
        assert out.plan.algorithm == "conventional"
        assert out.plan.meta["recovery"] == "star-fallback"
        assert metrics.total("repro_ladder_total") == 1
        assert [e.name for e in tracer.all_events() if e.name.startswith("ladder.")] == [
            "ladder.star-fallback"
        ]

    def test_no_rung_left_is_an_explicit_verdict(self):
        """No helper has any uplink: the algorithm and the star both fail."""
        system = build("rp", uplink=np.zeros(NODES))
        system.fail_node(LOST)
        out = system.repair("s0", LOST, REQUESTER, on_failure="outcome")
        assert out.status == FAILED and out.rebuilt is None and out.attempts == 1
        assert out.failure_reason.startswith("planning failed: no feasible plan")

    def test_unescalated_failure_raises_by_default(self):
        system = build("rp", uplink=np.zeros(NODES))
        system.fail_node(LOST)
        with pytest.raises(RuntimeError, match="failed after 1 attempts: planning"):
            system.repair("s0", LOST, REQUESTER)

    def test_on_failure_is_validated_before_anything_runs(self):
        system = build()
        system.fail_node(LOST)
        with pytest.raises(ValueError, match="on_failure"):
            system.repair("s0", LOST, REQUESTER, on_failure="ignore")
        assert system.events.executed == 0


class TestPostRepairVerdicts:
    def test_unverifiable_when_a_scrub_quarantines_helpers_mid_repair(self):
        """Quarantine is metadata: the streaming repair finishes, but
        fewer than k clean chunks are left to check it against."""
        probe = build()
        probe.fail_node(LOST)
        clean = probe.repair("s0", LOST, REQUESTER, store=False)
        tracer, metrics = Tracer(), MetricsRegistry()
        system = build(tracer=tracer, metrics=metrics)
        original = system.read_chunk("s0", LOST).copy()
        system.fail_node(LOST)

        def scrub_verdicts():
            for chunk in (6, 7, 8):
                system.quarantine_chunk("s0", chunk, kind="scrub")

        system.events.schedule(0.5 * clean.elapsed_seconds, scrub_verdicts)
        out = system.repair("s0", LOST, REQUESTER, on_failure="outcome")
        assert out.status == COMPLETED and out.attempts == 1
        assert verify_verdicts(tracer) == ["unverifiable"]
        assert np.array_equal(out.rebuilt, original)
        # the byte oracle (the dead node's copy) still vouches for it
        assert out.verified

    def test_healed_from_surplus_parity_when_attempts_are_spent(self):
        """A helper rotted silently (digest intact) and there is no
        attempt left to repair again without it: the clean chunks pin
        the true value."""
        tracer, metrics = Tracer(), MetricsRegistry()
        system = build(tracer=tracer, metrics=metrics)
        original = system.read_chunk("s0", LOST).copy()
        system.fail_node(LOST)
        assert system.corrupt_chunk(5, "s0", 5, fix_digest=True)
        out = system.repair(
            "s0", LOST, REQUESTER, max_attempts=1, on_failure="outcome"
        )
        assert out.status == DEGRADED and out.verified
        assert np.array_equal(out.rebuilt, original)
        assert out.corruption_detected and out.quarantined_chunks == (5,)
        assert verify_verdicts(tracer) == ["healed"]
        assert metrics.total("repro_integrity_healed_total") == 1
        assert system.master.is_quarantined("s0", 5)

    def test_two_silent_rots_cannot_be_localized(self):
        def rotten():
            system = build(tracer=Tracer())
            system.fail_node(LOST)
            system.corrupt_chunk(5, "s0", 5, fix_digest=True, seed=1)
            system.corrupt_chunk(6, "s0", 6, fix_digest=True, seed=2)
            return system

        system = rotten()
        out = system.repair("s0", LOST, REQUESTER, on_failure="outcome")
        assert out.status == FAILED and out.rebuilt is None
        assert "could not be localized" in out.failure_reason
        assert out.corruption_detected and out.quarantined_chunks == ()
        assert verify_verdicts(system.tracer) == ["failed"]
        with pytest.raises(RuntimeError, match="could not be localized"):
            rotten().repair("s0", LOST, REQUESTER)


class TestRotUnderMultiChunkRepair:
    LOST = (3, 4)
    REQUESTERS = {3: 12, 4: 13}

    def failed(self, algorithm="fullrepair", **obs):
        system = build(algorithm, **obs)
        for node in self.LOST:
            system.fail_node(node)
        return system

    def repair(self, system, entry):
        """The outcomes of one blocking or non-blocking multi-chunk call."""
        if entry == "repair_multi":
            return system.repair_multi("s0", self.LOST, self.REQUESTERS)
        done = []
        system.repair_multi_async(
            "s0", self.LOST, self.REQUESTERS, on_done=done.append
        )
        system.events.run()
        (outs,) = done
        return outs

    def test_rot_outside_the_plan_is_quarantined_and_the_chunk_kept(self):
        twin = self.failed("conventional").repair_multi(
            "s0", self.LOST, self.REQUESTERS
        )
        read = {
            e.child for o in twin.values() for p in o.plan.pipelines for e in p.edges
        }
        (spare,) = set(range(N)) - set(self.LOST) - read
        metrics = MetricsRegistry()
        system = self.failed("conventional", metrics=metrics)
        assert system.corrupt_chunk(spare, "s0", spare)
        outs = system.repair_multi("s0", self.LOST, self.REQUESTERS)
        assert all(o.status == COMPLETED and o.verified for o in outs.values())
        # the first settle finds and quarantines it; the second no longer sees it
        assert [o.quarantined_chunks for o in outs.values()] == [(spare,), ()]
        assert [o.corruption_detected for o in outs.values()] == [True, False]
        assert system.master.quarantined_chunks("s0") == (spare,)
        assert metrics.total("repro_integrity_verifications_total") == 1

    @pytest.mark.parametrize("entry", ("repair_multi", "repair_multi_async"))
    def test_silent_rot_in_a_helper_is_a_failed_verdict(self, entry):
        """k + 1 survivors prove the stripe inconsistent but cannot say
        which chunk lies: nothing is persisted, nothing quarantined."""
        system = self.failed()
        assert system.corrupt_chunk(5, "s0", 5, fix_digest=True)
        for out in self.repair(system, entry).values():
            assert out.status == FAILED and out.rebuilt is None
            assert out.failure_reason == "rebuilt chunk failed integrity verification"
            assert out.corruption_detected and out.quarantined_chunks == ()
        assert system.master.stripe("s0").placement == tuple(range(N))

    @pytest.mark.parametrize("entry", ("repair_multi", "repair_multi_async"))
    def test_rot_inside_the_plan_fails_the_chunk(self, entry):
        """A helper the plan reads refuses its rotten chunk at assign
        time.  With no watchdog to re-plan, each chunk reading it comes
        back failed with the chunk quarantined, instead of a slice
        stranding on a helper that holds no task."""
        plans = [o.plan for o in self.repair(self.failed(), entry).values()]
        victim = min(
            set.intersection(
                *({e.child for p in plan.pipelines for e in p.edges} for plan in plans)
            )
        )
        system = self.failed()
        assert system.corrupt_chunk(victim, "s0", victim)
        for out in self.repair(system, entry).values():
            assert out.status == FAILED and out.rebuilt is None
            assert out.failure_reason == (
                f"helper chunk {victim} failed digest verification on node {victim}"
            )
            assert out.corruption_detected and out.quarantined_chunks == (victim,)
        assert system.master.quarantined_chunks("s0") == (victim,)
        assert system.master.stripe("s0").placement == tuple(range(N))

    @pytest.mark.parametrize("entry", ("repair_multi", "repair_multi_async"))
    def test_torn_write_is_caught_on_readback(self, entry):
        """The settle-time readback docs/INTEGRITY.md promises: a chunk
        torn on its way to disk is re-put from the buffer and reported."""
        system = build()
        originals = {n: system.read_chunk("s0", n).copy() for n in (1, 4)}
        for node in (1, 4):
            system.fail_node(node)
        system.arm_torn_write(10)
        requesters = {1: 10, 4: 11}
        if entry == "repair_multi":
            outs = system.repair_multi("s0", (1, 4), requesters)
        else:
            done = []
            system.repair_multi_async(
                "s0", (1, 4), requesters, on_done=done.append
            )
            system.events.run()
            (outs,) = done
        assert outs[1].verified and outs[1].corruption_detected
        assert not outs[4].corruption_detected
        assert system.nodes[10].store.verify("s0", 1)
        for node in (1, 4):
            assert np.array_equal(system.read_chunk("s0", node), originals[node])


def test_lease_false_positive_rejoins_on_the_next_report():
    """A live bystander's reports are lost for four heartbeat periods:
    the master declares it dead, and its next report heals the belief."""
    bystander = 10
    system = build(uplink=np.full(NODES, 20.0), downlink=np.full(NODES, 20.0))
    system.fail_node(LOST)
    system.enable_heartbeats(period_s=0.001)
    system.suppress_reports(bystander, 0.0045)
    believed_dead = []
    system.events.schedule(
        0.0042, lambda: believed_dead.append(system.master.is_node_dead(bystander))
    )
    out = system.repair("s0", LOST, REQUESTER)
    assert out.status == COMPLETED and out.verified
    assert out.elapsed_seconds > 0.007  # the repair outlived the outage
    assert believed_dead == [True]
    assert not system.master.is_node_dead(bystander)
    assert system.master.dead_nodes() == (LOST,)


def test_read_path_rot_and_torn_write_are_traced_and_counted():
    """The two detections that heal inside one repair leave a record:
    a helper failing its digest at read, a torn write caught on readback."""
    tracer, metrics = Tracer(), MetricsRegistry()
    system = build(tracer=tracer, metrics=metrics)
    original = system.read_chunk("s0", LOST).copy()
    system.fail_node(LOST)
    assert system.corrupt_chunk(5, "s0", 5)
    system.arm_torn_write(REQUESTER)
    out = system.repair("s0", LOST, REQUESTER)
    assert out.verified and out.corruption_detected
    assert out.quarantined_chunks == (5,) and out.retries == 1
    assert np.array_equal(system.read_chunk("s0", LOST), original)
    names = [e.name for e in tracer.all_events()]
    assert names.count("integrity.bad_chunk") == 1
    assert names.count("integrity.torn_write") == 1
    detected = metrics.snapshot()["repro_integrity_corruption_detected_total"]
    assert detected[(("kind", "read"),)] == 1
    assert detected[(("kind", "torn-write"),)] == 1
