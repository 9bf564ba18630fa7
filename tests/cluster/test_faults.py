"""Fault-tolerant repair execution: the mid-repair failure matrix.

Crashes and stalls are injected at controlled points of a running
repair ({before first byte, mid-segment, last segment} for each of
{hub crash, non-hub helper crash, requester-side stall}) and every case
must end with a byte-exact decode.  Also covers the traffic advantage of
remainder re-planning over restart-from-scratch, multi-chunk
escalation, explicit failure verdicts, outcome reporting, and the
remainder-interval bookkeeping helpers.
"""

import numpy as np
import pytest

from repro.analysis import render_fault_report, summarize_outcomes
from repro.cluster import ClusterSystem
from repro.ec import RSCode
from repro.faults import (
    COMPLETED,
    DEGRADED,
    ESCALATED,
    FAILED,
    Crash,
    FaultInjector,
    Stall,
)
from repro.repair.recovery import (
    intervals_length,
    merge_intervals,
    uncovered_intervals,
)
from repro.workloads import make_trace

REQUESTER = 12
FAILED_NODE = 3
CHUNK = 64 * 1024


@pytest.fixture(scope="module")
def snapshot():
    return make_trace("tpcds", num_nodes=14, num_snapshots=60, seed=4).snapshot(30)


def build(algorithm="fullrepair", num_nodes=14, **kw):
    return ClusterSystem(num_nodes, RSCode(9, 6), algorithm=algorithm,
                         slice_bytes=4096, **kw)


def write(system, chunk=CHUNK, seed=2):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (6, chunk), dtype=np.uint8)
    system.write_stripe("s1", data, placement=tuple(range(9)))
    return data


def fresh_repair_system(snapshot, algorithm="fullrepair"):
    sys_ = build(algorithm)
    data = write(sys_)
    sys_.set_bandwidth(snapshot)
    sys_.fail_node(FAILED_NODE)
    return sys_, data


@pytest.fixture(scope="module")
def clean(snapshot):
    """A clean reference run: plan, elapsed time, total traffic."""
    sys_, data = fresh_repair_system(snapshot)
    out = sys_.repair("s1", FAILED_NODE, requester=REQUESTER, store=False)
    assert out.status == COMPLETED and out.verified
    hubs, leaves = set(), set()
    for p in out.plan.pipelines:
        parents = {e.parent for e in p.edges}
        for e in p.edges:
            if e.parent == REQUESTER and e.child in parents:
                hubs.add(e.child)
        for e in p.edges:
            if e.child not in parents:
                leaves.add(e.child)
    leaves -= hubs
    assert hubs and leaves, "expected a depth-2 multi-pipeline plan"
    return {
        "plan": out.plan,
        "elapsed": out.elapsed_seconds,
        "traffic": sys_.traffic_bytes,
        "hub": min(hubs),
        "leaf": min(leaves),
        "data": data,
    }


class TestFailureMatrix:
    """{hub crash, helper crash, requester stall} x {start, mid, end}."""

    WHEN = {"before-first-byte": 1e-6, "mid-segment": 0.5, "last-segment": 0.95}

    @pytest.mark.parametrize("role", ["hub", "leaf"])
    @pytest.mark.parametrize("when", list(WHEN))
    def test_crash_mid_repair_decodes_byte_exact(self, snapshot, clean, role, when):
        t = self.WHEN[when]
        at = t if t < 1e-3 else t * clean["elapsed"]
        sys_, data = fresh_repair_system(snapshot)
        inj = FaultInjector([Crash(node=clean[role], time=at)])
        out = sys_.repair(
            "s1", FAILED_NODE, requester=REQUESTER, injector=inj, store=False
        )
        assert out.verified
        assert np.array_equal(out.rebuilt, data[FAILED_NODE])
        assert out.status in (COMPLETED, DEGRADED)
        assert inj.log.fired or at > clean["elapsed"]

    @pytest.mark.parametrize("when", list(WHEN))
    def test_requester_stall_decodes_byte_exact(self, snapshot, clean, when):
        t = self.WHEN[when]
        at = t if t < 1e-3 else t * clean["elapsed"]
        sys_, data = fresh_repair_system(snapshot)
        inj = FaultInjector([Stall(node=REQUESTER, time=at, duration_s=0.04)])
        out = sys_.repair(
            "s1", FAILED_NODE, requester=REQUESTER, injector=inj, store=False
        )
        assert out.verified
        assert np.array_equal(out.rebuilt, data[FAILED_NODE])
        # a stall is transient: the repair must finish after it clears,
        # whether or not the watchdog chose to retry
        assert out.status in (COMPLETED, DEGRADED)

    def test_crash_recovery_replans_remainder(self, snapshot, clean):
        sys_, data = fresh_repair_system(snapshot)
        sys_.events.schedule(
            0.5 * clean["elapsed"], lambda: sys_.fail_node(clean["hub"])
        )
        out = sys_.repair(
            "s1", FAILED_NODE, requester=REQUESTER, store=False,
        )
        assert out.verified and out.attempts >= 2
        assert out.retries >= 1 and out.replans >= 1
        final_participants = {
            e.child for p in out.plan.pipelines for e in p.edges
        }
        assert clean["hub"] not in final_participants


class TestTrafficAccounting:
    def test_remainder_replan_beats_restart_from_scratch(self, snapshot, clean):
        sys_, _ = fresh_repair_system(snapshot)
        sys_.events.schedule(
            0.5 * clean["elapsed"], lambda: sys_.fail_node(clean["hub"])
        )
        out = sys_.repair(
            "s1", FAILED_NODE, requester=REQUESTER, store=False,
        )
        assert out.verified
        faulted = sys_.traffic_bytes
        # restart-from-scratch baseline: everything the aborted first
        # attempt moved, plus a full clean repair on top
        aborted = fresh_repair_system(snapshot)[0]
        aborted.events.schedule(
            0.5 * clean["elapsed"], lambda: aborted.fail_node(clean["hub"])
        )
        failed = aborted.repair(
            "s1", FAILED_NODE, requester=REQUESTER, store=False,
            max_attempts=1, on_failure="outcome",
        )
        assert failed.status == FAILED
        restart = aborted.traffic_bytes + clean["traffic"]
        # remainder re-planning re-fetches only the unfinished suffix:
        assert clean["traffic"] < faulted < restart

    def test_clean_repair_traffic_matches_outcome(self, snapshot):
        sys_, _ = fresh_repair_system(snapshot)
        out = sys_.repair("s1", FAILED_NODE, requester=REQUESTER, store=False)
        assert out.retries == 0 and out.bytes_retransferred == 0
        assert sys_.traffic_bytes >= out.bytes_received > 0


class TestEscalation:
    def test_second_chunk_loss_escalates_to_multi(self, snapshot):
        # conventional repair uses exactly k of the 8 surviving placement
        # nodes, so some placement node is not a participant; losing it
        # mid-repair is invisible to the running plan and must escalate.
        sys_, data = fresh_repair_system(snapshot, algorithm="conventional")
        probe = sys_.master.schedule_repair(
            "s1", FAILED_NODE, requester=REQUESTER
        )
        participants = {e.child for p in probe.pipelines for e in p.edges}
        bystander = next(
            n for n in sys_.master.stripe("s1").placement
            if n != FAILED_NODE and n not in participants
        )
        sys_.events.schedule(1e-4, lambda: sys_.fail_node(bystander))
        out = sys_.repair(
            "s1", FAILED_NODE, requester=REQUESTER,
        )
        assert out.status == ESCALATED
        assert out.verified
        assert out.replans >= 1

    def test_escalation_keeps_the_verdict_of_the_attempt_it_replaces(
        self, snapshot
    ):
        # chunk 0 fails its digest at read (quarantined, attempt 1
        # aborted), then a bystander crash escalates: the escalated
        # outcome still reports the rot the aborted attempt found
        sys_ = build("conventional")
        write(sys_)
        sys_.set_bandwidth(snapshot)
        sys_.fail_node(1)
        assert sys_.corrupt_chunk(0, "s1", 0)
        sys_.events.schedule(0.0004, lambda: sys_.fail_node(7))
        out = sys_.repair("s1", 1, 10, on_failure="outcome")
        assert out.status == ESCALATED and out.verified
        assert out.corruption_detected and out.quarantined_chunks == (0,)

    def uninvolved(self, snapshot):
        """Placement nodes a conventional repair of FAILED_NODE never reads."""
        sys_, _ = fresh_repair_system(snapshot, algorithm="conventional")
        probe = sys_.master.schedule_repair(
            "s1", FAILED_NODE, requester=REQUESTER
        )
        participants = {e.child for p in probe.pipelines for e in p.edges}
        placement = sys_.master.stripe("s1").placement
        return [n for n in placement if n != FAILED_NODE and n not in participants]

    def test_escalation_merges_what_the_multi_chunk_audit_quarantined(
        self, snapshot
    ):
        bystander, rotten = self.uninvolved(snapshot)[:2]
        sys_, _ = fresh_repair_system(snapshot, algorithm="conventional")
        assert sys_.corrupt_chunk(rotten, "s1", rotten)
        sys_.events.schedule(1e-4, lambda: sys_.fail_node(bystander))
        out = sys_.repair("s1", FAILED_NODE, REQUESTER, on_failure="outcome")
        assert out.status == ESCALATED and out.verified
        assert out.corruption_detected and out.quarantined_chunks == (rotten,)

    def test_escalation_fails_with_its_multi_chunk_repair(self, snapshot):
        # silent rot in a helper: the multi-chunk audit can prove the
        # stripe inconsistent but not localize the culprit
        sys_, _ = fresh_repair_system(snapshot, algorithm="conventional")
        assert sys_.corrupt_chunk(0, "s1", 0, fix_digest=True)
        bystander = self.uninvolved(snapshot)[0]
        sys_.events.schedule(1e-4, lambda: sys_.fail_node(bystander))
        out = sys_.repair("s1", FAILED_NODE, REQUESTER, on_failure="outcome")
        assert out.status == FAILED and out.corruption_detected
        assert out.failure_reason == (
            "second chunk lost mid-repair; "
            "rebuilt chunk failed integrity verification"
        )

    def test_escalation_past_the_codes_tolerance_fails(self, snapshot):
        sys_, _ = fresh_repair_system(snapshot, algorithm="conventional")
        participant = next(
            n for n in sys_.master.stripe("s1").placement
            if n != FAILED_NODE and n not in self.uninvolved(snapshot)
        )
        for node in (*self.uninvolved(snapshot), participant):
            sys_.events.schedule(1e-4, lambda n=node: sys_.fail_node(n))
        out = sys_.repair("s1", FAILED_NODE, REQUESTER, on_failure="outcome")
        assert out.status == FAILED
        assert out.failure_reason.endswith("tolerates at most 3 failures")

    def test_participant_crash_does_not_escalate(self, snapshot, clean):
        sys_, _ = fresh_repair_system(snapshot)
        sys_.events.schedule(
            0.5 * clean["elapsed"], lambda: sys_.fail_node(clean["hub"])
        )
        out = sys_.repair(
            "s1", FAILED_NODE, requester=REQUESTER, store=False,
        )
        assert out.status in (COMPLETED, DEGRADED)


class TestFailureVerdict:
    def test_too_few_helpers_yields_explicit_failed_outcome(self, snapshot):
        sys_ = build(num_nodes=11)
        write(sys_)
        sys_.set_bandwidth(snapshot.restrict(range(11)))
        for node in (FAILED_NODE, 0, 1, 2):
            sys_.fail_node(node)
        out = sys_.repair(
            "s1", FAILED_NODE, requester=10, on_failure="outcome"
        )
        assert out.status == FAILED
        assert not out.verified
        assert out.rebuilt is None
        assert out.failure_reason

    def test_default_on_failure_raises(self, snapshot):
        sys_ = build(num_nodes=11)
        write(sys_)
        sys_.set_bandwidth(snapshot.restrict(range(11)))
        for node in (FAILED_NODE, 0, 1, 2):
            sys_.fail_node(node)
        with pytest.raises((RuntimeError, ValueError)):
            sys_.repair("s1", FAILED_NODE, requester=10)


class TestReporting:
    def _outcomes(self, snapshot, clean):
        outs = []
        sys_, _ = fresh_repair_system(snapshot)
        outs.append(sys_.repair("s1", FAILED_NODE, requester=REQUESTER, store=False))
        sys_, _ = fresh_repair_system(snapshot)
        sys_.events.schedule(
            0.5 * clean["elapsed"], lambda: sys_.fail_node(clean["hub"])
        )
        outs.append(sys_.repair(
            "s1", FAILED_NODE, requester=REQUESTER, store=False,
        ))
        return outs

    def test_summarize_outcomes(self, snapshot, clean):
        outs = self._outcomes(snapshot, clean)
        summary = summarize_outcomes(outs)
        assert summary["total"] == 2
        assert summary["verified"] == 2
        assert sum(summary["by_status"].values()) == 2
        assert summary["retries"] >= 1
        assert summary["bytes_retransferred"] >= 0
        assert summary["bytes_received"] >= 2 * CHUNK

    def test_render_fault_report(self, snapshot, clean):
        outs = self._outcomes(snapshot, clean)
        text = render_fault_report(outs, title="matrix")
        assert "matrix" in text
        for out in outs:
            assert out.status in text


class TestRemainderIntervals:
    def test_merge_coalesces_and_sorts(self):
        assert merge_intervals([(10, 20), (0, 5), (15, 30), (5, 7)]) == [
            (0, 7),
            (10, 30),
        ]

    def test_merge_drops_empty(self):
        assert merge_intervals([(5, 5), (7, 3)]) == []

    def test_uncovered_complement(self):
        assert uncovered_intervals(100, [(0, 10), (50, 60)]) == [
            (10, 50),
            (60, 100),
        ]
        assert uncovered_intervals(100, []) == [(0, 100)]
        assert uncovered_intervals(100, [(0, 100)]) == []

    def test_lengths_partition_the_chunk(self):
        covered = [(0, 10), (40, 64), (10, 12)]
        rem = uncovered_intervals(64, covered)
        assert intervals_length(merge_intervals(covered)) + intervals_length(rem) == 64
