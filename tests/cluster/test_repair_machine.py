"""The repair lifecycle as a state machine, checked after every step.

A watched repair is planned, dispatched and streamed; it then completes,
or is aborted, backs off and is re-planned over the unfinished
remainder, or escalates, or fails.  A chunk group (``repair_multi_async``)
streams each lost chunk once and settles it as it assembles.  This
machine interleaves both entry points with the faults that drive those
transitions — crashes (a helper, a hub, or a second chunk of the stripe:
the concurrent-loss transitions), stalls, bit rot with and without a
matching digest, wire corruption, heartbeat leases and a wired
``DivergenceMonitor`` — and bounded runs of the event queue.

After every step:

* every byte range is decoded exactly once (an assembly's decoded
  ranges are disjoint and add up to its decoded byte count);
* a retired wire epoch is never routed and never folds a slice;
* a released wire epoch never sends again;
* a repair that settles with a rebuilt chunk balances its payload
  ledger: bytes folded at the requester = bytes credited to decoded
  ranges + bytes retired (``bytes_retransferred``);
* a settled rebuild equals the original bytes unless the stripe holds
  rot under a matching digest, and a ``verified`` one equals them unless
  an earlier wrong rebuild of the stripe was stored;
* every terminal state reaches its caller exactly once, as a
  :class:`RepairOutcome` with a known status, and nothing escapes
  ``events.run()``; a call that would rebuild a second chunk of a
  stripe on the requester of an open storing repair is refused with a
  ``ValueError`` naming that repair.
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

from repro.cluster import ClusterSystem, RepairOutcome
from repro.ec import RSCode
from repro.faults import COMPLETED, DEGRADED, FAILED
from repro.net import BandwidthSnapshot
from repro.obs import DivergenceMonitor

NUM_NODES = 10
N, K = 5, 3
CHUNK = 4096
SLICE = 512
PLACEMENTS = {"s0": (0, 1, 2, 3, 4), "s1": (3, 4, 5, 6, 7)}
MAX_CRASHES = 3
#: a drain that runs this many events has livelocked
DRAIN_EVENTS = 200_000

nodes = st.integers(0, NUM_NODES - 1)
stripes = st.sampled_from(sorted(PLACEMENTS))


def make_cluster(algorithm: str = "fullrepair"):
    """The machine's cluster, and every chunk's original bytes."""
    system = ClusterSystem(
        NUM_NODES, RSCode(N, K), algorithm=algorithm, slice_bytes=SLICE
    )
    rng = np.random.default_rng(7)
    original: dict[tuple[str, int], np.ndarray] = {}
    for sid, placement in PLACEMENTS.items():
        data = rng.integers(0, 256, (K, CHUNK), dtype=np.uint8)
        system.write_stripe(sid, data, placement=placement)
        for ci in range(N):
            original[sid, ci] = system.read_chunk(sid, ci).copy()
    system.set_bandwidth(
        BandwidthSnapshot(
            uplink=rng.uniform(2.0, 8.0, NUM_NODES),
            downlink=rng.uniform(2.0, 8.0, NUM_NODES),
        )
    )
    return system, original


class RepairMachine(RuleBasedStateMachine):
    # the star feeds the requester k contributions per byte range, so an
    # abort can leave partial ranges to scrub; a pipeline feeds it one
    @initialize(algorithm=st.sampled_from(["fullrepair", "conventional"]),
                detector=st.booleans(), heartbeat=st.booleans(),
                first_crash=st.integers(0, 7))
    def setup(self, algorithm, detector, heartbeat, first_crash):
        system, self.original = make_cluster(algorithm)
        self.system = system
        if detector:
            system.divergence = DivergenceMonitor.standard()
            system.divergence.clock = lambda: system.events.now
        if heartbeat:
            system.enable_heartbeats(period_s=0.02)
        # one chunk is lost from the start, so a repair rule has work
        system.fail_node(first_crash)
        self.crashes = 1
        #: stripes whose bytes something corrupted (at rest or on the wire)
        self.corrupted: set[str] = set()
        #: stripes holding rot that carries a matching digest
        self.silent_rot: set[str] = set()
        #: stripes a wrong rebuild was stored into
        self.laundered: set[str] = set()
        #: repair id -> outcomes its caller received (must end with one)
        self.outcomes: dict[str, list] = {}
        #: repair id -> (stripe, lost chunk index), for the byte check
        self.lost: dict[str, tuple[str, int]] = {}
        #: repair id -> payload bytes credited to decoded ranges
        self.credited: dict[str, int] = {}
        #: wire ids whose every slice landed (senders released them)
        self.released: set[str] = set()
        self.violations: list[str] = []
        #: repair ids settled since the last check of their outcome
        self.unjudged: list[str] = []
        # a delivery held by a stalled receiver re-enters through the
        # cluster's own ``_deliver``: probe that, not only the nodes' hook
        system._deliver = self._watch_deliver(system._deliver)
        for node in system.nodes:
            node.deliver = system._deliver
            node.release_repair = self._watch_release(node.release_repair)
            node.on_transfer = self._watch_send(node.on_transfer)

    # ---- probes on the three hooks a slice crosses ---------------------- #

    def _watch_deliver(self, deliver):
        system = self.system

        def probe(dest, data):
            rid = data.repair_id
            retired = rid in system._retired
            asm = system._wire_assembly.get(rid)
            if asm is None:
                deliver(dest, data)
                return
            received, decoded = asm.received, len(asm.completed)
            sources = asm.expected.get(data.pipeline_id, 0)
            deliver(dest, data)
            if retired and asm.received != received:
                self.violations.append(f"retired epoch {rid} folded a slice")
            if len(asm.completed) > decoded:
                self.credited[asm.repair_id] = self.credited.get(
                    asm.repair_id, 0
                ) + (data.stop - data.start) * sources.bit_count()
            if not asm.done_bytes:
                # nothing decoded (a poisoned rebuild was scrubbed whole)
                self.credited[asm.repair_id] = 0

        return probe

    def _watch_release(self, release):
        def probe(wire):
            self.released.add(wire)
            release(wire)

        return probe

    def _watch_send(self, hook):
        def probe(src, dest, lo, hi, start_s, end_s, wire_id, pipeline_id):
            if wire_id in self.released:
                self.violations.append(f"released wire {wire_id} sent again")
            if hook is not None:
                hook(src, dest, lo, hi, start_s, end_s, wire_id, pipeline_id)

        return probe

    # ---- the callers' side ---------------------------------------------- #

    def _settled(self, rid, outcome):
        assert isinstance(outcome, RepairOutcome)
        assert outcome.status in (COMPLETED, DEGRADED, FAILED), outcome.status
        self.outcomes[rid].append(outcome)
        # judged after the step: a settle fires inside the delivery that
        # decoded the last range, before the probe has credited it
        self.unjudged.append(rid)

    def _judge(self):
        for rid in self.unjudged:
            outcome = self.outcomes[rid][-1]
            sid, lost = self.lost[rid]
            if outcome.status == FAILED:
                assert outcome.rebuilt is None and outcome.failure_reason
                continue
            right = np.array_equal(outcome.rebuilt, self.original[sid, lost])
            # only rot under a matching digest can reach a rebuild: a
            # stripe with it may exceed its parity and rebuild wrong, but
            # never vouch for the wrong bytes — until a wrong rebuild is
            # stored, and the stripe's chunks outvote the original
            assert right or sid in self.silent_rot, (
                f"{rid}: rebuilt bytes differ from the original"
            )
            assert right or not outcome.verified or sid in self.laundered, (
                f"{rid}: verified wrong bytes"
            )
            if not right:
                self.laundered.add(sid)  # every repair here stores
            if sid not in self.corrupted:
                assert not outcome.corruption_detected
                assert not outcome.quarantined_chunks
            assert outcome.bytes_received == (
                self.credited.get(rid, 0) + outcome.bytes_retransferred
            ), f"{rid}: payload ledger does not balance"
        self.unjudged = []

    def _refused(self, exc: ValueError) -> None:
        """A repair call refused because an open storing repair of the
        stripe already rebuilds another chunk on the requester."""
        message = str(exc)
        assert " for open repair " in message, message
        assert message.rsplit(" ", 1)[1] in self.outcomes, message

    def _lost_chunks(self, sid):
        placement = self.system.master.stripe(sid).placement
        return [
            (ci, n)
            for ci, n in enumerate(placement)
            if not self.system.can_serve(sid, ci, n)
        ]

    # ---- rules ---------------------------------------------------------- #

    @precondition(lambda self: self.crashes < MAX_CRASHES)
    @rule(node=nodes)
    def fail_node(self, node):
        if self.system.is_alive(node):
            self.crashes += 1
        self.system.fail_node(node)

    @rule(node=nodes, duration=st.sampled_from([0.005, 0.05, 0.3]))
    def stall_node(self, node, duration):
        self.system.stall_node(node, duration)

    @rule(sid=stripes, chunk=st.integers(0, N - 1), silent=st.booleans(),
          seed=st.integers(0, 3))
    def corrupt_chunk(self, sid, chunk, silent, seed):
        if silent and sid in self.silent_rot:
            return  # one undetectable rot per stripe stays inside its parity
        node = self.system.master.stripe(sid).node_of(chunk)
        if self.system.corrupt_chunk(node, sid, chunk, seed=seed, fix_digest=silent):
            self.corrupted.add(sid)
            if silent:
                self.silent_rot.add(sid)

    @rule(node=nodes, duration=st.sampled_from([0.002, 0.02]))
    def corrupt_wire(self, node, duration):
        self.system.corrupt_wire(node, duration, seed=node)
        self.corrupted.update(PLACEMENTS)

    @rule(sid=stripes, data=st.data(), scale=st.sampled_from([1.0, 0.5]))
    def repair_async(self, sid, data, scale):
        lost, spares = self._lost_chunks(sid), self.system.spares(sid)
        if not lost or not spares:
            return
        chunk, failed = data.draw(st.sampled_from(lost))
        requester = data.draw(st.sampled_from(spares))
        early: list = []  # a repair may settle inside the call
        rid = None

        def on_done(outcome):
            if rid is None:
                early.append(outcome)
            else:
                self._settled(rid, outcome)

        try:
            rid = self.system.repair_async(
                sid, failed, requester, on_done=on_done, bandwidth_scale=scale
            )
        except ValueError as exc:
            self._refused(exc)
            return
        self.outcomes[rid] = []
        self.lost[rid] = (sid, chunk)
        for outcome in early:
            self._settled(rid, outcome)

    # a chunk group has no watchdog: its deadline, or without one a crash
    # in its plan, settles a chunk that can no longer assemble
    @rule(sid=stripes, data=st.data(),
          deadline=st.sampled_from([0.05, 1.0, None]))
    def repair_multi_async(self, sid, data, deadline):
        system = self.system
        lost = self._lost_chunks(sid)
        spares = system.spares(sid)
        if (
            not lost
            or len(lost) > N - K
            or len(system.serving(sid)) < K
            or len(spares) < len(lost)
        ):
            return
        picked = data.draw(
            st.lists(st.sampled_from(lost), min_size=1, max_size=len(lost),
                     unique=True)
        )
        requesters = data.draw(st.permutations(spares))
        requester_for = {f: requesters[i] for i, (_, f) in enumerate(picked)}
        suffix = None

        def on_done(outcomes):
            assert list(outcomes) == list(requester_for)
            for f, outcome in outcomes.items():
                # the chunk group's repair ids: "<stripe>/n<node><suffix>"
                self._settled(f"{sid}/n{f}{suffix}", outcome)

        try:
            suffix = system.repair_multi_async(
                sid, tuple(requester_for), requester_for,
                on_done=on_done, deadline_s=deadline,
            )
        except ValueError as exc:
            self._refused(exc)
            return
        for ci, f in picked:
            rid = f"{sid}/n{f}{suffix}"
            self.outcomes[rid] = []
            self.lost[rid] = (sid, ci)

    @rule(dt=st.sampled_from([0.001, 0.01, 0.1]))
    def advance(self, dt):
        events = self.system.events
        events.run(until=events.now + dt, max_events=DRAIN_EVENTS)

    @rule(count=st.integers(1, 50))
    def step(self, count):
        for _ in range(count):
            if not self.system.events.step():
                break

    @rule()
    def drain(self):
        self._drain()

    def _drain(self):
        system = self.system
        system.events.run(max_events=DRAIN_EVENTS)
        self._judge()
        for rid, got in self.outcomes.items():
            assert len(got) == 1, f"{rid} settled {len(got)} times"
        assert not system._assemblies and not system._wire_assembly

    def teardown(self):
        if hasattr(self, "system"):
            self._drain()

    # ---- invariants ----------------------------------------------------- #

    @invariant()
    def no_violation(self):
        assert self.violations == []

    @invariant()
    def outcomes_hold(self):
        self._judge()

    @invariant()
    def settled_at_most_once(self):
        for rid, got in self.outcomes.items():
            assert len(got) <= 1, f"{rid} settled {len(got)} times"

    @invariant()
    def retired_epochs_are_unrouted(self):
        assert not set(self.system._wire_assembly) & self.system._retired

    @invariant()
    def decoded_ranges_are_disjoint(self):
        for asm in self.system._assemblies.values():
            ranges = sorted(asm.completed)
            assert all(lo < hi for lo, hi in ranges)
            assert all(a[1] <= b[0] for a, b in zip(ranges, ranges[1:]))
            assert sum(hi - lo for lo, hi in ranges) == asm.done_bytes
            assert 0 <= asm.done_bytes <= asm.chunk_bytes


RepairMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestRepairMachine = RepairMachine.TestCase


def test_a_stale_epoch_slice_is_dropped_not_refused():
    """The nearest legal input to ``ClusterSystem._deliver``'s three
    protocol-violation raises is a slice of a retired epoch: it is dropped.

    The raises stay as safety checks, because none can fire.  Each needs
    a slice that is live on its wire but was never compiled for it:
    * a requester slice from an unplanned source: tasks are compiled from
      the plan, and an abort retires the whole epoch before the next one
      is compiled;
    * a slice for a node with no task on the wire: a task registers at
      assign, before any upstream slice is sent, and a node that refuses
      its task retires the wire first;
    * a second fold of one range from one source: a slice is resent only
      after its copy failed the checksum and was not folded.
    The machine above drives every fault that retires, re-plans, resends
    or holds a slice, and no raise escapes ``events.run()``.
    """
    system = ClusterSystem(NUM_NODES, RSCode(N, K), slice_bytes=SLICE)
    data = np.random.default_rng(1).integers(0, 256, (K, CHUNK), dtype=np.uint8)
    system.write_stripe("s0", data, placement=PLACEMENTS["s0"])
    system.set_bandwidth(
        BandwidthSnapshot(uplink=np.full(NUM_NODES, 4.0),
                          downlink=np.full(NUM_NODES, 4.0))
    )
    system.fail_node(1)
    slices = []
    deliver = system._deliver

    def keep(dest, msg):
        slices.append((dest, msg))
        deliver(dest, msg)

    for node in system.nodes:
        node.deliver = keep
    outcomes = []
    rid = system.repair_async("s0", 1, 8, on_done=outcomes.append)
    system.events.run()
    (outcome,) = outcomes
    assert outcome.status == COMPLETED and outcome.bytes_received == CHUNK
    assert rid in system._retired and not system._wire_assembly
    for dest, msg in slices:  # every slice again, on the retired epoch
        system._deliver(dest, msg)
    assert system.events.pending_count == 0
    assert np.array_equal(system.read_chunk("s0", 1), data[1])


# --------------------------------------------------------------------- #
# three transitions the machine found, pinned as plain cases             #
# --------------------------------------------------------------------- #


def test_a_rebuild_checked_against_no_surplus_is_not_verified():
    """Exactly k digest-clean chunks survive, one of them rotten under a
    matching digest: the rebuild agrees with them and is wrong, so the
    audit cannot vouch for it."""
    system, original = make_cluster()
    system.corrupt_chunk(3, "s0", 3)  # rot the digest catches
    system.fail_node(2)
    system.corrupt_chunk(0, "s0", 0, fix_digest=True)  # rot it does not
    outcomes = []
    system.repair_async("s0", 2, 7, on_done=outcomes.append)
    system.events.run()
    (outcome,) = outcomes
    assert outcome.status == COMPLETED
    assert not np.array_equal(outcome.rebuilt, original["s0", 2])
    assert not outcome.verified


def test_a_second_storing_repair_onto_the_same_requester_is_refused():
    """Two storing repairs of one stripe would each relocate a chunk to
    the requester; the second call is refused, naming the open one."""
    system, original = make_cluster()
    system.fail_node(2)
    system.fail_node(3)
    outcomes = []
    suffix = system.repair_multi_async(
        "s0", (3,), {3: 8}, on_done=outcomes.append
    )
    with pytest.raises(ValueError, match=f"open repair s0/n3{suffix}"):
        system.repair_multi_async("s0", (2,), {2: 8}, on_done=outcomes.append)
    with pytest.raises(ValueError, match=f"open repair s0/n3{suffix}"):
        system.repair_async("s0", 2, 8, on_done=outcomes.append)
    # a degraded read stores nothing, and another requester is free
    system.repair_async("s0", 2, 8, on_done=outcomes.append, store=False)
    system.repair_multi_async("s0", (2,), {2: 9}, on_done=outcomes.append)
    system.events.run()
    assert len(outcomes) == 3
    assert np.array_equal(system.read_chunk("s0", 3), original["s0", 3])
    assert np.array_equal(system.read_chunk("s0", 2), original["s0", 2])
    assert system.master.stripe("s0").placement == (0, 1, 9, 8, 4)


def test_a_chunk_group_without_a_deadline_fails_when_a_helper_crashes():
    """No deadline and no drain would ever settle the chunk: the crash
    of a helper of its plan fails it, once, and leaves nothing open."""
    system, _ = make_cluster()
    system.fail_node(0)
    outcomes = []
    system.repair_multi_async("s0", (0,), {0: 8}, on_done=outcomes.append)
    system.events.run(until=system.events.now + 0.001)
    assert not outcomes
    system.fail_node(1)
    system.events.run()
    (group,) = outcomes
    assert group[0].status == FAILED
    assert group[0].failure_reason == "node 1 of its plan crashed mid-transfer"
    assert not system._assemblies and not system._wire_assembly


def test_a_chunk_group_does_not_vouch_for_a_rebuild_it_cannot_check():
    """The unwatched twin: the oracle copy on the crashed node is rotten,
    and exactly k clean chunks survive, one of them silently rotten."""
    system, original = make_cluster()
    system.corrupt_chunk(2, "s0", 2)
    system.fail_node(2)
    system.fail_node(3)
    system.corrupt_chunk(0, "s0", 0, fix_digest=True)
    outcomes = []
    system.repair_multi_async("s0", (2,), {2: 8}, on_done=outcomes.append)
    system.events.run()
    ((_, outcome),) = outcomes[0].items()
    assert outcome.status == COMPLETED
    assert not np.array_equal(outcome.rebuilt, original["s0", 2])
    assert not outcome.verified


# --------------------------------------------------------------------- #
# a helper quarantined by digest, leaving exactly k clean chunks         #
# --------------------------------------------------------------------- #


def _rot_a_helper_mid_repair(start):
    """Crash node 4 (chunk 1 of ``s1``), start a repair of it to node 0
    with ``start(system, on_done)``, and rot helper chunk 0 (node 3) 1 ms
    in: the digest catches it, and the audit that quarantines it is left
    with exactly k clean chunks, so it cannot check the rebuild."""
    system, original = make_cluster()
    system.fail_node(4)
    outcomes = []
    start(system, outcomes.append)
    system.events.run(until=system.events.now + 0.001)
    assert not outcomes and system.corrupt_chunk(3, "s1", 0, seed=0)
    system.events.run()
    (outcome,) = outcomes
    return system, original, outcome


@pytest.mark.parametrize("max_attempts", [3, 1])
def test_an_unchecked_rebuild_fed_by_a_quarantined_helper_is_repaired_again(
    max_attempts,
):
    system, original, outcome = _rot_a_helper_mid_repair(
        lambda system, on_done: system.repair_async(
            "s1", 4, 0, on_done=on_done, max_attempts=max_attempts
        )
    )
    assert outcome.quarantined_chunks == (0,)
    if max_attempts > 1:  # re-repaired from the k clean chunks left
        assert outcome.status == COMPLETED and outcome.attempts == 2
        assert np.array_equal(outcome.rebuilt, original["s1", 1])
        assert np.array_equal(system.read_chunk("s1", 1), original["s1", 1])
    else:  # no attempt left: failed, and nothing stored
        assert outcome.status == FAILED and outcome.rebuilt is None
        assert "corrupt helper" in outcome.failure_reason
        assert system.master.stripe("s1").placement[1] == 4


def test_a_chunk_group_fails_an_unchecked_rebuild_fed_by_a_quarantined_helper():
    system, _, group = _rot_a_helper_mid_repair(
        lambda system, on_done: system.repair_multi_async(
            "s1", (4,), {4: 0}, on_done=on_done, deadline_s=100.0
        )
    )
    assert group[4].status == FAILED and group[4].rebuilt is None
    assert group[4].quarantined_chunks == (0,)
    assert system.master.stripe("s1").placement[1] == 4  # nothing stored
