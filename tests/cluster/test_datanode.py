"""DataNode slice execution unit tests."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import DataNode, SliceData, TransferTask
from repro.ec import gf256
from repro.integrity.digest import slice_checksum
from repro.sim import EventQueue
from repro.sim.transfer import SLICE_OVERHEAD_S


def _unexpected(*report):
    raise AssertionError(f"unexpected integrity report {report}")


def make_node(node_id=1, on_bad_slice=_unexpected, on_bad_chunk=_unexpected):
    """A node wired as the cluster wires it: deliveries are recorded, and
    an integrity report fails the test unless it passes the callback."""
    events = EventQueue()
    delivered = []
    node = DataNode(node_id, events,
                    deliver=lambda dest, msg: delivered.append((dest, msg)),
                    on_bad_slice=on_bad_slice, on_bad_chunk=on_bad_chunk)
    return node, events, delivered


def receive(node, data):
    """Hand ``data`` to the task of ``node`` that consumes it, looked up
    as the cluster's routing looks it up."""
    node.receive(data, node.tasks[data.repair_id][data.pipeline_id])


def wire(source, start, stop, payload, pipeline_id=7):
    """A slice of repair ``s`` as a sender puts it on the wire: checksummed."""
    return SliceData("s", pipeline_id, source, start, stop, payload, "s",
                     slice_checksum(payload))


def leaf_task(chunk_index=0, coeff=3, start=0, stop=1024, dest=9, rate=100.0,
              num_slices=4):
    return TransferTask(
        stripe_id="s", pipeline_id=7, chunk_index=chunk_index, coeff=coeff,
        start=start, stop=stop, destination=dest, rate_mbps=rate,
        repair_id="s", num_slices=num_slices,
    )


class TestLeafSending:
    def test_sends_scaled_slices_in_order(self):
        node, events, delivered = make_node()
        chunk = np.arange(1024, dtype=np.uint8)
        node.store.put("s", 0, chunk)
        node.assign(leaf_task())
        events.run()
        assert len(delivered) == 4  # 1024 / 256
        starts = [msg.start for _, msg in delivered]
        assert starts == [0, 256, 512, 768]
        for _, msg in delivered:
            expected = gf256.mul_chunk(3, chunk[msg.start:msg.stop])
            assert np.array_equal(msg.payload, expected)

    def test_window_count_override(self):
        node, events, delivered = make_node()
        node.store.put("s", 0, np.zeros(1000, dtype=np.uint8))
        node.assign(leaf_task(stop=1000, num_slices=3))
        events.run()
        assert len(delivered) == 3
        sizes = [msg.stop - msg.start for _, msg in delivered]
        assert sorted(sizes) == [333, 333, 334]
        assert sum(sizes) == 1000

    def test_fifo_serialisation_times(self):
        node, events, delivered = make_node()
        node.store.put("s", 0, np.zeros(1024, dtype=np.uint8))
        node.assign(leaf_task(rate=8.0))  # 1 byte/us
        arrivals = []
        node.deliver = lambda dest, msg: arrivals.append(events.now)
        events.run()
        # 256 bytes at 1e6 B/s = 256 us per slice plus the per-slice
        # overhead, strictly serialised
        per_slice = 256e-6 + SLICE_OVERHEAD_S
        assert arrivals == pytest.approx([per_slice * i for i in (1, 2, 3, 4)])

    def test_empty_segment_ignored(self):
        node, events, delivered = make_node()
        node.assign(leaf_task(start=100, stop=100))
        events.run()
        assert delivered == []
        assert node.pending_tasks() == 0


class TestHubCombining:
    def _hub_setup(self):
        node, events, delivered = make_node(node_id=2)
        chunk = np.full(512, 7, dtype=np.uint8)
        node.store.put("s", 1, chunk)
        task = TransferTask(
            stripe_id="s", pipeline_id=7, chunk_index=1, coeff=5,
            start=0, stop=512, destination=9, rate_mbps=100.0,
            repair_id="s", num_slices=2, wait_for=(4,),
        )
        node.assign(task)
        return node, events, delivered, chunk

    def test_waits_for_upstream(self):
        node, events, delivered, _ = self._hub_setup()
        events.run()
        assert delivered == []  # nothing sendable before slices arrive

    def test_combines_and_forwards(self):
        node, events, delivered, chunk = self._hub_setup()
        incoming = np.arange(256, dtype=np.uint8)
        receive(node, wire(4, 0, 256, incoming))
        events.run()
        assert len(delivered) == 1
        dest, msg = delivered[0]
        assert dest == 9
        expected = np.bitwise_xor(gf256.mul_chunk(5, chunk[:256]), incoming)
        assert np.array_equal(msg.payload, expected)

    def test_duplicate_slice_rejected(self):
        node, events, delivered, _ = self._hub_setup()
        payload = np.zeros(256, dtype=np.uint8)
        receive(node, wire(4, 0, 256, payload))
        with pytest.raises(RuntimeError, match="duplicate"):
            receive(node, wire(4, 0, 256, payload))

    def test_misaligned_slice_rejected(self):
        node, events, delivered, _ = self._hub_setup()
        with pytest.raises(RuntimeError, match="misaligned"):
            receive(
                node,
                wire(4, 13, 256, np.zeros(243, dtype=np.uint8))
            )
        with pytest.raises(RuntimeError, match="misaligned"):
            node.retransmit(("s", 7), 13, 256)

    def test_wrong_size_payload_rejected(self):
        node, events, delivered, _ = self._hub_setup()
        with pytest.raises(RuntimeError, match="size"):
            receive(
                node,
                wire(4, 0, 256, np.zeros(17, dtype=np.uint8))
            )

    def test_unknown_task_rejected(self):
        """The cluster routes a slice by the receiver's task table; one
        that no task and no requester consumes is an error."""
        from repro.cluster import ClusterSystem
        from repro.ec import RSCode

        system = ClusterSystem(4, RSCode(3, 2))
        with pytest.raises(RuntimeError, match="unexpected node"):
            system.nodes[0].deliver(1, wire(0, 0, 16, np.zeros(16, dtype=np.uint8), pipeline_id=99))


def reference_bounds(start, stop, num):
    """The balanced split every node of a pipeline computes, spelt out."""
    q, r = divmod(stop - start, num)
    return [
        (start + i * q + min(i, r), start + (i + 1) * q + min(i + 1, r))
        for i in range(num)
    ]


class TestSegmentScalingEquivalence:
    """One kernel call per leaf window or hub task yields the bytes of one
    call per slice.

    The reference is the per-slice form the node used to run:
    ``mul_chunk(coeff, chunk[lo:hi])`` on each balanced slice.  Segments
    are uneven (``r != 0``), offset into the chunk, and sized so that
    slices fall both below and above ``MIN_TABLE_BYTES`` — below it the
    reference takes the naive gather while a window or segment takes the
    blocked kernel, so the two sides also cross kernels.
    """

    CHUNK = np.random.default_rng(11).integers(0, 256, 210_000, dtype=np.uint8)
    #: (start, stop, num_slices): tiny slices; sub-table slices of a
    #: super-table segment; super-table slices; several leaf windows
    SEGMENTS = [(3, 1003, 7), (100, 10_101, 7), (17, 30_019, 5), (1, 200_002, 13)]

    def _task(self, coeff, segment, wait_for=()):
        start, stop, num = segment
        return TransferTask(
            stripe_id="s", pipeline_id=7, chunk_index=0, coeff=coeff,
            start=start, stop=stop, destination=9, rate_mbps=100.0,
            repair_id="s", num_slices=num, wait_for=wait_for,
        )

    def _own(self, coeff, lo, hi):
        from repro.ec.backend import get_backend

        return get_backend().mul_chunk(coeff, self.CHUNK[lo:hi])

    def test_segments_cover_both_sides_of_the_table_threshold(self):
        from repro.ec.backend import MIN_TABLE_BYTES

        widths = [(stop - start) // num for start, stop, num in self.SEGMENTS]
        assert min(widths) < MIN_TABLE_BYTES < max(widths)
        assert all((stop - start) % num for start, stop, num in self.SEGMENTS)

    @pytest.mark.parametrize("coeff", [0, 1, 0x53])
    @pytest.mark.parametrize("segment", SEGMENTS)
    def test_leaf_slices(self, coeff, segment):
        node, events, delivered = make_node()
        node.store.put("s", 0, self.CHUNK)
        node.assign(self._task(coeff, segment))
        events.run()
        assert [(m.start, m.stop) for _, m in delivered] == reference_bounds(*segment)
        for _, msg in delivered:
            assert np.array_equal(msg.payload, self._own(coeff, msg.start, msg.stop))

    @pytest.mark.parametrize("coeff", [0, 1, 0x53])
    @pytest.mark.parametrize("segment", SEGMENTS)
    def test_hub_slices(self, coeff, segment):
        node, events, delivered = make_node(node_id=2)
        node.store.put("s", 0, self.CHUNK)
        node.assign(self._task(coeff, segment, wait_for=(4, 5)))
        rng = np.random.default_rng(3)
        incoming = {}
        for lo, hi in reference_bounds(*segment):
            for source in (4, 5):
                payload = rng.integers(0, 256, hi - lo, dtype=np.uint8)
                incoming[lo] = incoming.get(lo, 0) ^ payload
                receive(node, wire(source, lo, hi, payload))
        events.run()
        assert [(m.start, m.stop) for _, m in delivered] == reference_bounds(*segment)
        for _, msg in delivered:
            expected = self._own(coeff, msg.start, msg.stop) ^ incoming[msg.start]
            assert np.array_equal(msg.payload, expected)


class TestChunkChangesUnderATask:
    """A slice carries the bytes the chunk held when the slice was prepared."""

    def _hub(self):
        node, events, delivered = make_node(node_id=2)
        chunk = np.random.default_rng(5).integers(0, 256, 2048, dtype=np.uint8)
        node.store.put("s", 1, chunk)
        node.assign(TransferTask(
            stripe_id="s", pipeline_id=7, chunk_index=1, coeff=5,
            start=0, stop=2048, destination=9, rate_mbps=100.0,
            repair_id="s", num_slices=4, wait_for=(4,),
        ))

        def arrive(i):
            receive(node, wire(4, 512 * i, 512 * (i + 1), np.zeros(512, dtype=np.uint8)))

        return node, events, delivered, chunk, arrive

    def test_rot_between_arrivals_reaches_only_later_slices(self):
        node, events, delivered, clean, arrive = self._hub()
        arrive(0)
        node.store.corrupt("s", 1, flips=512, seed=9)
        rotten = node.store.get("s", 1)
        assert not np.array_equal(rotten[:512], clean[:512])  # slice 0 was hit too
        for i in (1, 2, 3):
            arrive(i)
        events.run()
        sent = [msg.payload for _, msg in delivered]
        assert np.array_equal(sent[0], gf256.mul_chunk(5, clean[:512]))
        for i in (1, 2, 3):
            lo, hi = 512 * i, 512 * (i + 1)
            assert np.array_equal(sent[i], gf256.mul_chunk(5, rotten[lo:hi]))

    def test_out_of_order_first_arrival_reads_the_earlier_slice_too(self):
        # slice 0's first copy was dropped for a bad checksum: slice 1
        # arrives first, the chunk rots, then slice 0's retransmit lands
        node, events, delivered, clean, arrive = self._hub()
        arrive(1)
        node.store.corrupt("s", 1, flips=512, seed=9)
        rotten = node.store.get("s", 1)
        arrive(0)
        arrive(2)
        arrive(3)
        events.run()
        sent = {msg.start: msg.payload for _, msg in delivered}
        assert np.array_equal(sent[512], gf256.mul_chunk(5, clean[512:1024]))
        for lo in (0, 1024, 1536):
            assert np.array_equal(sent[lo], gf256.mul_chunk(5, rotten[lo:lo + 512]))

    def test_chunk_deleted_under_a_hub_raises_at_the_next_read(self):
        node, events, delivered, _, arrive = self._hub()
        arrive(0)
        node.store.delete("s", 1)
        with pytest.raises(KeyError):
            arrive(1)


def freed(state) -> bool:
    """Whether a task state holds no buffer and no per-slice table."""
    return all(
        getattr(state, name) is None
        for name in ("bounds", "partials", "source", "scaled", "arrived", "ready_at")
    )


class TestReleaseRepair:
    def test_release_frees_buffers_and_keeps_the_task_entry(self):
        node, events, delivered = make_node()
        node.store.put("s", 0, np.arange(1024, dtype=np.uint8))
        node.assign(leaf_task())
        events.run()
        assert node.retransmit(("s", 7), 256, 512)
        events.run()
        assert len(delivered) == 5
        node.release_repair("s")
        (state,) = node.tasks["s"].values()
        assert freed(state)
        assert not node.retransmit(("s", 7), 256, 512)  # refused, not an error
        assert node.pending_tasks() == 0

    def test_release_and_cancel_touch_only_their_own_repair(self):
        node, events, delivered = make_node()
        node.store.put("s", 0, np.arange(1024, dtype=np.uint8))
        for rid, pid in (("a", 1), ("a", 2), ("b", 1)):
            node.assign(dataclasses.replace(
                leaf_task(rate=1.0), repair_id=rid, pipeline_id=pid
            ))
        tasks = node.tasks
        a1, a2, b1 = tasks["a"][1], tasks["a"][2], tasks["b"][1]
        assert node.cancel_repair("b") == 1 and b1.cancelled
        assert node.cancel_repair("b") == 0  # already cancelled
        assert node.cancel_repair("nobody") == 0
        assert not (a1.cancelled or a2.cancelled)
        events.run()
        assert [s.next_send for s in (a1, a2, b1)] == [4, 4, 1]
        # cancelling frees the buffers at once, as releasing does
        assert freed(b1) and not (freed(a1) or freed(a2))
        node.release_repair("a")
        node.release_repair("nobody")
        # per-slice state is gone; the routing entry is not
        assert freed(a1) and freed(a2)
        assert {(w, p) for w, ps in tasks.items() for p in ps} == {
            ("a", 1), ("a", 2), ("b", 1)
        }
        assert not node.retransmit(("a", 1), 0, 256)
        assert node.pending_tasks() == 1  # the cancelled one never finished
        # a repeated repair re-assigns the same wire id: the index follows
        node.assign(dataclasses.replace(leaf_task(), repair_id="b", pipeline_id=1))
        assert tasks["b"][1] is not b1
        assert node.cancel_repair("b") == 1 and tasks["b"][1].cancelled


class TestEveryNodeChecks:
    """A node is built with the cluster's integrity callbacks, so every
    slice it receives is checksummed and every chunk it reads verified."""

    @pytest.mark.parametrize("missing", ["deliver", "on_bad_slice", "on_bad_chunk"])
    def test_the_cluster_callbacks_are_required(self, missing):
        callbacks = dict(deliver=_unexpected, on_bad_slice=_unexpected,
                         on_bad_chunk=_unexpected)
        del callbacks[missing]
        with pytest.raises(TypeError, match=missing):
            DataNode(1, EventQueue(), **callbacks)

    def test_a_garbled_slice_to_a_live_hub_is_reported_not_folded(self):
        bad = []
        node, events, delivered = make_node(
            node_id=2, on_bad_slice=lambda dest, data: bad.append((dest, data.start)))
        node.store.put("s", 1, np.full(512, 7, dtype=np.uint8))
        node.assign(dataclasses.replace(leaf_task(chunk_index=1, coeff=5, stop=512,
                                                  num_slices=2), wait_for=(4,)))
        incoming = np.arange(256, dtype=np.uint8)
        garbled = wire(4, 0, 256, incoming.copy())
        garbled.payload[3] ^= 0x40
        receive(node, garbled)
        assert bad == [(2, 0)]
        receive(node, wire(4, 0, 256, incoming))  # the resent copy is no duplicate
        events.run()
        (_, msg), = delivered
        expected = np.bitwise_xor(gf256.mul_chunk(5, np.full(256, 7, dtype=np.uint8)),
                                  incoming)
        assert np.array_equal(msg.payload, expected)

    @pytest.mark.parametrize("chunk", ["rotten", "missing"])
    def test_an_unreadable_chunk_is_reported_before_anything_streams(self, chunk):
        bad = []
        node, events, delivered = make_node(
            on_bad_chunk=lambda node_id, task: bad.append((node_id, task.chunk_index)))
        if chunk == "rotten":
            node.store.put("s", 0, np.arange(1024, dtype=np.uint8))
            node.store.corrupt("s", 0, flips=4, seed=1)
        node.assign(leaf_task())
        events.run()
        assert bad == [(1, 0)]
        assert delivered == [] and node.tasks == {} and node.bytes_sent == 0


class TestLateSliceToACancelledHub:
    """A slice already on the wire when its hub task was cancelled."""

    def _cancelled_hub(self):
        bad = []
        node, events, delivered = make_node(
            node_id=2, on_bad_slice=lambda dest, data: bad.append((dest, data.start)))
        node.store.put("s", 0, np.arange(1024, dtype=np.uint8))
        node.assign(dataclasses.replace(leaf_task(), wait_for=(4,)))
        payload = np.arange(256, dtype=np.uint8)
        checksum = slice_checksum(payload)
        arrive = lambda p: receive(node, SliceData(
            "s", 7, source=4, start=256, stop=512, payload=p, repair_id="s",
            checksum=checksum,
        ))
        assert node.cancel_repair("s") == 1
        return node, events, delivered, bad, payload, arrive

    def test_a_corrupted_one_is_still_reported(self):
        node, events, delivered, bad, payload, arrive = self._cancelled_hub()
        garbled = payload.copy()
        garbled[3] ^= 0x40
        arrive(garbled)
        assert bad == [(2, 256)]  # the wire-corruption count moves as before

    def test_a_clean_one_is_dropped_without_a_buffer(self):
        node, events, delivered, bad, payload, arrive = self._cancelled_hub()
        arrive(payload)
        arrive(payload)  # not folded, so not a duplicate either
        events.run()
        (state,) = node.tasks["s"].values()
        assert freed(state) and delivered == [] and bad == []
        assert not node.retransmit(("s", 7), 256, 512)


class TestLeafWindows:
    """A leaf scales one window ahead of its send cursor from the view of
    its chunk taken at assign."""

    SLICE = 16 * 1024

    def _leaf(self):
        from repro.cluster.datanode import WINDOW_BYTES

        node, events, delivered = make_node()
        size = 3 * WINDOW_BYTES + 5 * self.SLICE + 3
        chunk = np.random.default_rng(4).integers(0, 256, size, dtype=np.uint8)
        node.store.put("s", 0, chunk)
        node.assign(leaf_task(coeff=0x53, start=1, stop=size, rate=1e4,
                              num_slices=-(-(size - 1) // self.SLICE)))
        (state,) = node.tasks["s"].values()
        return node, events, delivered, chunk, state

    def test_a_leaf_holds_one_window_not_its_segment(self):
        from repro.cluster.datanode import WINDOW_BYTES

        node, events, delivered, chunk, state = self._leaf()
        assert state.partials is None and state.ready_at is None
        # the window starts at the even byte before the segment's odd start
        assert state.scaled_lo == 0 and len(state.scaled) < WINDOW_BYTES + self.SLICE
        events.run()
        assert len(delivered) == state.num_slices > 3 * WINDOW_BYTES // self.SLICE
        for _, msg in delivered:
            assert np.array_equal(
                msg.payload, gf256.mul_chunk(0x53, chunk[msg.start:msg.stop])
            )
        assert len(state.scaled) < WINDOW_BYTES + self.SLICE  # the last window

    def test_a_dropped_slice_is_resent_with_the_first_sends_bytes(self):
        node, events, delivered, chunk, state = self._leaf()
        events.run()
        first = {msg.start: msg for _, msg in delivered}
        node.store.corrupt("s", 0, flips=4096, seed=1)  # rot after the sends
        del delivered[:]
        dropped, in_window = min(first), max(first)
        assert dropped < state.scaled_lo <= in_window  # both branches
        for lo in (dropped, in_window):
            assert node.retransmit(("s", 7), lo, first[lo].stop)
        events.run()
        assert [msg.start for _, msg in delivered] == [dropped, in_window]
        for _, msg in delivered:
            assert np.array_equal(msg.payload, first[msg.start].payload)
            assert msg.checksum == first[msg.start].checksum
            assert msg.checksum == slice_checksum(msg.payload)

    def test_rot_after_assign_never_reaches_the_stream(self):
        node, events, delivered, chunk, state = self._leaf()
        events.step()  # the first slice lands
        node.store.corrupt("s", 0, flips=4096, seed=1)
        events.run()
        for _, msg in delivered:
            assert np.array_equal(
                msg.payload, gf256.mul_chunk(0x53, chunk[msg.start:msg.stop])
            )


class TestHubRotMidRepair:
    """Bit rot under a hub, mid-repair, through the whole cluster.

    The first node to have received a slice for every one of its hub
    tasks has its own chunk rotted at that instant: each of its hub
    tasks has read its first slice and has slices still to come.  Those
    later slices carry the rotten bytes into the pipeline, the
    post-repair audit catches the poisoned rebuild, quarantines the
    hub's chunk and repairs again.  The values below were recorded with
    per-slice reads (before segment-granular scaling) and must not move:
    a hub that kept serving its pre-rot segment finishes clean on the
    first attempt (``retries == 0``, 420 events).
    """

    def test_outcome_matches_per_slice_reads(self):
        from ..integrity.conftest import build_system

        system, chunks, loc = build_system(seed=1)
        system.fail_node(0)
        hub_tasks = {}  # node -> pipeline ids of its hub tasks
        started = {}  # node -> pipeline ids that received a slice
        rotted, later = [], []
        for node in system.nodes:
            def assign(task, node=node, real=node.assign):
                if task.wait_for:
                    hub_tasks.setdefault(node.node_id, set()).add(task.pipeline_id)
                real(task)

            def receive(data, state, node=node, real=node.receive):
                real(data, state)
                nid = node.node_id
                if rotted:
                    if nid == rotted[0]:
                        later.append(data.start)
                    return
                started.setdefault(nid, set()).add(data.pipeline_id)
                if started[nid] == hub_tasks[nid]:
                    node.store.corrupt(
                        "s0", loc.placement.index(nid), flips=256, seed=5
                    )
                    rotted.append(nid)

            node.assign, node.receive = assign, receive
        outcome = system.repair("s0", 0, 10, on_failure="outcome")

        assert rotted == [6]
        assert len(later) == 19  # arrivals at the hub after its chunk rotted
        assert outcome.status == "completed"
        assert outcome.corruption_detected is True
        assert outcome.quarantined_chunks == (6,)
        assert outcome.retries == 1
        assert outcome.attempts == 2
        assert outcome.elapsed_seconds == pytest.approx(0.022816399538924375, rel=1e-12)
        assert system.events.executed == 751
        assert outcome.verified
        assert np.array_equal(outcome.rebuilt, chunks[0])


class TestLeafRotMidRepair:
    """Bit rot under a leaf, between its assign and its last send.

    A leaf scales its slices window by window from the view of its chunk
    taken at assign, and the store's ``corrupt`` is copy-on-write, so
    rot that lands after assign never reaches the leaf's stream — as
    when the leaf scaled its whole segment at assign.  The values below
    were recorded with whole-segment scaling and must not move: the
    stream stays clean, the rebuild verifies on the first attempt, and
    only the post-repair digest scan finds (and quarantines) the rot.
    """

    CHUNK = 2 * 1024 * 1024
    SLICE = 64 * 1024

    def _system(self):
        from repro.cluster import ClusterSystem
        from repro.ec import RSCode
        from repro.net import BandwidthSnapshot

        system = ClusterSystem(14, RSCode(9, 6), slice_bytes=self.SLICE)
        rng = np.random.default_rng(1)
        system.set_bandwidth(BandwidthSnapshot(
            uplink=rng.uniform(300.0, 1000.0, 14),
            downlink=rng.uniform(300.0, 1000.0, 14),
        ))
        data = rng.integers(0, 256, (6, self.CHUNK), dtype=np.uint8)
        loc = system.write_stripe("s0", data, placement=tuple(range(9)))
        return system, data, loc

    def _flip_seed(self, lo, hi):
        """The first ``corrupt(flips=1)`` seed whose flip lands in [lo, hi)."""
        seed = 0
        while not lo <= np.random.default_rng(seed).choice(self.CHUNK, 1)[0] < hi:
            seed += 1
        return seed

    def _run(self):
        system, data, loc = self._system()
        system.fail_node(0)
        rotted = []
        for node in system.nodes:
            def assign(task, node=node, real=node.assign):
                real(task)
                if rotted or task.wait_for or task.stop - task.start <= 5 * self.SLICE:
                    return
                # the flip lands past the leaf's first window and inside
                # its own range, so none of the node's hub tasks reads it
                seed = self._flip_seed(task.start + 4 * self.SLICE, task.stop)
                ci = loc.placement.index(node.node_id)
                rotted.append((node.node_id, seed))
                system.events.schedule(
                    0.0, lambda: node.store.corrupt("s0", ci, flips=1, seed=seed)
                )

            node.assign = assign
        outcome = system.repair("s0", 0, 10, on_failure="outcome")
        return system, data, rotted, outcome

    def test_outcome_matches_whole_segment_scaling(self):
        from repro.cluster.datanode import WINDOW_BYTES

        assert 4 * self.SLICE > WINDOW_BYTES + self.SLICE  # past the first window
        system, data, rotted, outcome = self._run()
        assert rotted == [(1, 6)]
        assert outcome.status == "completed"
        assert outcome.corruption_detected is True
        assert outcome.quarantined_chunks == (1,)
        assert outcome.retries == 0 and outcome.attempts == 1
        assert outcome.elapsed_seconds == pytest.approx(0.025837182545440367, rel=1e-12)
        assert system.events.executed == 2773
        assert outcome.verified
        assert np.array_equal(outcome.rebuilt, data[0])

    def test_a_leaf_scaling_from_the_live_store_fails_it(self, monkeypatch):
        from repro.cluster.datanode import DataNode

        real = DataNode._scale_window

        def live(self, state, idx):
            t = state.task
            state.source = self.store.view(t.stripe_id, t.chunk_index)
            real(self, state, idx)

        monkeypatch.setattr(DataNode, "_scale_window", live)
        system, data, rotted, outcome = self._run()
        assert rotted == [(1, 6)]
        assert (outcome.retries, system.events.executed) != (0, 2773)


def test_retired_attempts_hold_no_buffers():
    """After a re-planned repair no task state of any wire, retired or
    completed, still holds a byte buffer or a slice table."""
    from ..integrity.conftest import build_system

    system, chunks, loc = build_system(seed=1)
    system.fail_node(0)
    system.events.schedule(0.001, lambda: system.fail_node(3))
    outcome = system.repair("s0", 0, 10, on_failure="outcome")
    assert outcome.status == "completed" and outcome.attempts == 2
    assert np.array_equal(outcome.rebuilt, chunks[0])
    states = [
        state
        for node in system.nodes
        for pipelines in node.tasks.values()
        for state in pipelines.values()
    ]
    assert len({s.task.repair_id for s in states}) == 2 and len(states) > 10
    assert all(freed(state) for state in states)
