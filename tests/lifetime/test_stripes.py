"""The compact stripe-state table: bitmaps, losses, exposure windows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lifetime import StripeTable
from repro.obs.fleet import TDigest

pytestmark = pytest.mark.lifetime


def make_table(num_stripes=10, k=2):
    """(3, 2) stripes in two groups over six disks, no overlap."""
    patterns = np.array([[0, 1, 2], [3, 4, 5]], dtype=np.int32)
    return StripeTable(num_stripes, patterns, k=k)


def no_down():
    return np.zeros(6, dtype=bool)


class TestConstruction:
    def test_blocks_cover_population(self):
        table = make_table(num_stripes=11)
        assert table.group_size(0) + table.group_size(1) == 11
        assert int(table.starts[-1]) == 11

    def test_everything_starts_intact(self):
        table = make_table()
        assert table.surviving(0) == 3
        assert table.surviving_histogram().tolist() == [0, 0, 0, 10]

    def test_duplicate_disk_in_pattern_rejected(self):
        with pytest.raises(ValueError, match="repeats a disk"):
            StripeTable(4, np.array([[0, 0, 1], [2, 3, 4]]), k=2)

    @pytest.mark.parametrize(
        "stripes, patterns, k, message",
        [
            (4, [0, 1, 2], 2, r"\(groups, n\) array"),
            (4, [[0, 1, 2]], 4, "1 <= k <= n"),
            (4, [list(range(33))], 2, "up to n=32"),
            (1, [[0, 1, 2], [3, 4, 5]], 2, "one stripe per placement group"),
        ],
    )
    def test_malformed_table_rejected(self, stripes, patterns, k, message):
        with pytest.raises(ValueError, match=message):
            StripeTable(stripes, np.array(patterns), k=k)

    def test_group_ids_round_trip(self):
        table = make_table()
        assert table.group_ids == ("pg-000000", "pg-000001")
        assert table.group_of_id("pg-000001") == 1


class TestDestroyAndRebuild:
    def test_disk_death_clears_one_bit_groupwide(self):
        table = make_table()
        down = no_down()
        down[1] = True
        touched, losses = table.destroy_disk(1, 10.0, down)
        assert touched == [0] and not losses
        assert table.surviving(0) == 2
        assert table.surviving(1) == 3
        assert table.destroyed_slots(0) == ((1, 1),)
        assert table.chunks_destroyed == 1

    def test_second_death_loses_the_group(self):
        table = make_table()
        down = no_down()
        for disk in (0, 1):
            down[disk] = True
            _, losses = table.destroy_disk(disk, float(disk), down)
        assert len(losses) == 1
        loss = losses[0]
        assert loss.group == 0
        assert loss.surviving == 1
        assert loss.stripes == table.group_size(0)
        assert table.lost[0] and not table.lost[1]
        assert table.stripes_lost == table.group_size(0)

    def test_rebuild_relocates_pattern(self):
        table = make_table()
        down = no_down()
        down[2] = True
        table.destroy_disk(2, 1.0, down)
        # rebuild slot 2 onto (recovered) disk 2's replacement slot 5?
        # no — onto a different disk entirely, exercising relocation
        table.rebuild(0, [(2, 5)], 2.0, no_down())
        assert table.surviving(0) == 3
        assert table.promote(0).placement == (0, 1, 5)
        assert 0 in table.groups_on(5)
        assert 0 not in table.groups_on(2)
        assert table.chunks_rebuilt == 1

    def test_rebuild_of_lost_group_rejected(self):
        table = make_table()
        down = no_down()
        for disk in (0, 1):
            down[disk] = True
            table.destroy_disk(disk, 0.0, down)
        with pytest.raises(ValueError, match="was lost"):
            table.rebuild(0, [(0, 5)], 1.0, down)


class TestAvailability:
    def test_available_subtracts_unreachable_intact_chunks(self):
        table = make_table()
        down = no_down()
        down[0] = down[1] = True
        assert table.available(0, down) == 1
        assert table.available(1, down) == 3

    def test_destroyed_chunk_not_double_counted(self):
        table = make_table()
        down = no_down()
        down[0] = True
        table.destroy_disk(0, 0.0, down)
        # chunk 0 is destroyed AND its disk is down: available loses 1
        assert table.available(0, down) == 2


class TestExposureWindows:
    def test_degraded_window_closes_on_rebuild(self):
        table = make_table()
        down = no_down()
        down[0] = True
        table.destroy_disk(0, 100.0, down)
        down[0] = False
        table.rebuild(0, [(0, 0)], 160.0, down)
        digest = table.exposure_digest
        assert digest.count == table.group_size(0)
        assert digest.quantile(0.5) == pytest.approx(60.0)

    def test_transient_outage_opens_below_k_only(self):
        table = make_table()
        down = no_down()
        down[0] = down[1] = True  # 1 reachable < k=2, data intact
        for disk in (0, 1):
            table.touch_disk(disk, 10.0, down)
        down[0] = down[1] = False
        for disk in (0, 1):
            table.touch_disk(disk, 35.0, down)
        assert table.below_k_digest.count == table.group_size(0)
        assert table.below_k_digest.quantile(0.5) == pytest.approx(25.0)
        assert table.exposure_digest.count == 0  # nothing destroyed
        assert not table.loss_events

    def test_finalize_closes_open_windows(self):
        table = make_table()
        down = no_down()
        down[3] = True
        table.destroy_disk(3, 5.0, down)
        table.finalize(25.0, down)
        assert table.exposure_digest.count == table.group_size(1)
        assert table.exposure_digest.quantile(0.9) == pytest.approx(20.0)

    def test_loss_closes_windows_too(self):
        table = make_table()
        down = no_down()
        for t, disk in ((1.0, 0), (4.0, 1)):
            down[disk] = True
            table.destroy_disk(disk, t, down)
        assert table.exposure_digest.count == table.group_size(0)
        table.finalize(100.0, down)
        # the lost group contributes no further windows after death
        assert table.exposure_digest.count == table.group_size(0)


class TestPromotion:
    def test_promote_is_cached_and_demote_drops(self):
        table = make_table()
        stripe = table.promote(0)
        assert table.promote(0) is stripe
        assert table.active_count == 1
        table.demote(0)
        assert table.active_count == 0

    def test_promoted_view_tracks_relocation(self):
        table = make_table()
        stripe = table.promote(1)
        down = no_down()
        down[4] = True
        table.destroy_disk(4, 0.0, down)
        table.rebuild(1, [(1, 2)], 1.0, no_down())
        assert stripe.placement == (3, 2, 5)
        assert stripe.stripes == table.group_size(1)


# --------------------------------------------------------------------- #
# Equivalence to the per-stripe slow path, as a state space             #
# --------------------------------------------------------------------- #


class PerStripeReference:
    """The table's contract, stored the slow way.

    One ``uint32`` bitmap *per stripe*, rewritten a block at a time;
    group membership, availability and window conditions recomputed
    from scratch on every call (the semantics the group-granular table
    replaced).  Groups are walked in ascending order, so sketch means
    agree with the table's to rounding, not bit for bit.
    """

    def __init__(self, num_stripes, patterns, k):
        self.patterns = np.array(patterns, dtype=np.int32)
        self.num_groups, self.n = self.patterns.shape
        self.k = k
        sizes = np.full(self.num_groups, num_stripes // self.num_groups)
        sizes[: num_stripes % self.num_groups] += 1
        self.starts = np.concatenate(([0], np.cumsum(sizes)))
        self.intact = np.full(num_stripes, (1 << self.n) - 1, dtype=np.uint32)
        self.lost = np.zeros(self.num_groups, dtype=bool)
        self.degraded_since = np.full(self.num_groups, np.nan)
        self.below_k_since = np.full(self.num_groups, np.nan)
        self.exposure_digest = TDigest(64)
        self.below_k_digest = TDigest(64)
        self.losses = []
        self.chunks_destroyed = self.chunks_rebuilt = self.stripes_lost = 0

    def block(self, p):
        return slice(int(self.starts[p]), int(self.starts[p + 1]))

    def size(self, p):
        return int(self.starts[p + 1] - self.starts[p])

    def word(self, p):
        words = set(self.intact[self.block(p)].tolist())
        assert len(words) == 1  # block-uniform
        return words.pop()

    def groups_on(self, disk):
        return {p for p in range(self.num_groups) if disk in self.patterns[p]}

    def surviving(self, p):
        return self.word(p).bit_count()

    def destroyed_slots(self, p):
        return tuple(
            (j, int(self.patterns[p, j]))
            for j in range(self.n)
            if not self.word(p) & (1 << j)
        )

    def available(self, p, down):
        return sum(
            1
            for j in range(self.n)
            if self.word(p) & (1 << j) and not down[self.patterns[p, j]]
        )

    def histogram(self):
        return np.bincount(np.bitwise_count(self.intact), minlength=self.n + 1)

    def _window(self, since, digest, p, is_open, now):
        if is_open and np.isnan(since[p]):
            since[p] = now
        elif not is_open and not np.isnan(since[p]):
            digest.add(max(now - since[p], 0.0), self.size(p))
            since[p] = np.nan

    def _update(self, p, now, down):
        self._window(self.degraded_since, self.exposure_digest, p,
                     self.surviving(p) < self.n, now)
        self._window(self.below_k_since, self.below_k_digest, p,
                     self.available(p, down) < self.k, now)

    def destroy_disk(self, disk, now, down):
        for p in sorted(self.groups_on(disk)):
            slot = self.patterns[p].tolist().index(disk)
            if self.lost[p] or not self.word(p) & (1 << slot):
                continue
            self.intact[self.block(p)] &= np.uint32(~(1 << slot) & 0xFFFFFFFF)
            self.chunks_destroyed += 1
            if self.surviving(p) < self.k:
                self.lost[p] = True
                self.stripes_lost += self.size(p)
                self._window(self.degraded_since, self.exposure_digest, p, False, now)
                self._window(self.below_k_since, self.below_k_digest, p, False, now)
                self.losses.append((
                    now, p, self.size(p), self.surviving(p),
                    tuple(d for _, d in self.destroyed_slots(p)),
                ))
            else:
                self._update(p, now, down)

    def rebuild(self, p, repairs, now, down):
        for slot, target in repairs:
            self.patterns[p, slot] = target
            self.intact[self.block(p)] |= np.uint32(1 << slot)
        self.chunks_rebuilt += len(repairs)
        self._update(p, now, down)

    def touch_disk(self, disk, now, down):
        for p in sorted(self.groups_on(disk)):
            if not self.lost[p]:
                self._update(p, now, down)


NUM_DISKS = 9


@st.composite
def small_tables(draw):
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n - 1))
    groups = draw(st.integers(1, 4))
    patterns = [
        draw(st.permutations(range(NUM_DISKS)))[:n] for _ in range(groups)
    ]
    num_stripes = draw(st.integers(groups, 4 * groups + 3))
    return num_stripes, patterns, k


def assert_same_state(table, ref, down):
    for p in range(ref.num_groups):
        assert table.surviving(p) == ref.surviving(p)
        assert table.available(p, down) == ref.available(p, down)
        assert table.destroyed_slots(p) == ref.destroyed_slots(p)
        assert table.promote(p).placement == tuple(ref.patterns[p].tolist())
        assert bool(table.lost[p]) == bool(ref.lost[p])
        # which windows are open, and since when
        for mine, theirs in (
            (table._degraded_since[p], ref.degraded_since[p]),
            (table._below_k_since[p], ref.below_k_since[p]),
        ):
            assert (mine is None) == bool(np.isnan(theirs))
            assert mine is None or mine == theirs
    for disk in range(NUM_DISKS):
        assert table.groups_on(disk) == ref.groups_on(disk)
    assert table.surviving_histogram().tolist() == ref.histogram().tolist()
    assert table.intact.tolist() == ref.intact.tolist()
    assert [
        (e.time_s, e.group, e.stripes, e.surviving, e.destroyed_disks)
        for e in table.loss_events
    ] == ref.losses
    assert (table.chunks_destroyed, table.chunks_rebuilt, table.stripes_lost) == (
        ref.chunks_destroyed, ref.chunks_rebuilt, ref.stripes_lost
    )
    for mine, theirs in (
        (table.exposure_digest, ref.exposure_digest),
        (table.below_k_digest, ref.below_k_digest),
    ):
        assert mine.count == theirs.count
        assert mine.mean == pytest.approx(theirs.mean, rel=1e-9)


class TestEquivalentToPerStripeStorage:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_interleavings(self, data):
        num_stripes, patterns, k = data.draw(small_tables())
        table = StripeTable(num_stripes, np.array(patterns), k=k)
        ref = PerStripeReference(num_stripes, patterns, k)
        down = np.zeros(NUM_DISKS, dtype=bool)
        now = 0.0
        disks = st.integers(0, NUM_DISKS - 1)
        for _ in range(data.draw(st.integers(1, 30))):
            now += data.draw(st.floats(0.0, 50.0))
            repairable = [
                p for p in range(ref.num_groups)
                if not ref.lost[p] and ref.destroyed_slots(p)
            ]
            op = data.draw(st.sampled_from(
                ["destroy", "edge"] + ["rebuild"] * bool(repairable)
            ))
            if op == "destroy":
                disk = data.draw(disks)
                # orchestrated mode marks the dead disk down first;
                # process mode (pulse failures) leaves it reachable
                if data.draw(st.booleans()):
                    down[disk] = True
                for t in (table, ref):
                    t.destroy_disk(disk, now, down)
            elif op == "edge":
                disk = data.draw(disks)
                down[disk] = not down[disk]  # down edge or up edge
                for t in (table, ref):
                    t.touch_disk(disk, now, down)
            else:
                p = data.draw(st.sampled_from(repairable))
                gone = ref.destroyed_slots(p)
                chosen = data.draw(
                    st.lists(st.sampled_from(gone), min_size=1, unique=True)
                )
                spares = [
                    d for d in range(NUM_DISKS) if d not in ref.patterns[p]
                ]
                repairs = []
                for slot, disk in chosen:
                    # rebuild in place, or relocate onto an unused disk
                    if spares and data.draw(st.booleans()):
                        disk = spares.pop(
                            data.draw(st.integers(0, len(spares) - 1))
                        )
                    repairs.append((slot, disk))
                for t in (table, ref):
                    t.rebuild(p, list(repairs), now, down)
            assert_same_state(table, ref, down)
        t_final = now + 1.0
        table.finalize(t_final, down)
        for p in range(ref.num_groups):
            ref._window(ref.degraded_since, ref.exposure_digest, p, False, t_final)
            ref._window(ref.below_k_since, ref.below_k_digest, p, False, t_final)
        assert_same_state(table, ref, down)
