"""Bandwidth snapshots and repair contexts."""

import numpy as np
import pytest

from repro.net import BandwidthSnapshot, RepairContext


class TestSnapshot:
    def test_basic_properties(self, fig2_snapshot):
        assert fig2_snapshot.num_nodes == 5
        assert len(fig2_snapshot) == 5
        assert fig2_snapshot.uplink[2] == 960.0
        assert fig2_snapshot.downlink[2] == 1000.0

    def test_immutable_arrays(self, fig2_snapshot):
        with pytest.raises(ValueError):
            fig2_snapshot.uplink[0] = 5.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            BandwidthSnapshot(uplink=np.ones(3), downlink=np.ones(4))

    def test_negative_bandwidth_raises(self):
        with pytest.raises(ValueError):
            BandwidthSnapshot(uplink=np.array([-1.0]), downlink=np.array([1.0]))

    @pytest.mark.parametrize("direction", ["uplink", "downlink"])
    @pytest.mark.parametrize("bad", [np.nan, -1.0, -np.inf])
    def test_bandwidth_not_at_least_zero_raises(self, direction, bad):
        arrays = {"uplink": np.full(3, 10.0), "downlink": np.full(3, 10.0)}
        arrays[direction][1] = bad
        with pytest.raises(ValueError, match="non-negative"):
            BandwidthSnapshot(**arrays)

    def test_a_write_through_a_views_base_cannot_reach_it(self):
        """The snapshot owns its arrays: a view's writable base changed
        after the check changes nothing the snapshot holds."""
        table = np.full((2, 4), 100.0)
        snap = BandwidthSnapshot(uplink=table[0], downlink=table[1])
        table[0, 2] = np.nan
        table[1, 1] = -7.0
        assert snap.uplink.tolist() == [100.0] * 4
        assert snap.downlink.tolist() == [100.0] * 4
        assert snap.uplink.flags.owndata and snap.downlink.flags.owndata

    def test_the_callers_array_is_copied_not_frozen(self):
        """Neither another view of the caller's array nor the caller's
        own handle reaches the snapshot, and the caller's array stays
        writable."""
        up, down = np.full(3, 10.0), np.full(3, 20.0)
        other = up[:]
        snap = BandwidthSnapshot(uplink=up, downlink=down)
        other[0] = -1.0
        down[2] = np.nan
        assert snap.uplink.tolist() == [10.0] * 3
        assert snap.downlink.tolist() == [20.0] * 3
        with pytest.raises(ValueError, match="read-only"):
            snap.uplink[0] = 1.0

    def test_infinite_and_empty_bandwidths_accepted(self):
        inf = BandwidthSnapshot.symmetric([np.inf, 0.0])
        assert inf.uplink[0] == np.inf and inf.downlink[1] == 0.0
        assert BandwidthSnapshot(uplink=np.empty(0), downlink=np.empty(0)).num_nodes == 0

    def test_symmetric_constructor(self):
        s = BandwidthSnapshot.symmetric([100.0, 200.0])
        assert np.array_equal(s.uplink, s.downlink)
        assert s.uplink[1] == 200.0

    def test_uniform_constructor(self):
        s = BandwidthSnapshot.uniform(4, 500.0)
        assert s.num_nodes == 4
        assert (s.uplink == 500.0).all() and (s.downlink == 500.0).all()

    def test_restrict(self, fig2_snapshot):
        sub = fig2_snapshot.restrict([2, 4])
        assert sub.num_nodes == 2
        assert sub.uplink[0] == 960.0
        assert sub.uplink[1] == 600.0

    def test_cv_uniform_is_zero(self):
        assert BandwidthSnapshot.uniform(8, 300.0).cv() == 0.0

    def test_cv_directions(self, fig2_snapshot):
        up = fig2_snapshot.cv(direction="uplink")
        down = fig2_snapshot.cv(direction="downlink")
        mean = fig2_snapshot.cv(direction="mean")
        assert up > 0 and down > 0 and mean > 0
        assert down > up  # downlinks are more skewed in Fig. 2

    def test_cv_zero_mean(self):
        assert BandwidthSnapshot.uniform(4, 0.0).cv() == 0.0

    def test_cv_unknown_direction(self, fig2_snapshot):
        with pytest.raises(ValueError):
            fig2_snapshot.cv(direction="sideways")


class TestRepairContext:
    def test_valid(self, fig2_context):
        assert fig2_context.num_helpers == 4
        assert fig2_context.k == 3
        assert fig2_context.uplink(2) == 960.0
        assert fig2_context.downlink(0) == 1000.0

    def test_requester_among_helpers_raises(self, fig2_snapshot):
        with pytest.raises(ValueError):
            RepairContext(snapshot=fig2_snapshot, requester=1, helpers=(1, 2, 3), k=3)

    def test_duplicate_helpers_raise(self, fig2_snapshot):
        with pytest.raises(ValueError):
            RepairContext(snapshot=fig2_snapshot, requester=0, helpers=(1, 1, 2), k=2)

    @pytest.mark.parametrize(
        "requester, helpers", [(9, (1, 2, 3)), (5, (1, 2, 3)), (-1, (1, 2, 3)),
                               (0, (1, 2, 5)), (0, (-1, 2, 3))],
    )
    def test_out_of_range_ids_raise(self, fig2_snapshot, requester, helpers):
        with pytest.raises(ValueError, match="out of snapshot range"):
            RepairContext(snapshot=fig2_snapshot, requester=requester, helpers=helpers, k=3)

    def test_edge_ids_accepted(self, fig2_snapshot):
        ctx = RepairContext(snapshot=fig2_snapshot, requester=4, helpers=(0, 1, 2), k=3)
        assert (ctx.requester, ctx.helpers) == (4, (0, 1, 2))

    def test_too_few_helpers_raise(self, fig2_snapshot):
        with pytest.raises(ValueError):
            RepairContext(snapshot=fig2_snapshot, requester=0, helpers=(1, 2), k=3)

    def test_k_must_be_positive(self, fig2_snapshot):
        with pytest.raises(ValueError):
            RepairContext(snapshot=fig2_snapshot, requester=0, helpers=(1, 2, 3), k=0)

    def test_helpers_coerced_to_ints(self, fig2_snapshot):
        ctx = RepairContext(
            snapshot=fig2_snapshot, requester=0, helpers=(np.int64(1), 2, 3), k=3
        )
        assert all(isinstance(h, int) for h in ctx.helpers)
