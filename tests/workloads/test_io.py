"""Trace persistence and statistics."""

import numpy as np
import pytest

from repro.workloads import (
    Trace,
    load_trace,
    make_trace,
    save_trace,
    trace_stats,
)


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        trace = make_trace("tpch", num_snapshots=80, seed=3)
        path = save_trace(trace, tmp_path / "t.npz")
        loaded = load_trace(path)
        assert loaded.workload == "tpch"
        assert loaded.capacity_mbps == trace.capacity_mbps
        assert np.array_equal(loaded.uplink, trace.uplink)
        assert np.array_equal(loaded.downlink, trace.downlink)

    def test_suffix_added(self, tmp_path):
        trace = make_trace("swim", num_snapshots=10, seed=1)
        path = save_trace(trace, tmp_path / "noext")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_foreign_archive_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, stuff=np.ones(3))
        with pytest.raises(ValueError, match="not a repro trace"):
            load_trace(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez(
            path,
            uplink=np.ones((2, 2)),
            downlink=np.ones((2, 2)),
            capacity_mbps=np.array([100.0]),
            workload=np.array(["x"]),
            format_version=np.array([99]),
        )
        with pytest.raises(ValueError, match="newer"):
            load_trace(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "absent.npz")


class TestStats:
    def test_fields_consistent(self):
        trace = make_trace("swim", num_snapshots=300, seed=5)
        stats = trace_stats(trace)
        assert stats.workload == "swim"
        assert stats.num_snapshots == 300
        assert stats.num_nodes == 16
        assert 0 < stats.p05_available_mbps <= stats.mean_available_mbps
        assert stats.mean_available_mbps <= stats.p95_available_mbps
        assert 0 <= stats.congested_fraction <= 1
        assert stats.cv_mean <= stats.cv_p95

    def test_threshold_changes_congestion(self):
        trace = make_trace("tpcds", num_snapshots=300, seed=6)
        strict = trace_stats(trace, congestion_threshold=0.1)
        loose = trace_stats(trace, congestion_threshold=0.8)
        assert strict.congested_fraction <= loose.congested_fraction

    def test_uniform_trace_stats(self):
        trace = Trace(
            workload="flat",
            capacity_mbps=100.0,
            uplink=np.full((10, 4), 50.0),
            downlink=np.full((10, 4), 50.0),
        )
        stats = trace_stats(trace)
        assert stats.cv_mean == 0.0
        assert stats.mean_available_mbps == 50.0


class TestTraceChecks:
    """A trace is checked once, when built, and is read-only after."""

    @pytest.mark.parametrize("direction", ["uplink", "downlink"])
    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_bandwidth_not_at_least_zero_raises(self, direction, bad):
        arrays = {"uplink": np.full((4, 3), 10.0), "downlink": np.full((4, 3), 10.0)}
        arrays[direction][2, 1] = bad
        with pytest.raises(ValueError, match="non-negative"):
            Trace(workload="flat", capacity_mbps=100.0, **arrays)

    @pytest.mark.parametrize(
        "up, down", [(np.ones((4, 3)), np.ones((4, 2))), (np.ones(3), np.ones(3))]
    )
    def test_shape_raises(self, up, down):
        with pytest.raises(ValueError, match="equal-shape"):
            Trace(workload="flat", capacity_mbps=100.0, uplink=up, downlink=down)

    def test_integer_arrays_converted_and_infinity_kept(self):
        trace = Trace(
            workload="flat", capacity_mbps=100.0,
            uplink=np.full((3, 2), 7, dtype=np.int32), downlink=np.full((3, 2), np.inf),
        )
        assert trace.uplink.dtype == trace.downlink.dtype == np.float64
        snap = trace.snapshot(1)
        assert snap.uplink.tolist() == [7.0, 7.0]
        assert snap.downlink.tolist() == [np.inf, np.inf]

    def test_a_write_through_a_views_base_cannot_reach_it(self):
        """The trace owns its arrays: column slices of one writable array
        are copied, so a write to that array after the check reaches no
        snapshot."""
        big = np.full((5, 6), 50.0)
        trace = Trace(
            workload="flat", capacity_mbps=100.0,
            uplink=big[:, :3], downlink=big[:, 3:],
        )
        big[3, 1] = -7.0
        big[3, 4] = np.nan
        snap = trace.snapshot(3)
        assert snap.uplink.tolist() == [50.0] * 3
        assert snap.downlink.tolist() == [50.0] * 3
        assert trace.uplink.flags.owndata and trace.downlink.flags.owndata
        assert big.flags.writeable

    def test_load_trace_refuses_nan(self, tmp_path):
        trace = make_trace("tpch", num_snapshots=10, seed=3)
        up = trace.uplink.copy()
        up[4, 2] = np.nan
        np.savez_compressed(
            tmp_path / "nan.npz", uplink=up, downlink=trace.downlink,
            capacity_mbps=np.array([trace.capacity_mbps]),
            workload=np.array([trace.workload]), format_version=np.array([1]),
        )
        with pytest.raises(ValueError, match="non-negative"):
            load_trace(tmp_path / "nan.npz")
