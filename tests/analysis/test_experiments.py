"""Experiment runners: sampling, comparisons, sweeps, Table I."""

import numpy as np
import pytest

from repro.analysis import (
    compare_algorithms,
    fixed_uneven_snapshot,
    make_fixed_context,
    repair_time_experiment,
    sample_contexts,
    slice_size_sweep,
    utilization_experiment,
)
from repro.net import units
from repro.workloads import make_trace

FAST_KWARGS = {"ppt": {"max_emulations": 200}}


class TestSampling:
    def test_sample_contexts_shape(self):
        trace = make_trace("tpcds", num_snapshots=300, seed=1)
        ctxs = sample_contexts(trace, 9, 6, 10, seed=2)
        assert len(ctxs) == 10
        for ctx in ctxs:
            assert ctx.num_helpers == 8
            assert ctx.k == 6
            assert ctx.requester not in ctx.helpers

    def test_sample_deterministic(self):
        trace = make_trace("tpcds", num_snapshots=300, seed=1)
        a = sample_contexts(trace, 6, 4, 5, seed=3)
        b = sample_contexts(trace, 6, 4, 5, seed=3)
        assert all(
            x.requester == y.requester and x.helpers == y.helpers
            for x, y in zip(a, b)
        )

    def test_too_small_trace_raises(self):
        trace = make_trace("tpcds", num_nodes=8, num_snapshots=50, seed=1)
        with pytest.raises(ValueError):
            sample_contexts(trace, 9, 6, 3)

    def test_chunk_index_populated(self):
        trace = make_trace("tpcds", num_snapshots=100, seed=1)
        ctx = sample_contexts(trace, 6, 4, 1, seed=4)[0]
        assert set(ctx.chunk_index) == set(ctx.helpers)
        assert sorted(ctx.chunk_index.values()) == [1, 2, 3, 4, 5]


class TestComparison:
    def test_compare_all_algorithms(self):
        trace = make_trace("tpcds", num_snapshots=300, seed=5)
        ctxs = sample_contexts(trace, 6, 4, 3, seed=6)
        timings = compare_algorithms(
            ctxs,
            algorithms=("rp", "pivotrepair", "fullrepair"),
        )
        assert set(timings) == {"rp", "pivotrepair", "fullrepair"}
        for series in timings.values():
            assert len(series) == 3
            for t in series:
                assert t.calc > 0 and t.transfer > 0
                assert t.overall == t.calc + t.transfer

    def test_repair_time_experiment_means(self):
        r = repair_time_experiment(
            workload="swim", n=6, k=4, num_samples=4, num_snapshots=300,
            seed=7, algorithm_kwargs=FAST_KWARGS,
        )
        assert r.mean_overall("fullrepair") > 0
        assert r.mean_transfer("rp") >= r.mean_transfer("fullrepair")

    def test_reduction_vs(self):
        r = repair_time_experiment(
            workload="swim", n=6, k=4, num_samples=4, num_snapshots=300,
            seed=7, algorithm_kwargs=FAST_KWARGS,
        )
        red = r.reduction_vs("fullrepair", "rp", "transfer")
        assert 0.0 <= red < 1.0

    def test_reduction_unknown_metric(self):
        r = repair_time_experiment(
            workload="swim", n=6, k=4, num_samples=2, num_snapshots=300,
            seed=7, algorithm_kwargs=FAST_KWARGS,
        )
        with pytest.raises(KeyError):
            r.reduction_vs("fullrepair", "rp", "banana")


class TestFixedContext:
    def test_snapshot_deterministic(self):
        a = fixed_uneven_snapshot(seed=11)
        b = fixed_uneven_snapshot(seed=11)
        assert np.array_equal(a.uplink, b.uplink)

    def test_snapshot_is_uneven(self):
        snap = fixed_uneven_snapshot()
        assert snap.cv(direction="mean") > 0.25

    def test_context_valid(self):
        ctx = make_fixed_context(6, 4)
        assert ctx.num_helpers == 5 and ctx.k == 4


class TestSweeps:
    def test_slice_size_sweep_shape(self):
        out = slice_size_sweep(
            slice_sizes_bytes=(units.kib(8), units.kib(64), units.kib(256)),
            algorithms=("rp", "fullrepair"),
            chunk_bytes=units.mib(8),
        )
        assert set(out) == {"rp", "fullrepair"}
        for series in out.values():
            assert len(series) == 3


class TestUtilizationExperiment:
    def test_structure_and_trend(self):
        table = utilization_experiment(
            num_snapshots=800,
            samples_per_workload=120,
            seed=3,
            algorithms=("rp", "pivotrepair", "fullrepair"),
        )
        assert table.cells, "no buckets populated"
        for bucket, algs in table.cells.items():
            for name, bkd in algs.items():
                total = bkd.selected_used + bkd.unselected + bkd.selected_unused
                assert total == pytest.approx(1.0, abs=1e-6)
        # FullRepair's utilisation beats RP's in every populated bucket
        for bucket, algs in table.cells.items():
            if "rp" in algs and "fullrepair" in algs:
                assert (
                    algs["fullrepair"].bandwidth_utilization
                    >= algs["rp"].bandwidth_utilization - 1e-9
                )


class TestSamplingEdgeCases:
    def test_uncongested_sampling(self):
        from repro.workloads import Trace
        import numpy as np

        flat = Trace(
            workload="flat", capacity_mbps=1000.0,
            uplink=np.full((50, 10), 900.0), downlink=np.full((50, 10), 900.0),
        )
        # nothing is congested: sampling must fail loudly
        with pytest.raises(ValueError, match="congested"):
            sample_contexts(flat, 6, 4, 2)

    def test_paper_constants(self):
        from repro.analysis import PAPER_ALGORITHMS, PAPER_CODES

        assert PAPER_CODES == ((6, 4), (9, 6), (12, 8), (14, 10))
        assert PAPER_ALGORITHMS == ("rp", "ppt", "pivotrepair", "fullrepair")
