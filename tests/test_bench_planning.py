"""The planning perf harness: smoke run + BENCH_planning.json schema."""

from __future__ import annotations

import json

import pytest

from benchmarks.bench_planning import ALGORITHMS, SCHEMA_VERSION, run
from benchmarks.common import REPO_ROOT


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    """One smoke pass per test module (writes outside the repo tree)."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_planning.json"
    report = run(smoke=True, out_path=out)
    return report, out


class TestSchema:
    def test_file_round_trips(self, smoke_report):
        report, path = smoke_report
        assert path.exists()
        assert json.loads(path.read_text()) == json.loads(json.dumps(report))

    def test_top_level_keys(self, smoke_report):
        report, _ = smoke_report
        assert report["benchmark"] == "planning"
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["config"]["smoke"] is True
        for key in ("planning", "plan_cache"):
            assert key in report

    def test_planning_cells(self, smoke_report):
        report, _ = smoke_report
        planning = report["planning"]
        assert "n14_k10" in planning
        for cell in planning.values():
            for algo in ALGORITHMS:
                stats = cell[algo]
                assert stats["median_us"] > 0
                assert stats["p99_us"] >= stats["median_us"]
                assert stats["mean_us"] > 0
                assert stats["rounds"] > 0

    def test_plan_cache_section(self, smoke_report):
        report, _ = smoke_report
        cache = report["plan_cache"]
        assert cache["lookups"] > 0
        assert 0.5 < cache["hit_rate"] <= 1.0
        assert cache["hit_median_us"] > 0
        assert cache["miss_median_us"] > cache["hit_median_us"]
        assert cache["hit_speedup_vs_miss"] > 1.0

    def test_committed_artifact_matches_schema(self):
        """The repo-root artefact (full run) must stay schema-valid."""
        path = REPO_ROOT / "BENCH_planning.json"
        assert path.exists(), "run `python -m benchmarks.bench_planning`"
        report = json.loads(path.read_text())
        assert report["benchmark"] == "planning"
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["config"]["smoke"] is False
        assert set(report["planning"]["n14_k10"]) == set(ALGORITHMS)
