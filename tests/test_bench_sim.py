"""The engine-scale harness: smoke run, schema, and the disabled-hooks gate.

The smoke tier re-runs the gate-protocol scenario (profiler disabled,
GC off, setup-subtracted) and checks what travels across machines:
event counts, the report's shape, and in-run ratios — the implied
disabled-hooks overhead against its 3 % ceiling.  Absolute events/s
are recorded in the artefact and never gated on here.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.bench_sim_engine import (
    GATE_PASSES,
    MAX_DISABLED_OVERHEAD_PERCENT,
    SCHEMA_VERSION,
    run,
)
from benchmarks.common import REPO_ROOT

pytestmark = pytest.mark.prof


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    """One smoke pass per test module (writes outside the repo tree)."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_sim.json"
    report = run(smoke=True, out_path=out)
    return report, out


class TestSchema:
    def test_file_round_trips(self, smoke_report):
        report, path = smoke_report
        assert path.exists()
        assert json.loads(path.read_text()) == json.loads(json.dumps(report))

    def test_top_level_keys(self, smoke_report):
        report, _ = smoke_report
        assert report["benchmark"] == "sim"
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["config"]["smoke"] is True
        for key in ("gate", "profiled", "optimization"):
            assert key in report

    def test_gate_section(self, smoke_report):
        report, _ = smoke_report
        gate = report["gate"]
        assert gate["events"] > 10_000
        assert gate["repaired"] > 0
        assert len(gate["passes_events_per_s"]) == GATE_PASSES
        assert gate["events_per_s"] == max(gate["passes_events_per_s"])
        assert gate["events_per_s"] > 0
        assert gate["engine_wall_s"] > 0

    def test_disabled_overhead_bounded_in_fresh_run(self, smoke_report):
        """The disabled-hooks contract, re-proven on every smoke run."""
        report, _ = smoke_report
        ov = report["gate"]["disabled_overhead"]
        assert ov["max_overhead_percent"] == MAX_DISABLED_OVERHEAD_PERCENT
        assert ov["implied_overhead_percent"] <= MAX_DISABLED_OVERHEAD_PERCENT
        assert ov["pass"] is True
        # both measured ingredients are present: per call and per event
        assert ov["empty_run_dispatch_ns"] > 0
        assert ov["per_event_added_ns"] >= 0

    def test_profiled_section(self, smoke_report):
        report, _ = smoke_report
        prof = report["profiled"]
        assert prof["events"] == report["gate"]["events"]
        assert prof["events_per_s"] > 0
        assert prof["heartbeats"] >= 1
        assert prof["hot_sites"], "profiler attributed no sites"
        top = prof["hot_sites"][0]
        for key in ("site", "events", "self_ms", "mean_us"):
            assert key in top
        # the data plane, not the profiler's own bookkeeping, must top
        # the attribution for a slice-heavy scenario
        assert "DataNode" in top["site"]

    def test_optimization_record(self, smoke_report):
        report, _ = smoke_report
        opt = report["optimization"]
        before, after = opt["before"], opt["after"]
        assert after["tick_mean_us"] < before["tick_mean_us"] / 3
        assert (
            after["disabled_events_per_s_median"]
            > before["disabled_events_per_s_median"]
        )
        # the live re-measurement keeps the claim falsifiable: the
        # optimised tick must stay well under the recorded before cost
        live = after.get("tick_mean_us_this_run")
        if live is not None:
            assert live < before["tick_mean_us"] * 0.6

    def test_artefacts_written(self, smoke_report):
        report, out = smoke_report
        prof = report["profiled"]
        for rel in prof["artefacts"]:
            # a smoke run writes beside its report (absolute when that
            # is outside the repo), never into tracked benchmarks/out
            path = REPO_ROOT / rel
            assert path.exists(), rel
            assert path.parent == out.parent
        speedscope = json.loads(
            (REPO_ROOT / prof["artefacts"][0]).read_text()
        )
        assert speedscope["profiles"][0]["type"] == "sampled"
        assert speedscope["profiles"][0]["weights"]
        heartbeats = [
            json.loads(line)
            for line in (REPO_ROOT / prof["artefacts"][2])
            .read_text().splitlines()
        ]
        assert len(heartbeats) == prof["heartbeats"]
        assert heartbeats[-1]["final"] is True


class TestCommittedArtifact:
    def test_committed_artifact_matches_schema(self):
        path = REPO_ROOT / "BENCH_sim.json"
        assert path.exists(), "run `python -m benchmarks.bench_sim_engine`"
        report = json.loads(path.read_text())
        assert report["benchmark"] == "sim"
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["config"]["smoke"] is False
        assert report["gate"]["disabled_overhead"]["pass"] is True

    def test_committed_million_event_run(self):
        """The headline scale target: ~1M events through one recovery."""
        report = json.loads((REPO_ROOT / "BENCH_sim.json").read_text())
        million = report["million_event"]
        assert million["disabled"]["events"] >= 900_000
        assert million["disabled"]["events_per_s"] > 0
        assert million["profiled"]["events"] >= 900_000
        assert million["profiled"]["heartbeats"] >= 3

    def test_merges_into_bench_trajectory(self):
        """`repro bench report` picks the artefact up like the others."""
        from repro.analysis import merge_bench_reports, render_bench_trajectory

        report = json.loads((REPO_ROOT / "BENCH_sim.json").read_text())
        merged = merge_bench_reports({"BENCH_sim.json": report})
        (entry,) = merged["reports"]
        assert entry["benchmark"] == "sim"
        assert "gate.events_per_s" in entry["metrics"]
        text = render_bench_trajectory(merged)
        assert "gate.events_per_s" in text
