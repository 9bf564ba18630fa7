"""Durability harness: schema, determinism gate, and theory cross-check.

The gate tier re-runs the committed fixed-seed campaign — one million
stripe-years of (14, 10) against the real orchestrator — and requires
the loss count, stripes lost, and event total to reproduce the
committed ``BENCH_lifetime.json`` *exactly*: every draw in the
campaign comes from a named seeded stream, so a one-count drift means
a stream moved and every published durability number is suspect.  The
cross-check tier requires the Monte-Carlo MTTDL interval to bracket
the closed-form Markov-chain answer, and the sweep tier requires
durability to respond to the repair-speed knob in the right direction.
The scheduler tier runs the ``lifetime_schedulers`` claim of
``benchmarks/reproduction.py`` at its reduced trial count: FullRepair's
shorter full-node makespan must buy a strictly lower loss probability
and less degraded exposure than RP's.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.bench_lifetime import (
    GATE_EXPECTED,
    SCHEMA_VERSION,
    SWEEP_FACTORS,
    run,
)
from benchmarks.common import REPO_ROOT
from benchmarks.reproduction import CLAIMS, SCALES, evaluate

pytestmark = pytest.mark.lifetime


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    """One smoke pass per test module (writes outside the repo tree)."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_lifetime.json"
    report = run(smoke=True, out_path=out)
    return report, out


class TestSchema:
    def test_file_round_trips(self, smoke_report):
        report, path = smoke_report
        assert path.exists()
        assert json.loads(path.read_text()) == json.loads(json.dumps(report))

    def test_top_level_keys(self, smoke_report):
        report, _ = smoke_report
        assert report["benchmark"] == "lifetime"
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["config"]["smoke"] is True
        for key in ("gate", "crosscheck", "sweep"):
            assert key in report


class TestGate:
    def test_fixed_seed_campaign_reproduces_exactly(self, smoke_report):
        report, _ = smoke_report
        gate = report["gate"]
        assert gate["matches_expected"]
        for key, value in GATE_EXPECTED.items():
            assert gate[key] == value, key

    def test_million_stripe_years(self, smoke_report):
        report, _ = smoke_report
        assert report["gate"]["stripe_years"] >= 1_000_000

    def test_conservation(self, smoke_report):
        """Whatever was destroyed was either rebuilt or lost for good."""
        gate = smoke_report[0]["gate"]
        assert gate["chunks_destroyed"] > 0
        assert gate["chunks_rebuilt"] <= gate["chunks_destroyed"]

    def test_committed_artifact_matches_contract(self):
        """The artefact in the tree agrees with the in-code contract."""
        committed = json.loads(
            (REPO_ROOT / "BENCH_lifetime.json").read_text()
        )
        for key, value in GATE_EXPECTED.items():
            assert committed["gate"][key] == value, key
        assert committed["config"]["gate_expected"] == GATE_EXPECTED


class TestCrosscheck:
    def test_analytic_mttdl_within_simulated_ci(self, smoke_report):
        report, _ = smoke_report
        cc = report["crosscheck"]
        assert cc["loss_events"] > 0, "regime must actually lose data"
        assert cc["analytic_within_ci"]
        lo, hi = cc["sim_ci_s"]
        assert lo <= cc["analytic_mttdl_s"] <= hi


class TestSweep:
    def test_pipelining_improves_durability(self, smoke_report):
        report, _ = smoke_report
        sweep = report["sweep"]
        assert sweep["pipelining_reduces_losses"]
        fast = sweep[f"pipeline_{SWEEP_FACTORS[0]:g}"]
        slow = sweep[f"pipeline_{SWEEP_FACTORS[-1]:g}"]
        assert fast["losses"] < slow["losses"]
        assert fast["nines_lower"] > slow["nines_lower"]


class TestSchedulers:
    def test_fullrepair_more_durable_than_rp(self):
        claim = CLAIMS["lifetime_schedulers"]
        verdicts = evaluate(claim, claim.run(SCALES["tier1"]))
        assert verdicts["fullrepair_loses_data_less_often_than_rp"]
        assert verdicts["fullrepair_less_exposed_than_rp"]
