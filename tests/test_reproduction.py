"""The claims table (``benchmarks/reproduction.py``) has teeth and stays in sync.

(a) every predicate of every claim holds at ``--scale tier1`` — and a
predicate fed a measurement that contradicts it, or with its verdict
flipped, fails the same helper; (b) the committed ``REPRODUCTION.json``
holds exactly the table's claims, text and predicate names with every
verdict true, and EXPERIMENTS.md's generated block is a fresh render of
it, byte for byte; (c) the comparison ``--check`` uses names the claim
and the field of a simulated number that moved by 1e-6 relative.  The
full-scale ``python -m benchmarks.reproduction --check`` (~25 s) is not
tier-1.
"""

from __future__ import annotations

import copy
import functools
import json

import pytest

from benchmarks.reproduction import (
    BEGIN,
    CLAIMS,
    DOC_PATH,
    END,
    JSON_PATH,
    SCALES,
    Run,
    differences,
    evaluate,
    main,
    render_document,
)

LOWEST = "fullrepair_transfer_lowest_in_every_cell_within_1pct"


@functools.cache
def tier1_run(claim_id: str) -> Run:
    return CLAIMS[claim_id].run(SCALES["tier1"])


def failed(claim, run: Run) -> list[str]:
    return [name for name, ok in evaluate(claim, run).items() if not ok]


@pytest.fixture(scope="module")
def committed() -> dict:
    return json.loads(JSON_PATH.read_text())


@pytest.mark.parametrize("claim_id", list(CLAIMS))
def test_every_predicate_holds_at_tier1_scale(claim_id):
    assert failed(CLAIMS[claim_id], tier1_run(claim_id)) == []


def test_a_contradicted_or_flipped_predicate_fails():
    claim, run = CLAIMS["fig6"], tier1_run("fig6")
    swapped = copy.deepcopy(run.measured)
    for cell in swapped["transfer_s"].values():
        cell["fullrepair"], cell["rp"] = cell["rp"], cell["fullrepair"]
    assert failed(claim, run._replace(measured=swapped)) == [LOWEST]
    holds = claim.predicates[LOWEST]
    flipped = claim._replace(
        predicates={**claim.predicates, LOWEST: lambda m: not holds(m)}
    )
    assert failed(flipped, run) == [LOWEST]


def test_committed_json_is_the_table_with_every_verdict_true(committed):
    assert [rec["id"] for rec in committed["claims"]] == list(CLAIMS)
    assert committed["scale"]["name"] == "full"
    for rec in committed["claims"]:
        claim = CLAIMS[rec["id"]]
        assert list(rec["predicates"]) == list(claim.predicates), rec["id"]
        assert all(rec["predicates"].values()), rec["id"]
        for key in ("artefact", "title", "inputs", "paper", "note"):
            assert rec[key] == getattr(claim, key), (rec["id"], key)


def test_document_block_is_a_fresh_render_of_the_json(committed):
    text = DOC_PATH.read_text()
    block = text[text.index(BEGIN) : text.index(END) + len(END)]
    assert block == render_document(committed)
    for claim_id in CLAIMS:
        assert f"(`{claim_id}`)" in block


def test_check_comparison_names_the_claim_and_the_field(committed):
    (rec,) = [r for r in committed["claims"] if r["id"] == "fig6"]
    value = rec["measured"]["transfer_s"]["swim (9,6)"]["fullrepair"]
    nudged = copy.deepcopy(rec)
    nudged["measured"]["transfer_s"]["swim (9,6)"]["fullrepair"] = value * (1 + 1e-12)
    assert differences(rec, nudged, "fig6") == []
    nudged["measured"]["transfer_s"]["swim (9,6)"]["fullrepair"] = value * (1 + 1e-6)
    (problem,) = differences(rec, nudged, "fig6")
    assert problem.startswith("fig6.measured.transfer_s.swim (9,6).fullrepair: ")
    nudged["note"] += " (edited)"
    del nudged["measured"]["reduction_pct"]
    fields = [problem.split(":")[0] for problem in differences(rec, nudged, "fig6")]
    assert fields == ["fig6.measured", "fig6.note"]


def test_host_timed_numbers_are_compared_by_key_only(committed):
    (rec,) = [r for r in committed["claims"] if r["id"] == "fig5"]
    other = copy.deepcopy(rec)
    other["host"]["calc_us"]["(14,10)"]["rp"] *= 2
    assert differences(rec, other, "fig5") == []
    del other["host"]["calc_us"]["(14,10)"]["rp"]
    assert len(differences(rec, other, "fig5")) == 1


def test_command_line_checks_some_claims_and_refuses_a_partial_write(capsys):
    assert main(["--check", "table2", "table3"]) == 0
    assert "- [x] t max mbps as in the paper" in capsys.readouterr().out
    for argv in (["--write", "--scale", "tier1"], ["--write", "fig7"], ["fig9"]):
        with pytest.raises(SystemExit):
            main(argv)
