"""The ``detect`` claim row by row: what its five predicates summarise.

The claim (``benchmarks/reproduction.py``) runs a watchdog fault matrix
in simulated time and a drift suite of re-planning policies whose clock
carries each plan's measured calculation time.  Its predicates judge
means and "every case" folds; these tests pin the rows under them:

* the watchdog rows do not depend on the scale, so the tier-1 run must
  reproduce the committed full-scale rows exactly;
* each arm intervenes the way its name says — the timeout-only arm never
  through the detector, the detector arm through ``detect.abort`` on
  every fault and not at all on the clean repair;
* every drift case runs all four policies, ordered as the note states:
  re-planning every second beats every 3 s, which beats re-planning on
  alarms, which beats never re-planning;
* the note quotes the committed numbers it rests on.
"""

from __future__ import annotations

import json
import statistics

import pytest

from benchmarks.reproduction import (
    CLAIMS,
    DRIFT_POLICIES,
    JSON_PATH,
    WATCHDOG_ARMS,
    WATCHDOG_FAULTS,
    differences,
)
from tests.test_reproduction import tier1_run

pytestmark = pytest.mark.detect

FAULTS = [fault for fault in WATCHDOG_FAULTS if fault != "clean"]
DRIFT_CASES = ("drifting", "dead_helper", "straggler")


@pytest.fixture(scope="module")
def fresh() -> dict:
    run = tier1_run("detect")
    return {**run.measured, **run.host}


@pytest.fixture(scope="module")
def committed() -> dict:
    (rec,) = [rec for rec in json.loads(JSON_PATH.read_text())["claims"]
              if rec["id"] == "detect"]
    return rec


@pytest.mark.parametrize("fault", list(WATCHDOG_FAULTS))
def test_watchdog_rows_reproduce_the_committed_record(fault, fresh, committed):
    measured = committed["measured"]
    path = f"detect.measured.watchdog.{fault}"
    assert differences(measured["watchdog"][fault], fresh["watchdog"][fault], path) == []
    if fault != "clean":
        assert differences(measured["time_to_mitigation_s"][fault],
                           fresh["time_to_mitigation_s"][fault], path) == []


def test_clean_repair_is_identical_on_both_arms(fresh):
    """With no fault the detector is a pure observer."""
    clean = fresh["watchdog"]["clean"]
    assert clean["detector"] == clean["timeout_only"]
    assert clean["detector"]["first_intervention"] == "none"
    assert clean["detector"]["status"] == "completed"


@pytest.mark.parametrize("fault", list(WATCHDOG_FAULTS))
def test_timeout_only_arm_never_aborts_through_the_detector(fault, fresh):
    row = fresh["watchdog"][fault]["timeout_only"]
    assert row["detect_aborts"] == 0
    assert row["first_intervention"] in ("none", "watchdog.fire")


@pytest.mark.parametrize("fault", FAULTS)
def test_detector_arm_aborts_once_on_every_fault(fault, fresh):
    row = fresh["watchdog"][fault]["detector"]
    assert row["first_intervention"] == "detect.abort"
    assert row["detect_aborts"] == 1
    assert row["retries"] >= 1


@pytest.mark.parametrize("fault", FAULTS)
def test_time_to_mitigation_counts_from_the_fault(fault, fresh):
    """The first intervention, or without one the rest of the repair."""
    mitigation = fresh["time_to_mitigation_s"][fault]
    for arm in WATCHDOG_ARMS:
        row = fresh["watchdog"][fault][arm]
        rest = row["elapsed_s"] - fresh["fault_at_s"]
        assert 0 < mitigation[arm] <= rest * (1 + 1e-12)
        if row["first_intervention"] == "none":
            assert mitigation[arm] == pytest.approx(rest, rel=1e-12)


def test_mean_time_to_mitigation_is_over_the_three_faults(fresh):
    mitigation = fresh["time_to_mitigation_s"]
    assert list(mitigation) == [*FAULTS, "mean"]
    for arm in WATCHDOG_ARMS:
        assert mitigation["mean"][arm] == pytest.approx(
            statistics.fmean(mitigation[fault][arm] for fault in FAULTS), rel=1e-12
        )


def test_helper_straggler_detector_arm_completes_later(fresh):
    """What the lower mean hides: aborting a capped helper and re-planning
    costs more than letting it trickle on."""
    rows = fresh["watchdog"]["helper_straggler"]
    assert rows["timeout_only"]["first_intervention"] == "none"
    assert rows["detector"]["elapsed_s"] > rows["timeout_only"]["elapsed_s"]


@pytest.mark.parametrize("case", DRIFT_CASES)
def test_drift_case_runs_every_policy(case, fresh):
    for field in ("drift_s", "replans", "completed"):
        assert list(fresh[field][case]) == list(DRIFT_POLICIES), field
    assert all(seconds > 0 for seconds in fresh["drift_s"][case].values())


@pytest.mark.parametrize("case", DRIFT_CASES)
def test_replans_fall_from_oracle_to_never(case, fresh):
    replans = fresh["replans"][case]
    assert replans["oracle"] > replans["interval"] > replans["detect"] > replans["never"] == 0


@pytest.mark.parametrize("case", DRIFT_CASES)
def test_only_never_on_a_dead_helper_stalls_out(case, fresh):
    completed = fresh["completed"][case]
    assert completed == {policy: not (case == "dead_helper" and policy == "never")
                         for policy in DRIFT_POLICIES}


@pytest.mark.parametrize("case", DRIFT_CASES)
def test_detect_sits_between_the_fixed_period_and_never(case, fresh):
    """Detection beats never re-planning, not a fixed 3 s period."""
    seconds = fresh["drift_s"][case]
    assert seconds["oracle"] < seconds["interval"] < seconds["detect"] < seconds["never"]


def test_flat_trace_raises_no_alarm_and_never_replans(fresh):
    flat = fresh["flat_trace"]
    assert (flat["alarms"], flat["replans"]) == (0, 0)
    assert flat["seconds"] > 0


def test_note_quotes_the_committed_record(committed):
    """The simulated numbers the note quotes are the record's; the
    host-timed ordering it states holds in the record on every case."""
    straggler = committed["measured"]["watchdog"]["helper_straggler"]
    assert committed["note"] == CLAIMS["detect"].note
    assert (f"({straggler['detector']['elapsed_s']:.4f} vs "
            f"{straggler['timeout_only']['elapsed_s']:.4f} s)") in committed["note"]
    for case, seconds in committed["host"]["drift_s"].items():
        assert seconds["interval"] < seconds["detect"] < seconds["never"], case
