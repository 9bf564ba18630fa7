"""Self-tests of the benchmark, at ``--smoke`` scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` from the
repository root.  They test the harness, not the program: the program's
behaviour is what the benchmark's own checks are for.
"""

from __future__ import annotations

import json
import re
import shutil

import numpy as np
import pytest

from benchmarks.e2e import __main__ as cli
from benchmarks.e2e import check, harness, layers, tracing
from benchmarks.e2e.workloads import WORKLOADS

DECLARED = check.declared_metrics()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced smoke run of every workload."""
    out = tmp_path_factory.mktemp("out")
    results = {}
    for name in WORKLOADS:
        for trace in (False, True):
            lines: list[str] = []
            result = harness.run(
                name, seconds=0.1, trace=trace, smoke=True, out_dir=out,
                emit=lines.append,
            )
            results[name, trace] = (result, "\n".join(lines))
    return results, out


# ---- BENCHMARK.json ---------------------------------------------------- #


def test_declaration_stays_inside_the_contract():
    assert sorted(DECLARED) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    assert isinstance(DECLARED["run_seconds"], int) and 1 <= DECLARED["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in DECLARED[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(n) for n in names)
    for metric in DECLARED["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    for spec in DECLARED["workloads"]:
        assert spec["why"] == WORKLOADS[spec["name"]].why
        assert len(spec["why"]) <= 200 and "\n" not in spec["why"]


# ---- what a run prints ------------------------------------------------- #


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(runs, workload):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, text = runs[0][workload, trace]
        assert result["correct"] and result["failed"] == 0, text
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in DECLARED[section]}
        for spec in DECLARED[section]:
            assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
            assert re.search(
                rf"^\s+{re.escape(spec['name'])}\s+\S+ {re.escape(spec['unit'])}\b",
                text, re.M,
            ), f"{spec['name']} not printed"
    untraced = runs[0][workload, False][0]["metrics"]
    assert all(m["value"] > 0 for m in untraced.values()), "an end-to-end metric is 0"
    assert untraced["setup_s"]["value"] > 0


def test_result_line_is_one_json_object(runs):
    result, _text = runs[0]["plan_sweep", False]
    line = harness.result_line(result)
    assert "\n" not in line
    assert sorted(json.loads(line)) == ["attempted", "correct", "failed", "metrics"]


def test_traced_run_writes_its_spans_and_nothing_else(runs):
    _results, out = runs
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{name}.spans.jsonl.gz" for name in WORKLOADS
    )


def test_ledger_sums_to_the_traced_op_wall(runs):
    for name in WORKLOADS:
        _result, text = runs[0][name, True]
        total, wall = re.search(r"= sum\s+([\d.]+) ms\s+traced op wall ([\d.]+) ms", text).groups()
        assert float(total) == pytest.approx(float(wall), rel=1e-9)
        assert "trace.overhead_ratio" in text and "ledger.unattributed_share" in text


# ---- inputs ------------------------------------------------------------ #


def _inputs(name: str, seed: int):
    """The seeded inputs a workload hands to the program, as plain values."""
    wl = WORKLOADS[name](seed, smoke=True)
    state = wl.setup()
    if name == "plan_sweep":
        return [
            (c.requester, c.helpers, c.k, c.snapshot.uplink.tobytes(),
             c.snapshot.downlink.tobytes())
            for c in state.contexts
        ]
    if name == "repair_clean":
        return state.data.tobytes(), [s.uplink.tobytes() for s in state.snapshots]
    if name == "repair_chaos":
        return state.data.tobytes(), [inj.faults for (_sys, inj) in state.clusters]
    return state.config if name == "lifetime_campaign" else wl.config


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


# ---- tracing ----------------------------------------------------------- #


def test_every_patched_attribute_is_restored_to_the_identical_object():
    targets = layers.targets()
    before = [site for t in targets for site in tracing._binding_sites(t)]
    tracer = tracing.Tracer()
    tracer.install(targets)
    assert all(vars(h)[a] is not o for (h, a, o) in before)
    harness.run_round(WORKLOADS["repair_chaos"](2023, smoke=True), tracer)
    tracer.uninstall()
    assert all(vars(h)[a] is o for (h, a, o) in before)
    assert len(tracer.starts) > 100


def test_uninstall_restores_a_binding_made_while_installed():
    import repro.cluster.system as system_module
    from repro.integrity.digest import slice_checksum

    tracer = tracing.Tracer()
    tracer.install([tracing.Target("x", "integrity", slice_checksum)])
    system_module.late_alias = system_module.slice_checksum  # "from x import f", late
    try:
        assert system_module.late_alias is not slice_checksum
        tracer.uninstall()
        assert system_module.late_alias is slice_checksum
    finally:
        del system_module.late_alias


def test_self_times_nested_sibling_zero_length():
    #        0: root [0, 100)
    #        1:   a [10, 40)      2: b in a [10, 10) zero-length
    #        3:   c [40, 90)      4: d in c [50, 70)   5: e in d [55, 60)
    parents = [-1, 0, 1, 0, 3, 4]
    starts = [0, 10, 10, 40, 50, 55]
    ends = [100, 40, 10, 90, 70, 60]
    selfs = tracing.self_times(parents, starts, ends)
    assert selfs.tolist() == [20, 30, 0, 30, 15, 5]
    assert selfs.sum() == 100


def test_self_times_of_reentrant_calls_sum_to_the_root_exactly():
    class Tree:
        def walk(self, depth):
            return 1 + sum(self.walk(depth - 1) for _ in range(2)) if depth else 1

    tracer = tracing.Tracer()
    tracer.install([tracing.Target("walk", "t", Tree, "walk")])
    root = tracer.begin(tracer.sid(tracing.ROOT, "root"))
    calls = Tree().walk(6)
    duration = tracer.end(root)
    tracer.uninstall()
    assert "walk" in vars(Tree) and not hasattr(Tree.walk, "__wrapped__")
    sids, parents, starts, ends = tracer.columns()
    assert len(sids) == calls + 1 == 128
    assert tracing.self_times(parents, starts, ends).sum() == duration
    assert (tracing.op_ids(sids, parents, tracer.sid(tracing.ROOT, "root")) == 0).all()


def test_spans_outside_an_op_are_not_counted_in_it():
    tracer = tracing.Tracer()
    root, setup = tracer.sid(tracing.ROOT, "root"), tracer.sid(tracing.SETUP, "setup")
    inner = tracer.sid("inner", "x")
    for top in (setup, root, setup, root):
        span = tracer.begin(top)
        tracer.end(tracer.begin(inner))
        tracer.end(span)
    sids, parents, _starts, _ends = tracer.columns()
    assert tracing.op_ids(sids, parents, root).tolist() == [-1, -1, 0, 0, -1, -1, 1, 1]


# ---- checks ------------------------------------------------------------ #


def test_differences_are_exact_for_counts_and_tolerant_for_floats():
    same = {"a": [1, "completed", 0.1 + 0.2], "b": {"n": 5}}
    assert check.differences(same, {"a": [1, "completed", 0.3], "b": {"n": 5}}) == []
    assert check.differences(same, {"a": [1, "completed", 0.3001], "b": {"n": 5}})
    assert check.differences(same, {"a": [2, "completed", 0.3], "b": {"n": 5}})
    assert check.differences(same, {"a": [1, "failed", 0.3], "b": {"n": 5}})
    assert check.differences(same, {"a": [1, "completed", 0.3]})


def test_a_corrupted_expected_value_fails_the_command(tmp_path, monkeypatch, capsys):
    corrupted = tmp_path / "expected.json"
    shutil.copy(check.EXPECTED_PATH, corrupted)
    data = json.loads(corrupted.read_text())
    data["2023-smoke"]["lifetime_campaign"]["counters"]["lifetime.events_executed"] += 1
    corrupted.write_text(json.dumps(data))
    argv = ["--workload", "lifetime_campaign", "--smoke", "--out", str(tmp_path)]

    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is True

    monkeypatch.setattr(check, "EXPECTED_PATH", corrupted)
    assert cli.main(argv) != 0
    out = capsys.readouterr().out
    assert "CHECK FAILED: expected.json/counters/lifetime.events_executed" in out
    assert json.loads(out.splitlines()[-1])["correct"] is False


def test_a_violated_invariant_counts_the_op_as_failed(monkeypatch):
    wl = WORKLOADS["repair_clean"](2023, smoke=True)
    real = wl.op

    def wrong_bytes(state, i):
        outcome = real(state, i)
        outcome.rebuilt = np.bitwise_xor(outcome.rebuilt, 1)
        return outcome

    monkeypatch.setattr(wl, "op", wrong_bytes)
    rnd = harness.run_round(wl)
    assert rnd.failed_ops == {0, 1, 2}
    assert "rebuilt bytes differ" in rnd.problems[0]


def test_spread_is_the_drivers_measure():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    assert cli.spread(values) == pytest.approx(0.055)  # (10.275 - 9.725) / 10
