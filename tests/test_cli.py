"""Command-line interface."""

import argparse
import json
import logging
import os

import numpy as np
import pytest

from benchmarks.reproduction import main as reproduction
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.algorithm == "fullrepair"
        assert args.k == 3

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--algorithm", "magic"])


class TestPlanCommand:
    def test_demo_plan(self, capsys):
        assert main(["plan", "--chunk-mib", "8"]) == 0
        out = capsys.readouterr().out
        assert "fullrepair" in out
        assert "900.0 Mbps" in out
        assert "transfer" in out

    def test_plan_from_bandwidth_file(self, tmp_path, capsys):
        path = tmp_path / "bw.txt"
        np.savetxt(path, np.array([[1000.0, 600, 960, 600, 600],
                                   [1000.0, 300, 1000, 300, 300]]))
        assert main(["plan", "--bandwidth", str(path), "--algorithm", "rp"]) == 0
        out = capsys.readouterr().out
        assert "plan: rp" in out

    def test_csv_bandwidth_file(self, tmp_path, capsys):
        path = tmp_path / "bw.csv"
        path.write_text("1000,600,960,600,600\n1000,300,1000,300,300\n")
        assert main(["plan", "--bandwidth", str(path)]) == 0
        assert "900.0" in capsys.readouterr().out

    def test_k_without_bandwidth_is_refused(self, tmp_path, capsys):
        """The demo scenario is k=3: ``--k 10`` alone used to plan k=3."""
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--k", "10"])
        assert exc.value.code == 2
        assert "--k 10 needs --bandwidth" in capsys.readouterr().err
        path = tmp_path / "bw.txt"
        np.savetxt(path, np.full((2, 8), 500.0))
        assert main(["plan", "--bandwidth", str(path), "--k", "4"]) == 0

    def test_malformed_bandwidth_file(self, tmp_path):
        path = tmp_path / "bw.txt"
        np.savetxt(path, np.ones((3, 4)))
        with pytest.raises(SystemExit):
            main(["plan", "--bandwidth", str(path)])

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read bandwidth file"),  # file does not exist
            ("1000 fast 960\n1000 300 1000\n", "cannot read bandwidth file"),
            ("1000 600 960\n1000 300\n", "cannot read bandwidth file"),
            ("1000 -600 960\n1000 300 1000\n", "bad bandwidth file"),
        ],
    )
    def test_unreadable_bandwidth_file_exits_with_one_line(
        self, tmp_path, text, message
    ):
        path = tmp_path / "bw.txt"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--bandwidth", str(path)])
        assert message in str(exc.value.code)
        assert str(path) in str(exc.value.code)
        assert "\n" not in str(exc.value.code)


class TestTraceCommand:
    def test_trace_summary(self, capsys):
        assert main(["trace", "swim", "--snapshots", "100"]) == 0
        out = capsys.readouterr().out
        assert "swim" in out and "100 snapshots" in out

    def test_trace_save_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "t"
        assert main([
            "trace", "tpcds", "--snapshots", "50", "--out", str(out_path)
        ]) == 0
        from repro.workloads import load_trace

        trace = load_trace(str(out_path) + ".npz")
        assert len(trace) == 50
        assert trace.workload == "tpcds"


class TestTraceRepairCommand:
    def test_timeline_and_exports(self, tmp_path, capsys):
        chrome = tmp_path / "repair.chrome.json"
        jsonl = tmp_path / "repair.spans.jsonl"
        assert main([
            "trace", "repair", "--out", str(chrome), "--jsonl", str(jsonl),
        ]) == 0
        out = capsys.readouterr().out
        assert "repair s1" in out
        assert "events:" in out
        assert "watchdog.fire" in out
        assert "replans" in out  # the summary line
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        lines = jsonl.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)


class TestMetricsCommand:
    def test_prometheus_snapshot_stdout(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_repair_seconds histogram" in out
        assert "repro_throughput_ratio" in out

    def test_prometheus_snapshot_file(self, tmp_path, capsys):
        path = tmp_path / "m.prom"
        assert main(["metrics", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""  # file mode keeps stdout clean
        assert "repro_repairs_total" in path.read_text()


class TestLogging:
    def test_status_is_logged_not_printed(self, tmp_path, capsys, caplog):
        out_path = tmp_path / "t"
        assert main([
            "trace", "swim", "--snapshots", "20", "--out", str(out_path),
        ]) == 0
        assert "saved to" not in capsys.readouterr().out
        # default level is WARNING: the info-level status never fires
        assert not any("saved to" in r.getMessage() for r in caplog.records)

        assert main([
            "-v", "trace", "swim", "--snapshots", "20", "--out", str(out_path),
        ]) == 0
        assert "saved to" not in capsys.readouterr().out  # never on stdout
        assert any(
            "saved to" in r.getMessage() and r.name == "repro.cli"
            for r in caplog.records
        )

    def test_quiet_drops_to_errors(self):
        assert main(["-q", "trace", "swim", "--snapshots", "20"]) == 0
        assert logging.getLogger("repro").level == logging.ERROR

    def test_repeated_main_calls_install_one_handler(self):
        main(["-v", "trace", "swim", "--snapshots", "20"])
        main(["-v", "trace", "swim", "--snapshots", "20"])
        handlers = [
            h for h in logging.getLogger("repro").handlers
            if getattr(h, "_repro_cli", False)
        ]
        assert len(handlers) == 1


class TestAttrCommand:
    def test_breakdown_sums_to_gap(self, capsys):
        assert main(["attr"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck attribution: repair s1" in out
        for bucket in ("fault_recovery", "plan_suboptimality",
                       "straggler", "queueing"):
            assert bucket in out
        # the total row carries the exact-sum invariant end to end
        assert "100.0%" in out
        total = next(
            line for line in out.splitlines()
            if line.strip().startswith("total")
        )
        assert "100.0%" in total


class TestFleetCommand:
    def test_snapshot_table(self, capsys):
        assert main(["fleet", "--repairs", "10"]) == 0
        out = capsys.readouterr().out
        assert "fleet aggregation" in out
        assert "repro_repair_seconds" in out
        assert "repro_achieved_mbps" in out


class TestSloCommand:
    def test_verdicts_and_transitions(self, capsys):
        assert main(["slo", "--repairs", "20"]) == 0
        out = capsys.readouterr().out
        assert "SLO rules:" in out
        assert "breach(es)" in out and "recover(ies)" in out
        assert "slo.breach" in out  # the transition log

    def test_custom_rules_and_bad_rule_rejected(self, capsys):
        assert main([
            "slo", "--repairs", "5", "--rules", "count repro_repair_seconds >= 1",
        ]) == 0
        assert "count repro_repair_seconds >= 1" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["slo", "--repairs", "5", "--rules", "p42 nope !! 7"])


# ``repro compare | sweep | table1 | hetero | fullnode`` were a second
# front end to the experiment runners; the one there is now is
# ``python -m benchmarks.reproduction CLAIM ...``, which prints the same
# tables (as markdown) with each claim's verdicts


class TestCompareCommand:
    def test_tiny_sweep(self, capsys):
        assert reproduction(["--scale", "tier1", "fig4", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "| swim (14,10) |" in out and "fullrepair" in out
        assert "`reduction_pct`" in out


class TestSweepCommand:
    def test_chunk_sweep(self, capsys):
        assert reproduction(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "| 4 MiB |" in out and "| 64 MiB |" in out


class TestTable1Command:
    def test_small_table(self, capsys):
        assert reproduction(["--scale", "tier1", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "selected_unused" in out


class TestHeteroCommand:
    def test_sweep_output(self, capsys):
        assert reproduction(["heterogeneity"]) == 0
        out = capsys.readouterr().out
        assert "controlled C_v" in out and "fullrepair" in out


class TestFullnodeCommand:
    def test_strategies_reported(self, capsys):
        assert reproduction(["fullnode"]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out and "batched" in out


TINY_LIFETIME = [
    "lifetime", "--stripes", "200", "--groups", "8", "--years", "0.02",
    "--trials", "2", "--mttf-years", "100", "--machine-mttf-years", "0",
    "--workers", "1",
]


class TestLifetimeCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["lifetime"])
        assert args.nk == "14,10"
        assert args.repair == "orchestrated"
        assert args.sweep is None

    def test_quiet_fleet_reports_lower_bound(self, capsys):
        assert main(TINY_LIFETIME) == 0
        out = capsys.readouterr().out
        assert "fleet-lifetime durability: (14,10)" in out
        assert "no data-loss events observed" in out
        assert "MTTDL" in out

    def test_sweep_table(self, capsys):
        assert main(TINY_LIFETIME + ["--sweep", "1", "10"]) == 0
        out = capsys.readouterr().out
        assert "durability vs repair speed" in out
        assert "pipeline_factor" in out

    def test_bad_repair_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lifetime", "--repair", "magic"])


def _subcommands() -> list[str]:
    (sub,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return sorted(sub.choices)


class TestEverySubcommandRuns:
    """One run of each subcommand, so a keyword removed from the code a
    command calls breaks a test rather than the command."""

    #: what a command gets beyond its defaults: a required positional, a
    #: smaller size where the default is minutes or a process pool, and
    #: every file it can write (``{tmp}`` is the test's own directory)
    ARGS = {
        "detect": ["--out", "{tmp}/detect.chrome.json"],
        "lifetime": ["--stripes", "2000", "--years", "0.5", "--workers", "1"],
        "prof": ["--progress", "--interval", "0.05",
                 "--speedscope", "{tmp}/prof.speedscope.json",
                 "--collapsed", "{tmp}/prof.collapsed.txt",
                 "--heartbeats", "{tmp}/prof.heartbeats.jsonl",
                 "--chrome", "{tmp}/prof.chrome.json"],
        "trace": ["repair"],
    }

    @pytest.mark.parametrize("command", _subcommands())
    def test_exits_zero_with_a_report(self, command, capsys, tmp_path):
        extra = [a.format(tmp=tmp_path) for a in self.ARGS.get(command, [])]
        assert main([command, *extra]) == 0
        assert capsys.readouterr().out.strip()
        for path in (a for a in extra if a.startswith(str(tmp_path))):
            assert os.path.getsize(path) > 0
