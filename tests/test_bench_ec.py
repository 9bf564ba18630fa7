"""The EC data-plane harness: smoke run, schema, and the throughput gate.

The smoke tier doubles as the tier-1 perf gate: it re-measures the
fused-vs-naive kernel speedups on 1 MiB chunks and fails if they fall
more than 20% below the ratios recorded in the committed full-run
``BENCH_ec.json``.  Ratios (not absolute MB/s) are compared so the gate
is meaningful across hosts of different speeds.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.bench_ec_throughput import SCHEMA_VERSION, _paired_times, run
from benchmarks.common import REPO_ROOT

pytestmark = pytest.mark.ec

#: A measured speedup may sit this far below the committed ratio before
#: the gate trips (the >20% regression line, with measurement noise
#: absorbed by median-of-rounds timing).
REGRESSION_TOLERANCE = 0.8

#: Kernel speedup ratios tracked by the gate.  ``mul_chunk`` is
#: excluded: a single-coefficient scale is memcpy-bound and its ratio is
#: too noisy to gate on.
GATED_RATIOS = (
    "dot_fused_vs_naive",
    "matvec_fused_vs_naive",
)

#: Ceiling for the integrity layer's per-chunk digest cost relative to
#: the fused decode it verifies (committed artefact, 8 MiB chunks).
DIGEST_COST_CEILING = 0.10


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    """One smoke pass per test module (writes outside the repo tree)."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_ec.json"
    report = run(smoke=True, out_path=out)
    return report, out


class TestSchema:
    def test_file_round_trips(self, smoke_report):
        report, path = smoke_report
        assert path.exists()
        assert json.loads(path.read_text()) == json.loads(json.dumps(report))

    def test_top_level_keys(self, smoke_report):
        report, _ = smoke_report
        assert report["benchmark"] == "ec"
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["config"]["smoke"] is True
        for key in ("kernels", "rs", "speedup", "gate", "checksum"):
            assert key in report

    def test_kernel_cells_cover_all_backends(self, smoke_report):
        report, _ = smoke_report
        for cell in report["kernels"].values():
            assert cell["chunk_bytes"] > 0
            for name in ("naive", "fused"):
                rates = cell[name]
                assert rates["dot_mb_per_s"] > 0
                assert rates["matvec_mb_per_s"] > 0
                assert rates["mul_chunk_mb_per_s"] > 0
            for key in GATED_RATIOS:
                assert cell["speedup"][key] > 0

    def test_rs_section(self, smoke_report):
        report, _ = smoke_report
        rs = report["rs"]
        assert (rs["n"], rs["k"]) == (9, 6)
        for name in ("naive", "fused"):
            rates = rs[name]
            assert rates["encode_mb_per_s"] > 0
            assert rates["decode_mb_per_s"] > 0
            assert rates["repair_mb_per_s"] > 0
        # the headline RS ratios are the paired ones, not rate quotients
        for op in ("encode", "decode", "repair"):
            key = f"{op}_fused_vs_naive"
            assert report["speedup"][key] == rs["speedup"][key] > 0

    def test_rounds_alternate_which_backend_runs_first(self):
        """One backend's rounds never run as a block after the other's."""
        order = []
        times = _paired_times(lambda be: order.append(be.name), rounds=4)
        assert order[2:] == ["naive", "fused", "fused", "naive"] * 2
        assert sorted(order[:2]) == ["fused", "naive"]  # one warm-up each
        assert {name: len(ts) for name, ts in times.items()} == {
            "naive": 4, "fused": 4,
        }

    def test_fused_beats_naive_in_smoke(self, smoke_report):
        """Even the fast smoke pass must show a clear fused win.

        Sanity floors only (loose enough for host noise); the committed
        gate section carries the tracked ratios.
        """
        report, _ = smoke_report
        sp = report["speedup"]
        assert sp["dot_fused_vs_naive"] > 1.3
        assert sp["matvec_fused_vs_naive"] > 2.0
        assert sp["encode_fused_vs_naive"] > 1.5
        for key in GATED_RATIOS:
            assert report["gate"]["speedup"][key] > 1.0

    def test_checksum_section(self, smoke_report):
        report, _ = smoke_report
        ck = report["checksum"]
        assert ck["chunk_bytes"] > 0
        assert 0 < ck["slice_bytes"] <= ck["chunk_bytes"]
        assert ck["digest_mb_per_s"] > 0
        assert ck["slice_checksum_mb_per_s"] > 0
        # loose smoke sanity: even on a slow host the digest must not
        # rival the decode it guards
        assert ck["digest_cost_vs_fused_decode"] < 1.0


class TestCommittedArtifact:
    def test_committed_artifact_matches_schema(self):
        path = REPO_ROOT / "BENCH_ec.json"
        assert path.exists(), "run `python -m benchmarks.bench_ec_throughput`"
        report = json.loads(path.read_text())
        assert report["benchmark"] == "ec"
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["config"]["smoke"] is False
        # headline numbers the docs quote: the fused matvec clears 10x
        # over the seed kernels and encode clears 2 GB/s in GF work units
        assert report["speedup"]["matvec_fused_vs_naive"] >= 10.0
        assert report["kernels"]["chunk_8192kib"]["fused"]["matvec_mb_per_s"] >= 2000.0

    def test_committed_digest_overhead_bounded(self):
        """Verifying a rebuilt chunk must cost <= 10% of its fused decode.

        The ratio is measured on the same host in the same run (both
        sides of the division share the machine's speed), so it is
        stable across hosts the way the fused-vs-naive ratios are.
        """
        report = json.loads((REPO_ROOT / "BENCH_ec.json").read_text())
        cost = report["checksum"]["digest_cost_vs_fused_decode"]
        assert 0 < cost <= DIGEST_COST_CEILING, (
            f"per-chunk digest costs {cost:.1%} of a fused decode "
            f"(ceiling {DIGEST_COST_CEILING:.0%})"
        )

    def test_regression_gate_vs_committed_ratios(self, smoke_report):
        """>20% drop in any gated fused-vs-naive kernel ratio fails tier-1.

        Both runs measure the ``gate`` section with the same protocol
        (1 MiB cell, median of 3 passes), so the comparison is
        like-for-like: host-speed drift cancels in the ratio, the
        median absorbs scheduling noise, and the headline ``speedup``
        section (whose ratios differ with chunk size) stays out of it.
        """
        committed = json.loads((REPO_ROOT / "BENCH_ec.json").read_text())
        fresh, _ = smoke_report
        base = committed["gate"]["speedup"]
        measured = fresh["gate"]["speedup"]
        for key in GATED_RATIOS:
            floor = base[key] * REGRESSION_TOLERANCE
            assert measured[key] >= floor, (
                f"{key} regressed: measured {measured[key]:.2f}x "
                f"vs committed {base[key]:.2f}x (floor {floor:.2f}x)"
            )
