"""Campaign driver: correlated fan-out, conservation, determinism."""

import dataclasses
import json
import pathlib

import pytest

from repro.lifetime import (
    ExponentialProcess,
    LifetimeConfig,
    RepairModel,
    SECONDS_PER_YEAR,
    run_campaign,
    with_pipeline_factor,
)

pytestmark = pytest.mark.lifetime


def seconds(s: float) -> float:
    """Config horizons are in years; tests think in seconds."""
    return s / SECONDS_PER_YEAR


QUIET_DISKS = ExponentialProcess(mttf_s=1e15, mttr_s=3600.0)


def small_config(**overrides) -> LifetimeConfig:
    base = dict(
        n=6,
        k=4,
        num_stripes=2000,
        placement_groups=8,
        years=0.25,
        seed=5,
        disks_per_machine=4,
        disk_process=ExponentialProcess.from_years(0.5, mttr_hours=12.0),
        repair_model=RepairModel(chunk_mib=16.0, node_mbps=1000.0),
    )
    base.update(overrides)
    return LifetimeConfig(**base)


class TestRackFanOut:
    def test_rack_outage_blocks_reads_without_destroying_data(self):
        """One rack event fans out to every disk underneath: enough
        chunks go unreachable at once to open below-k windows, yet no
        chunk data is destroyed and nothing is permanently lost."""
        config = small_config(
            racks_per_dc=2,  # 6 chunks over 2 racks -> >= 3 behind one
            years=seconds(20_000.0),
            disk_process=QUIET_DISKS,
            rack_process=ExponentialProcess(mttf_s=4000.0, mttr_s=1500.0),
        )
        result = run_campaign(config)
        assert result.failures.get("rack", 0) > 0
        assert result.chunks_destroyed == 0
        assert result.stripes_lost == 0 and not result.loss_events
        assert result.below_k_digest.count > 0
        assert result.exposure_digest.count == 0

    def test_machine_outage_touches_only_its_disks(self):
        config = small_config(
            years=seconds(20_000.0),
            disk_process=QUIET_DISKS,
            machine_process=ExponentialProcess(mttf_s=5000.0, mttr_s=600.0),
        )
        result = run_campaign(config)
        assert result.failures.get("machine", 0) > 0
        # transient outages never destroy data or lose stripes; only
        # availability windows (from overlapping outages) may open
        assert result.chunks_destroyed == 0
        assert result.exposure_digest.count == 0
        assert result.stripes_lost == 0 and not result.loss_events


class TestOrchestratedConservation:
    def test_every_destroyed_chunk_is_rebuilt_when_nothing_is_lost(self):
        result = run_campaign(small_config())
        assert result.failures.get("disk", 0) > 0
        assert result.chunks_destroyed > 0
        assert not result.loss_events
        assert result.chunks_rebuilt == result.chunks_destroyed
        assert result.repairs_dispatched > 0
        # fully repaired fleet: every stripe back to n intact chunks
        hist = result.surviving_histogram
        assert hist[-1] == config_stripes(result)
        assert result.ticks > 0

    def test_placement_spread_respected_by_generated_patterns(self):
        config = small_config()
        result = run_campaign(config)
        tree = config.build_tree()
        # initial patterns honour the spread policy (relocations during
        # repair may fall back, counted separately)
        patterns = tree.spread_placements(
            config.placement_groups,
            config.n,
            level=config.spread_level,
            max_per_domain=config.max_per_domain,
            seed=config.seed,
        )
        for row in patterns:
            tree.check_spread(
                row, config.spread_level,
                max_per_domain=config.max_per_domain,
            )
        assert result.spread_fallbacks >= 0


def config_stripes(result) -> int:
    return result.config.num_stripes - result.stripes_lost


class TestDeterminism:
    def test_same_seed_reproduces_every_counter(self):
        config = small_config(machine_process=ExponentialProcess.from_years(
            0.5, mttr_hours=4.0
        ))
        a, b = run_campaign(config), run_campaign(config)
        for field in (
            "failures", "chunks_destroyed", "chunks_rebuilt",
            "repairs_dispatched", "stripes_lost", "events_executed",
            "requeues", "skipped", "ticks",
        ):
            assert getattr(a, field) == getattr(b, field), field
        assert a.exposure_digest.count == b.exposure_digest.count
        assert [e.time_s for e in a.loss_events] == [
            e.time_s for e in b.loss_events
        ]

    def test_different_seeds_diverge(self):
        a = run_campaign(small_config(seed=5))
        b = run_campaign(small_config(seed=6))
        assert a.events_executed != b.events_executed


class TestLossPostMortems:
    @pytest.fixture(scope="class")
    def lossy(self):
        # r = 1 with fast re-failure and slow repair: losses guaranteed
        return run_campaign(
            small_config(
                n=6,
                k=5,
                years=seconds(400_000.0),
                disk_process=ExponentialProcess(
                    mttf_s=20_000.0, mttr_s=3600.0
                ),
                repair_model=RepairModel(
                    chunk_mib=64.0, node_mbps=10.0, pipeline_factor=5.0
                ),
                seed=3,
            )
        )

    def test_losses_detected_and_ledgered(self, lossy):
        assert lossy.loss_events
        assert lossy.stripes_lost == sum(
            e.stripes for e in lossy.loss_events
        )

    def test_post_mortem_captures_trigger_and_orchestrator(self, lossy):
        for loss in lossy.loss_events:
            assert loss.trigger_level == "disk"
            assert loss.surviving < 5
            assert loss.recent_failures  # the failure burst context
            assert loss.group_state in (
                "in-flight", "queued", "dead-letter", "idle", "untracked"
            )
            assert 0.0 <= loss.committed_fraction <= 1.0
            assert 0.0 < loss.time_years <= lossy.config.years

    def test_lost_groups_leave_the_live_population(self, lossy):
        # lost stripes keep their sub-k bitmap forever
        hist = lossy.surviving_histogram
        assert sum(hist[:5]) == lossy.stripes_lost


class TestRepairSpeedKnob:
    def test_pipeline_factor_changes_only_the_repair_model(self):
        base = small_config()
        fast = with_pipeline_factor(base, 1.0)
        slow = with_pipeline_factor(base, 10.0)
        assert slow.repair_model.pipeline_factor == 10.0
        assert dataclasses.replace(
            slow, repair_model=base.repair_model
        ) == base
        assert fast.seed == slow.seed

    def test_slower_repair_weakly_increases_exposure(self):
        base = small_config(seed=9)
        fast = run_campaign(with_pipeline_factor(base, 1.0))
        slow = run_campaign(with_pipeline_factor(base, 20.0))
        assert slow.exposure_digest.quantile(0.9) >= fast.exposure_digest.quantile(0.9)


class TestValidation:
    def test_bad_code_rejected(self):
        with pytest.raises(ValueError):
            LifetimeConfig(n=4, k=4)

    def test_bad_repair_mode_rejected(self):
        with pytest.raises(ValueError):
            LifetimeConfig(repair="telekinesis")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"years": 0.0}, "years"),
            ({"placement_groups": 0}, "placement_groups"),
            ({"num_stripes": 2, "placement_groups": 4}, "one stripe per placement"),
        ],
    )
    def test_bad_population_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            LifetimeConfig(**kwargs)

    @pytest.mark.parametrize("repair", ["orchestrated", "process"])
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"budget_fraction": 0.0}, "budget_fraction"),
            ({"max_concurrent": 0}, "max_concurrent"),
            ({"tick_s": 0.0}, "tick_s"),
        ],
    )
    def test_bad_recovery_knobs_rejected_in_both_modes(
        self, repair, kwargs, message
    ):
        with pytest.raises(ValueError, match=message):
            LifetimeConfig(repair=repair, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"chunk_mib": 0.0}, "positive"),
            ({"node_mbps": -1.0}, "positive"),
            ({"pipeline_factor": 0.5}, "pipeline_factor"),
        ],
    )
    def test_bad_repair_model_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RepairModel(**kwargs)

    def test_patterns_must_fit_the_tree(self):
        with pytest.raises(ValueError, match="outside the tree"):
            run_campaign(
                small_config(
                    num_stripes=8,
                    placement_groups=1,
                    patterns=((0, 1, 2, 3, 4, 999),),
                )
            )

    def test_patterns_must_match_placement_groups(self):
        """The campaign runs one group per pattern row, but the Monte
        Carlo exposure counts ``placement_groups``: three rows under the
        default 64 would report 128 group-years for 6."""
        with pytest.raises(ValueError, match="one row per placement group"):
            LifetimeConfig(
                n=3,
                k=2,
                num_stripes=300,
                years=2.0,
                patterns=((0, 1, 2), (3, 4, 5), (6, 7, 8)),
            )


# --------------------------------------------------------------------- #
# Golden campaigns: determinism beyond the benchmark's one seed         #
# --------------------------------------------------------------------- #

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_campaigns.json")
GOLDEN_SEEDS = (1, 2, 3, 4, 5)
GOLDEN_MODES = ("orchestrated", "process")


def golden_config(seed: int, repair: str) -> LifetimeConfig:
    """Smoke-size (14, 10) fleet with every failure level armed, aged
    and throttled hard enough that groups are lost, repairs are
    requeued and outage edges overlap open repair windows."""
    return LifetimeConfig(
        n=14,
        k=10,
        num_stripes=2_000,
        placement_groups=16,
        years=0.5,
        seed=seed,
        disk_process=ExponentialProcess.from_years(0.05, mttr_hours=24.0),
        machine_process=ExponentialProcess.from_years(0.05, mttr_hours=6.0),
        rack_process=ExponentialProcess.from_years(0.2, mttr_hours=2.0),
        repair=repair,
        repair_model=RepairModel(chunk_mib=64.0, node_mbps=30.0),
        budget_fraction=0.3,
        max_concurrent=4,
    )


def _digest_fingerprint(digest) -> dict:
    return {
        "count": digest.count,
        "mean": digest.mean,
        "p50": digest.quantile(0.5),
        "p99": digest.quantile(0.99),
    }


def campaign_fingerprint(result) -> dict:
    """Everything a campaign reports except its wall time, as JSON."""
    return {
        "failures": result.failures,
        "chunks_destroyed": result.chunks_destroyed,
        "chunks_rebuilt": result.chunks_rebuilt,
        "repairs_dispatched": result.repairs_dispatched,
        "chunk_repair_failures": result.chunk_repair_failures,
        "stripes_lost": result.stripes_lost,
        "loss_events": [
            {
                **dataclasses.asdict(e),
                "destroyed_disks": list(e.destroyed_disks),
                "recent_failures": [list(f) for f in e.recent_failures],
            }
            for e in result.loss_events
        ],
        "surviving_histogram": list(result.surviving_histogram),
        "events_executed": result.events_executed,
        "peak_pending": result.peak_pending,
        "dead_letters": result.dead_letters,
        "requeues": result.requeues,
        "skipped": result.skipped,
        "throttle_shrinks": result.throttle_shrinks,
        "throttle_restores": result.throttle_restores,
        "spread_fallbacks": result.spread_fallbacks,
        "ticks": result.ticks,
        "exposure": _digest_fingerprint(result.exposure_digest),
        "below_k": _digest_fingerprint(result.below_k_digest),
    }


def capture_golden() -> dict:
    """``{"<repair>-<seed>": fingerprint}`` — what the fixture holds.

    The committed fixture was captured at the parent of the PR that
    made :class:`~repro.lifetime.StripeTable` group-granular; regenerate
    it (``python -m tests.lifetime.test_campaign``) only for a change
    that is *meant* to move campaign outcomes.
    """
    return {
        f"{repair}-{seed}": campaign_fingerprint(
            run_campaign(golden_config(seed, repair))
        )
        for repair in GOLDEN_MODES
        for seed in GOLDEN_SEEDS
    }


def _assert_same(actual, expected, path: str) -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), path
        for key in expected:
            _assert_same(actual[key], expected[key], f"{path}/{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_same(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-12, abs=0.0), path
    else:
        assert actual == expected, path


class TestGoldenCampaigns:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_fixture_covers_every_seed_and_mode(self, golden):
        assert sorted(golden) == sorted(
            f"{repair}-{seed}"
            for repair in GOLDEN_MODES
            for seed in GOLDEN_SEEDS
        )
        # the fixture is only worth pinning if the hard paths ran
        orchestrated = [golden[f"orchestrated-{s}"] for s in GOLDEN_SEEDS]
        assert all(g["loss_events"] for g in golden.values())
        assert all(g["below_k"]["count"] for g in golden.values())
        assert any(g["requeues"] for g in orchestrated)
        assert all(g["failures"]["rack"] for g in golden.values())

    @pytest.mark.parametrize("repair", GOLDEN_MODES)
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_campaign_matches_fixture_exactly(self, golden, seed, repair):
        result = run_campaign(golden_config(seed, repair))
        # through JSON, so tuples and ints compare as the fixture holds them
        actual = json.loads(json.dumps(campaign_fingerprint(result)))
        _assert_same(actual, golden[f"{repair}-{seed}"], f"{repair}-{seed}")


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture_golden(), indent=1) + "\n")
