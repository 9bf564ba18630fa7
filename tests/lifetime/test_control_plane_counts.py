"""Count gate: a lifetime campaign's control plane works per group.

A dispatch picks rebuild targets from the live-disk list the writer of
``down`` keeps, and a disk death or rebuild flips bits in one word per
affected group — so nothing on the dispatch / completion / outage path
scans the fleet or writes per-stripe storage.  The only fleet scans
left are ``DomainTree.disks_under`` fan-outs, one per machine or rack
failure.  Counts, unlike stripe-years per wall-second, are the same on
every machine: a change that returns to an ``np.flatnonzero`` per
dispatch or per availability check trips this gate by a factor of the
repair count.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.lifetime import (
    ExponentialProcess,
    LifetimeConfig,
    RepairModel,
    StripeTable,
    run_campaign,
)

pytestmark = pytest.mark.lifetime

#: the benchmark's orchestrated (14, 10) campaign at smoke size, with
#: rack outages armed as well so both ``disks_under`` fan-outs occur
SMOKE = LifetimeConfig(
    n=14,
    k=10,
    num_stripes=2_000,
    placement_groups=16,
    years=0.5,
    seed=2023,
    disk_process=ExponentialProcess.from_years(0.25, mttr_hours=12.0),
    machine_process=ExponentialProcess.from_years(0.5, mttr_hours=4.0),
    rack_process=ExponentialProcess.from_years(0.5, mttr_hours=2.0),
    repair_model=RepairModel(chunk_mib=16.0, node_mbps=600.0),
    budget_fraction=0.3,
    max_concurrent=8,
    tick_s=900.0,
)


@pytest.fixture
def counted(monkeypatch):
    """``run(config) -> (result, counts)`` with the scans counted."""
    counts = {"flatnonzero": 0, "available": 0, "update_windows": 0}

    def counting(owner, attr, key):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(np, "flatnonzero", "flatnonzero")
    counting(StripeTable, "available", "available")
    counting(StripeTable, "_update_windows", "update_windows")

    def run(config):
        # placements are drawn before counting (one ``disks_under`` per
        # domain, setup work), as the benchmark's ``setup`` does
        patterns = config.build_tree().spread_placements(
            config.placement_groups, config.n, level=config.spread_level,
            max_per_domain=config.max_per_domain, seed=config.seed,
        )
        config = dataclasses.replace(
            config, patterns=tuple(map(tuple, patterns.tolist()))
        )
        for key in counts:
            counts[key] = 0
        return run_campaign(config), dict(counts)

    return run


def test_fleet_scans_are_outage_fanouts_only(counted):
    result, counts = counted(SMOKE)
    fanouts = result.failures["machine"] + result.failures["rack"]
    assert result.failures["machine"] and result.failures["rack"]
    # the gate has teeth: far more dispatches than outages
    assert result.repairs_dispatched > 10 * fanouts
    assert counts["flatnonzero"] == fanouts


def test_fleet_scans_do_not_grow_with_dispatches(counted):
    """Same failure clocks, a narrower repair pipe: many more dispatches
    (each moves less before the next failure lands), not one scan more."""
    fast, fast_counts = counted(SMOKE)
    slow_config = dataclasses.replace(
        SMOKE, repair_model=RepairModel(chunk_mib=16.0, node_mbps=20.0)
    )
    slow, slow_counts = counted(slow_config)
    assert slow.failures == fast.failures
    assert slow.repairs_dispatched != fast.repairs_dispatched
    assert slow_counts["flatnonzero"] == fast_counts["flatnonzero"]


def test_one_availability_evaluation_per_window_update_and_completion(counted):
    """Never one per candidate, per slot or per stripe (a repair still in
    flight at the horizon has not settled, hence the two-sided bound)."""
    result, counts = counted(SMOKE)
    settled = counts["available"] - counts["update_windows"]
    assert 0 < settled <= result.repairs_dispatched
    assert result.repairs_dispatched - settled <= SMOKE.max_concurrent


def test_event_path_writes_no_per_stripe_array():
    """``intact`` is derived from the group words on demand: the event
    path neither writes it nor reads it back."""
    patterns = np.array([[0, 1, 2], [3, 4, 5]], dtype=np.int32)
    table = StripeTable(10, patterns, k=2)
    down = [False] * 6
    view = table.intact
    assert view.tolist() == [0b111] * 10
    view[:] = 0  # scribbling on a view must not reach the table
    assert table.surviving(0) == 3 and table.available(1, down) == 3

    table.destroy_disk(1, 1.0, down)
    assert view.tolist() == [0] * 10  # ... nor the table an old view
    assert table.intact.tolist() == [0b101] * 5 + [0b111] * 5
    table.rebuild(0, [(1, 1)], 2.0, down)
    assert table.intact.tolist() == [0b111] * 10
    assert table.intact.dtype == np.uint32
