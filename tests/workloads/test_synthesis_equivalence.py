"""Array-wide trace synthesis draws the same bytes as the row loops.

``TraceGenerator.generate`` advances its four AR(1) series in one
elementwise recurrence and computes the burst chain in closed form.  The
generator it replaced (per-series row loops and a per-instant
``np.where`` chain) is frozen in ``reference_generator.py``; every
``uplink`` / ``downlink`` here must equal it byte for byte, on the
benchmark's grid of workloads, node counts, lengths and seeds and on
hypothesis-drawn profiles that include every degenerate corner of the
chain (no bursts, certain bursts, one-instant bursts, ``p_enter ==
p_exit``) and of the recurrence (``ar_coeff`` 0, 0.995 and >= 1).  Two
mutants of the generator prove the suite notices a wrong flip parity and
a wrong draw order.
"""

from __future__ import annotations

import inspect
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import WORKLOADS, TraceGenerator, WorkloadProfile, make_trace
from repro.workloads import base

from . import reference_generator
from .reference_generator import reference_generate

NODES = (2, 4, 12, 16, 18)
LENGTHS = (1, 2, 3, 50, 1500, 6000)
SEEDS = (0, 7, 11)


def _same_bytes(gen_cls: type[TraceGenerator], name: str, profile, *, nodes, t, seed):
    trace = gen_cls(num_nodes=nodes, seed=seed).generate(t)
    up, down = reference_generate(
        name, profile, num_nodes=nodes, capacity_mbps=1000.0, seed=seed, num_snapshots=t
    )
    return (
        trace.uplink.tobytes() == up.tobytes()
        and trace.downlink.tobytes() == down.tobytes()
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("t", LENGTHS)
@pytest.mark.parametrize("nodes", NODES)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_make_trace_matches_the_row_loops(name, nodes, t, seed):
    trace = make_trace(name, num_nodes=nodes, num_snapshots=t, seed=seed)
    up, down = reference_generate(
        name,
        WORKLOADS[name].profile,
        num_nodes=nodes,
        capacity_mbps=1000.0,
        seed=seed,
        num_snapshots=t,
    )
    assert trace.uplink.tobytes() == up.tobytes()
    assert trace.downlink.tobytes() == down.tobytes()


def _probe(name: str, profile: WorkloadProfile, parent=TraceGenerator):
    return type("Probe", (parent,), {"name": name, "profile": profile})


unit = st.floats(0.0, 1.0)
durations = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 1e12]), st.floats(0.0, 50.0)
)


@st.composite
def profiles(draw) -> WorkloadProfile:
    duration = draw(durations)
    rate = draw(
        st.one_of(
            st.sampled_from([0.0, 1.0, 1.5]),
            unit,
            # p_enter == p_exit: every step is a reset or a hold
            st.just(1.0 / max(duration, 1.0)),
        )
    )
    return WorkloadProfile(
        base_load=draw(unit),
        ar_coeff=draw(st.one_of(st.sampled_from([0.0, 0.995, 1.0, 1.02]), unit)),
        ar_sigma=draw(st.floats(0.0, 0.2)),
        burst_rate=rate,
        burst_duration=duration,
        burst_load=draw(unit),
        skew=draw(unit),
        skew_load=draw(st.floats(0.0, 0.5)),
        updown_corr=draw(unit),
    )


@settings(max_examples=150, deadline=None)
@given(
    profile=profiles(),
    name=st.sampled_from(["tpcds", "tpch", "swim", "probe"]),
    nodes=st.integers(2, 20),
    t=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_drawn_profiles_match_the_row_loops(profile, name, nodes, t, seed):
    assert _same_bytes(_probe(name, profile), name, profile, nodes=nodes, t=t, seed=seed)


@pytest.mark.parametrize(
    "rate, duration",
    [(1e-9, 1e9), (0.0, 1e12), (1.0, 1e12), (1.0, 1.0), (0.3, 2.0), (0.25, 4.0)],
)
def test_burst_chain_matches_the_loop(rate, duration):
    chain = TraceGenerator._bursts(np.random.default_rng(5), 400, 64, rate, duration)
    old = reference_generator._bursts(np.random.default_rng(5), 400, 64, rate, duration)
    assert chain.tobytes() == old.tobytes()


def test_a_chain_that_never_resets_holds_its_stationary_start():
    """Entry and exit both 1e-9: no step resets, so every instant is the
    start state (idle or bursting, even odds), read from row 0."""
    chain = TraceGenerator._bursts(np.random.default_rng(5), 400, 64, 1e-9, 1e9)
    assert (chain == chain[0]).all()
    assert 0 < chain[0].sum() < 64


@settings(max_examples=200, deadline=None)
@given(
    rate=st.one_of(st.sampled_from([0.0, 1.0, 2.0]), unit),
    duration=durations,
    t=st.integers(1, 200),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_drawn_burst_chains_match_the_loop(rate, duration, t, n, seed):
    chain = TraceGenerator._bursts(np.random.default_rng(seed), t, n, rate, duration)
    old = reference_generator._bursts(np.random.default_rng(seed), t, n, rate, duration)
    assert chain.tobytes() == old.tobytes()


# --------------------------------------------------------------------- #
# the suite has teeth: mutants of the generator must fail it            #
# --------------------------------------------------------------------- #

#: each mutant is a list of (production text, mutated text) replacements
MUTANTS = {
    # the flips since the last reset, counted from one step too late
    "flip_parity_off_by_one": [
        ("odd[last, cols]", "odd[np.minimum(last + 1, t), cols]"),
    ],
    # the intensity wave drawn before ``down_own``, its columns then moved
    # back to the end so everything downstream reads the usual layout
    "intensity_before_down_own": [
        (
            "(n, n, n, 1), (p.ar_coeff,) * 3 + (min(0.995, p.ar_coeff + 0.02),)",
            "(n, n, 1, n), (p.ar_coeff,) * 2 + (min(0.995, p.ar_coeff + 0.02), p.ar_coeff)",
        ),
        (
            "shared, up_own, down_own = (",
            "series = np.hstack([series[:, : 2 * n], series[:, 2 * n + 1 :], "
            "series[:, 2 * n : 2 * n + 1]])\n        shared, up_own, down_own = (",
        ),
    ],
}


def _mutant(name: str, monkeypatch) -> types.ModuleType:
    source = inspect.getsource(base)
    for old, new in MUTANTS[name]:
        assert source.count(old) == 1
        source = source.replace(old, new)
    module = types.ModuleType("base_mutant")
    module.__package__ = base.__package__
    monkeypatch.setitem(sys.modules, module.__name__, module)  # for @dataclass
    exec(compile(source, "<mutant>", "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_mutant_generator_fails_the_suite(mutant, monkeypatch):
    module = _mutant(mutant, monkeypatch)
    for name in sorted(WORKLOADS):
        profile = WORKLOADS[name].profile
        gen_cls = _probe(name, profile, parent=module.TraceGenerator)
        for nodes in NODES:
            for t in (3, 50):
                if not _same_bytes(gen_cls, name, profile, nodes=nodes, t=t, seed=0):
                    return
    pytest.fail(f"mutant {mutant} passed every equivalence case")
