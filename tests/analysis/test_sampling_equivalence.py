"""Sampling repair instances draws the same contexts as the frozen sampler.

``sample_contexts`` draws each instant as ``instants[rng.integers(len)]``
(the draw ``Generator.choice`` makes internally), takes the helpers with
one ``tolist()``, and cuts each snapshot from the trace without a second
check.  :func:`reference_sample_contexts` is the sampler as it was before,
with the old ``Trace.snapshot`` (a checked ``BandwidthSnapshot`` of two
row copies) inlined; every context field must equal it, on every
workload, paper code and seed below.  Two mutants of the sampler — an
instant bound one short, and the permutation drawn before the instant —
prove the comparison notices a changed draw.
"""

from __future__ import annotations

import inspect
import sys
import types

import numpy as np
import pytest

from repro.analysis import experiments
from repro.analysis.experiments import PAPER_CODES, sample_contexts
from repro.net.bandwidth import BandwidthSnapshot, RepairContext
from repro.workloads import make_trace

WORKLOADS = ("tpcds", "tpch", "swim")
SEEDS = (0, 7, 2023)
SAMPLES = 60


def reference_sample_contexts(trace, n, k, num_samples, *, seed=0):
    """``sample_contexts`` and ``Trace.snapshot`` as they were, frozen."""
    if trace.num_nodes < n + 1:
        raise ValueError(
            f"trace has {trace.num_nodes} nodes; need at least n+1={n + 1}"
        )
    rng = np.random.default_rng(seed)
    instants = trace.congested_instants()
    if instants.size == 0:
        raise ValueError("trace has no congested instants to sample")
    contexts = []
    for _ in range(num_samples):
        t = int(rng.choice(instants))
        nodes = rng.permutation(trace.num_nodes)
        stripe_nodes = nodes[:n]
        requester = int(nodes[n])
        helpers = tuple(int(h) for h in stripe_nodes[1:])
        contexts.append(
            RepairContext(
                snapshot=BandwidthSnapshot(
                    uplink=trace.uplink[t].copy(), downlink=trace.downlink[t].copy()
                ),
                requester=requester,
                helpers=helpers,
                k=k,
                chunk_index={h: i + 1 for i, h in enumerate(helpers)},
            )
        )
    return contexts


def _array_facts(a: np.ndarray) -> tuple:
    flags = a.flags
    return (
        a.tobytes(), a.dtype, a.shape, a.strides, flags.writeable,
        flags.c_contiguous, flags.f_contiguous, flags.owndata, flags.aligned,
    )


def _context_facts(c: RepairContext) -> tuple:
    """Every field of a context, with the types of its ids."""
    return (
        _array_facts(c.snapshot.uplink), _array_facts(c.snapshot.downlink),
        c.requester, type(c.requester), c.helpers, tuple(map(type, c.helpers)),
        c.k, list(c.chunk_index.items()),
        tuple(type(i) for item in c.chunk_index.items() for i in item),
    )


@pytest.fixture(scope="module")
def traces():
    return {
        (w, seed): make_trace(w, num_nodes=16, num_snapshots=1500, seed=seed)
        for w in WORKLOADS
        for seed in SEEDS
    }


def _differs(sampler, traces) -> bool:
    for (_, seed), trace in traces.items():
        for n, k in PAPER_CODES:
            got = sampler(trace, n, k, SAMPLES, seed=seed)
            want = reference_sample_contexts(trace, n, k, SAMPLES, seed=seed)
            if list(map(_context_facts, got)) != list(map(_context_facts, want)):
                return True
    return False


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_contexts_match_the_reference(workload, seed, traces):
    trace = traces[workload, seed]
    for n, k in PAPER_CODES:
        got = sample_contexts(trace, n, k, SAMPLES, seed=seed)
        want = reference_sample_contexts(trace, n, k, SAMPLES, seed=seed)
        assert len(got) == len(want) == SAMPLES
        for a, b in zip(got, want):
            assert _context_facts(a) == _context_facts(b)


def test_integers_draws_what_choice_draws():
    """``a[rng.integers(len(a))]`` is ``rng.choice(a)``, and leaves the
    stream where ``choice`` leaves it."""
    for seed in range(50):
        for length in range(1, 65):
            a = np.arange(length) * 7 + 3
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            assert a[ours.integers(len(a))] == theirs.choice(a)
            assert np.array_equal(ours.permutation(16), theirs.permutation(16))


def test_snapshot_is_a_checked_row_copy():
    trace = make_trace("swim", num_nodes=16, num_snapshots=50, seed=4)
    for t in (0, 17, 49, -1):
        snap = trace.snapshot(t)
        row_up, row_down = trace.uplink[t], trace.downlink[t]
        checked = BandwidthSnapshot(row_up.copy(), row_down.copy())
        assert _array_facts(snap.uplink) == _array_facts(checked.uplink)
        assert _array_facts(snap.downlink) == _array_facts(checked.downlink)
        assert not np.shares_memory(snap.uplink, trace.uplink)
        assert not np.shares_memory(snap.downlink, trace.downlink)
        assert snap.num_nodes == len(snap) == 16


# --------------------------------------------------------------------- #
# the comparison has teeth: mutants of the sampler must fail it          #
# --------------------------------------------------------------------- #

#: each mutant is a (production text, mutated text) replacement
MUTANTS = {
    # the instant drawn from all but the last congested instant
    "bound_one_short": (
        "instants[rng.integers(count)]", "instants[rng.integers(count - 1)]"
    ),
    # the permutation drawn before the instant
    "permutation_first": (
        "        t = instants[rng.integers(count)]\n"
        "        # nodes[0] fails; the other stripe nodes help; nodes[n] rebuilds\n"
        "        nodes = rng.permutation(num_nodes).tolist()\n",
        "        nodes = rng.permutation(num_nodes).tolist()\n"
        "        t = instants[rng.integers(count)]\n",
    ),
}


def _sampler(source: str, monkeypatch):
    """``sample_contexts`` of ``source`` run as a copy of the module."""
    module = types.ModuleType("experiments_copy")
    module.__package__ = experiments.__package__
    monkeypatch.setitem(sys.modules, module.__name__, module)  # for @dataclass
    exec(compile(source, "<copy>", "exec"), module.__dict__)
    return module.sample_contexts


def test_an_unmutated_copy_passes_the_comparison(monkeypatch, traces):
    assert not _differs(_sampler(inspect.getsource(experiments), monkeypatch), traces)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_mutant_sampler_fails_the_comparison(mutant, monkeypatch, traces):
    source = inspect.getsource(experiments)
    old, new = MUTANTS[mutant]
    assert source.count(old) == 1
    assert _differs(_sampler(source.replace(old, new), monkeypatch), traces)
