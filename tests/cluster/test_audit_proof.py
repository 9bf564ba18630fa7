"""A stripe is proven once per generation, and the proof is never stale.

``ClusterSystem`` keeps, per stripe, the ``(node, generation)`` of each
stored chunk last proven on the stripe's codeword — by ``write_stripe``
(its intact puts) or by the post-repair audit (``AuditReport.proven``).
An audit whose stored chunks all still match that proof predicts only
the lost row.  Here:

* every audit call of the chaos harness (crashes, stalls, rot, torn
  writes, wire corruption) and of the repair state machine that took the
  proven path is replayed with ``proven=()`` and must return the same
  report, field by field;
* three mutants of the proof's bookkeeping must each fail a test below:
  keying the proof by generation alone, keeping a proof through a
  mutation, and proving a torn put.
"""

from __future__ import annotations

import inspect
import textwrap

import numpy as np
import pytest
from hypothesis.stateful import run_state_machine_as_test

from repro.cluster import ClusterSystem
from repro.cluster import system as system_module
from repro.ec import RSCode
from repro.net import BandwidthSnapshot

from .test_chaos import run_one, run_one_corrupted
from .test_repair_machine import RepairMachine

N, K = 14, 10
NUM_NODES = 16
CHUNK = 8 * 1024


def _fields(report, rebuilt) -> tuple:
    predicted = None if report.predicted is None else report.predicted.tobytes()
    return (
        report.ok, report.culprits, report.localized, report.rebuilt_ok,
        predicted, report.checked, report.proven, report.predicted is rebuilt,
    )


@pytest.fixture
def replayed(monkeypatch):
    """Replays every proven-path audit the cluster makes with no proof;
    yields the list of proven-path calls seen."""
    real = system_module.audit_stripe
    fast = []

    def audit(code, lost, rebuilt, stored, *, digest_bad=(), proven=()):
        report = real(code, lost, rebuilt, stored, digest_bad=digest_bad,
                      proven=proven)
        if len(stored) > code.k and stored.keys() <= set(proven):
            slow = real(code, lost, rebuilt, stored, digest_bad=digest_bad)
            assert _fields(report, rebuilt) == _fields(slow, rebuilt)
            fast.append(lost)
        return report

    monkeypatch.setattr(system_module, "audit_stripe", audit)
    return fast


@pytest.mark.parametrize(
    "run", [run_one, run_one_corrupted], ids=["run_one", "run_one_corrupted"]
)
def test_chaos_audits_equal_their_full_replay(replayed, run):
    for seed in range(40):
        run(seed)
    assert len(replayed) >= 20  # most schedules keep the write's proof


def test_machine_audits_equal_their_full_replay(replayed):
    # the machine's own settings: the same derandomised programs it runs
    run_state_machine_as_test(RepairMachine, settings=RepairMachine.TestCase.settings)
    assert replayed


# --------------------------------------------------------------------- #
# the proof's three rules, each with a mutant that must break it         #
# --------------------------------------------------------------------- #


def _cluster():
    system = ClusterSystem(NUM_NODES, RSCode(N, K), slice_bytes=1024)
    rng = np.random.default_rng(11)
    system.set_bandwidth(
        BandwidthSnapshot(
            uplink=rng.uniform(100.0, 1000.0, NUM_NODES),
            downlink=rng.uniform(100.0, 1000.0, NUM_NODES),
        )
    )
    data = rng.integers(0, 256, (K, CHUNK), dtype=np.uint8)
    system.write_stripe("s", data, placement=tuple(range(N)))
    return system, data


def _audited(system, failed, requester):
    """Repair ``failed``'s chunk at ``requester`` (no store); the outcome,
    whether its first audit took the proven path, and that audit's report."""
    real = system_module.audit_stripe
    seen = []

    def audit(code, lost, rebuilt, stored, **kw):
        report = real(code, lost, rebuilt, stored, **kw)
        seen.append((stored.keys() <= set(kw["proven"]), report))
        return report

    system_module.audit_stripe = audit
    try:
        outcome = system.repair("s", failed, requester, store=False)
    finally:
        system_module.audit_stripe = real
    return outcome, *seen[0]


def test_a_chunk_moved_to_a_node_at_the_same_generation_is_rechecked():
    system, _ = _cluster()
    # chunk 13 is node 13's first put, so its generation there is 1 — and
    # a put onto node 14, which has never stored anything, is also 1
    rogue = np.random.default_rng(3).integers(0, 256, CHUNK, dtype=np.uint8)
    assert system.nodes[14].store.put("s", 13, rogue)
    assert system.nodes[14].store.generation("s", 13) == (
        system.nodes[13].store.generation("s", 13)
    )
    system.nodes[13].store.delete("s", 13)
    system.master.relocate_chunk("s", 13, 14)
    system.fail_node(0)
    _, proven_path, report = _audited(system, 0, 15)
    assert not proven_path
    assert report.ok is False and report.culprits == (13,)
    assert system.master.is_quarantined("s", 13)


def test_silent_rot_after_a_clean_audit_is_caught_and_localized():
    system, data = _cluster()
    system.fail_node(0)
    outcome, proven_path, report = _audited(system, 0, 15)
    assert outcome.verified and proven_path and report.ok
    assert report.proven == tuple(range(1, N))
    # rot under a matching digest, after the proof was renewed
    assert system.corrupt_chunk(12, "s", 12, seed=4, fix_digest=True)
    outcome, proven_path, report = _audited(system, 0, 15)
    assert not proven_path
    assert report.ok is False and 12 in report.culprits
    assert system.master.is_quarantined("s", 12)
    # leave-one-out proved the rest: the next audit is on the proven path
    assert report.proven == tuple(i for i in range(1, N) if i != 12)
    outcome, proven_path, report = _audited(system, 0, 15)
    assert proven_path and report.rebuilt_ok
    assert np.array_equal(outcome.rebuilt, data[0])


def test_a_torn_put_during_the_write_is_not_proven():
    system = ClusterSystem(NUM_NODES, RSCode(N, K), slice_bytes=1024)
    data = np.random.default_rng(5).integers(0, 256, (K, CHUNK), dtype=np.uint8)
    system.nodes[4].store.arm_torn_write(tail_fraction=0.5, seed=1)
    system.write_stripe("s", data, placement=tuple(range(N)))
    # every entry of the proof holds bytes on the stripe's codeword
    stripe = RSCode(N, K).encode(data)
    proof = system._proofs["s"]
    for ci, (node, generation) in proof.items():
        store = system.nodes[node].store
        assert store.generation("s", ci) == generation
        assert np.array_equal(store.view("s", ci), stripe[ci]), ci
    assert sorted(proof) == [i for i in range(N) if i != 4]
    # the torn chunk fails its digest (and is quarantined); the rest still
    # audit on the proof
    system.set_bandwidth(
        BandwidthSnapshot(uplink=np.full(NUM_NODES, 500.0),
                          downlink=np.full(NUM_NODES, 500.0))
    )
    system.fail_node(0)
    outcome, proven_path, report = _audited(system, 0, 15)
    assert proven_path and report.rebuilt_ok and 4 not in report.proven
    assert system.master.is_quarantined("s", 4)
    assert np.array_equal(outcome.rebuilt, data[0])


def _mutant(monkeypatch, method: str, old: str, new: str) -> None:
    """Replace ``ClusterSystem.<method>`` by a copy with ``old`` -> ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(ClusterSystem, method)))
    assert source.count(old) == 1, old
    namespace: dict = {}
    exec(compile(source.replace(old, new), "<mutant>", "exec"),
         vars(system_module), namespace)
    monkeypatch.setattr(ClusterSystem, method, namespace[method])


MUTANTS = {
    # the key forgets the node: generations are per store, so two nodes
    # can hold the same number
    "generation_only": (
        test_a_chunk_moved_to_a_node_at_the_same_generation_is_rechecked,
        [("write_stripe", "(node, store.generation(stripe_id, idx))",
          "store.generation(stripe_id, idx)"),
         ("_audit", "(node, store.generation(sid, ci))",
          "store.generation(sid, ci)")],
    ),
    # a chunk stays proven through a mutation
    "survives_mutation": (
        test_silent_rot_after_a_clean_audit_is_caught_and_localized,
        [("_audit", "if proof.get(ci) == key", "if ci in proof")],
    ),
    # the write proves what it put, torn or not
    "proves_torn_put": (
        test_a_torn_put_during_the_write_is_not_proven,
        [("write_stripe", "if store.put(stripe_id, idx, rows[idx]):",
          "if store.put(stripe_id, idx, rows[idx]) or True:")],
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_mutant_proof_fails_its_test(name, monkeypatch):
    test, edits = MUTANTS[name]
    for method, old, new in edits:
        _mutant(monkeypatch, method, old, new)
    with pytest.raises(AssertionError):
        test()
