"""Full-stack integration: traces -> scheduling -> execution -> bytes.

These tests exercise the complete path a user of the library takes, with
randomised shapes: generate a workload trace, build a cluster, store
data, fail nodes, repair with every algorithm, and cross-check the three
execution views (analytic model, vectorised executor, byte-real cluster)
against each other.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ClusterSystem, RSCode, TransferParams, execute
from repro.repair import algorithm_names, get_algorithm
from repro.sim.transfer import DISPATCH_LATENCY_S
from repro.workloads import make_trace

cluster_shapes = st.tuples(
    st.sampled_from([(5, 3), (6, 4), (9, 6)]),   # (n, k)
    st.integers(0, 2**31 - 1),                     # seed
    st.sampled_from([1024, 4096, 10_000]),         # chunk bytes
    st.sampled_from([512, 2048]),                  # slice bytes
)

slow = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestClusterRoundTripProperty:
    @pytest.mark.parametrize("algorithm", sorted(algorithm_names()))
    @given(shape=cluster_shapes)
    @slow
    def test_repair_is_byte_exact(self, algorithm, shape):
        (n, k), seed, chunk_bytes, slice_bytes = shape
        rng = np.random.default_rng(seed)
        num_nodes = n + 3
        system = ClusterSystem(
            num_nodes, RSCode(n, k), algorithm=algorithm,
            slice_bytes=slice_bytes,
        )
        trace = make_trace(
            "tpcds", num_nodes=num_nodes, num_snapshots=20,
            seed=seed % 1000,
        )
        system.set_bandwidth(trace.snapshot(int(rng.integers(0, 20))))
        data = rng.integers(0, 256, (k, chunk_bytes), dtype=np.uint8)
        placement = tuple(
            int(x) for x in rng.permutation(num_nodes)[:n]
        )
        system.write_stripe("s", data, placement=placement)
        failed = int(placement[rng.integers(0, n)])
        requester = next(
            i for i in range(num_nodes) if i not in placement
        )
        system.fail_node(failed)
        outcome = system.repair("s", failed_node=failed, requester=requester)
        assert outcome.verified
        assert outcome.elapsed_seconds > 0


class TestThreeViewAgreement:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_executor_vs_cluster_timing(self, seed):
        """Vectorised executor and byte-real cluster agree on FullRepair
        multi-pipeline timing for arbitrary sampled bandwidth."""
        rng = np.random.default_rng(seed)
        num_nodes = 12
        chunk_bytes = 20 * 1024
        slice_bytes = 2048
        system = ClusterSystem(
            num_nodes, RSCode(9, 6), algorithm="fullrepair",
            slice_bytes=slice_bytes,
        )
        trace = make_trace(
            "swim", num_nodes=num_nodes, num_snapshots=30, seed=seed % 997
        )
        system.set_bandwidth(trace.snapshot(int(rng.integers(0, 30))))
        data = rng.integers(0, 256, (6, chunk_bytes), dtype=np.uint8)
        system.write_stripe("s", data, placement=tuple(range(9)))
        system.fail_node(4)
        outcome = system.repair("s", failed_node=4, requester=10)
        params = TransferParams(chunk_bytes=chunk_bytes, slice_bytes=slice_bytes)
        expected = execute(outcome.plan, params).transfer_seconds
        got = outcome.elapsed_seconds - DISPATCH_LATENCY_S
        assert got == pytest.approx(expected, rel=0.08)


class TestExperimentToClusterConsistency:
    def test_plan_from_experiment_context_executes_in_cluster(self):
        """Contexts sampled by the experiment harness produce plans the
        cluster can execute verbatim."""
        from repro.analysis import sample_contexts

        trace = make_trace("tpch", num_nodes=13, num_snapshots=200, seed=3)
        ctx = sample_contexts(trace, 9, 6, 1, seed=4)[0]
        plan = get_algorithm("fullrepair").plan(ctx)
        plan.validate()
        # rebuild the same roles inside a cluster
        system = ClusterSystem(13, RSCode(9, 6), slice_bytes=2048)
        system.set_bandwidth(ctx.snapshot)
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, (6, 8192), dtype=np.uint8)
        failed = next(
            i for i in range(13)
            if i != ctx.requester and i not in ctx.helpers
        )
        placement = (failed, *ctx.helpers)
        system.write_stripe("s", data, placement=placement)
        system.fail_node(failed)
        outcome = system.repair("s", failed_node=failed, requester=ctx.requester)
        assert outcome.verified
        assert outcome.plan.total_rate == pytest.approx(plan.total_rate, rel=1e-6)
