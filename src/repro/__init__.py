"""repro — FullRepair: optimal multi-pipeline repair for erasure-coded storage.

A from-scratch reproduction of *FullRepair: Towards Optimal Repair
Pipelining in Erasure-Coded Clustered Storage Systems* (IEEE CLUSTER
2023): the multi-pipeline repair scheduler (Algorithms 1 & 2), the
single-pipeline baselines it is evaluated against (conventional star
repair, RP chains, PPT / PivotRepair trees), and every substrate the
evaluation needs — GF(2^8) Reed-Solomon coding, a bandwidth-accurate
cluster/network simulator, synthetic TPC-DS / TPC-H / SWIM bandwidth
traces, and the experiment harness regenerating the paper's tables and
figures.

Quickstart::

    import numpy as np
    from repro import BandwidthSnapshot, RepairContext, compute_plan

    snap = BandwidthSnapshot(
        uplink=np.array([1000.0, 600, 960, 600, 600]),
        downlink=np.array([1000.0, 300, 1000, 300, 300]),
    )
    ctx = RepairContext(snapshot=snap, requester=0, helpers=(1, 2, 3, 4), k=3)
    plan = compute_plan("fullrepair", ctx)
    print(plan.total_rate)   # 900.0 Mbps — the paper's Fig. 2 example
"""

from . import analysis, cluster, core, ec, net, obs, repair, sim, workloads
from .cluster import ClusterSystem
from .core import FullRepair, max_pipelined_throughput
from .ec import RSCode
from .net import BandwidthSnapshot, Flow, RepairContext
from .repair import (
    ConventionalRepair,
    PartialParallelRepair,
    ParallelPipelineTree,
    PivotRepair,
    RepairPipelining,
    RepairPlan,
    algorithm_names,
    compute_plan,
    get_algorithm,
)
from .sim import TransferParams, execute
from .workloads import make_trace

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "cluster",
    "core",
    "ec",
    "net",
    "obs",
    "repair",
    "sim",
    "workloads",
    "ClusterSystem",
    "FullRepair",
    "max_pipelined_throughput",
    "RSCode",
    "BandwidthSnapshot",
    "Flow",
    "RepairContext",
    "ConventionalRepair",
    "PartialParallelRepair",
    "ParallelPipelineTree",
    "PivotRepair",
    "RepairPipelining",
    "RepairPlan",
    "algorithm_names",
    "compute_plan",
    "get_algorithm",
    "TransferParams",
    "execute",
    "make_trace",
    "__version__",
]
