"""Cluster prototype: master/data-node architecture with real repair."""

from .chunkstore import ChunkStore
from .datanode import DataNode
from .files import FileEntry, FileStore
from .master import (
    DeadNodeError,
    Master,
    RepairImpossibleError,
    StripeLocation,
    UnknownNodeError,
)
from .placement import (
    LoadBalancedPlacement,
    PlacementPolicy,
    RandomSpreadPlacement,
    RoundRobinPlacement,
    make_policy,
)
from .messages import BandwidthReport, SliceData, TransferTask
from .system import ClusterSystem, RepairOutcome

__all__ = [
    "ChunkStore",
    "DataNode",
    "FileEntry",
    "FileStore",
    "Master",
    "StripeLocation",
    "UnknownNodeError",
    "DeadNodeError",
    "RepairImpossibleError",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "RandomSpreadPlacement",
    "LoadBalancedPlacement",
    "make_policy",
    "BandwidthReport",
    "SliceData",
    "TransferTask",
    "ClusterSystem",
    "RepairOutcome",
]
