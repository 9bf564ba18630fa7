"""Network substrate: units, bandwidth snapshots, flow-level fairness,
and the failure-domain tree with its rack trunks."""

from . import units
from .bandwidth import BandwidthSnapshot, RepairContext
from .flows import Flow, max_min_rates, validate_rates
from .topology import (
    LEVELS,
    DomainTree,
    rack_scaled_context,
    validate_rates_with_racks,
)

__all__ = [
    "units",
    "BandwidthSnapshot",
    "RepairContext",
    "Flow",
    "max_min_rates",
    "validate_rates",
    "LEVELS",
    "DomainTree",
    "rack_scaled_context",
    "validate_rates_with_racks",
]
