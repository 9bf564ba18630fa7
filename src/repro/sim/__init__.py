"""Execution engines: event queue, exact pipelined transfer, analytic model."""

from .analytic import ideal_transfer_seconds, plan_transfer_seconds
from .dynamics import DriftResult, StallRecord, simulate_under_drift
from .events import EventQueue
from .transfer import TransferParams, TransferResult, execute

__all__ = [
    "EventQueue",
    "DriftResult",
    "StallRecord",
    "simulate_under_drift",
    "TransferParams",
    "TransferResult",
    "execute",
    "plan_transfer_seconds",
    "ideal_transfer_seconds",
]
