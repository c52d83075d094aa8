"""Live allocation service: open-loop traces, stale views, asyncio front end,
crash-safe write-ahead logging, retrying client, and fault injection."""

from .client import ClientError, RetryingClient
from .faults import FaultController, FaultDecision, FaultPlan
from .metrics import LatencyRecorder, service_stats
from .server import (
    AllocationService,
    ReplayReport,
    ServiceError,
    StaleSequenceError,
    logged_events,
    run_server,
)
from .traces import (
    ChurnAction,
    Trace,
    TraceSpec,
    generate_churn_schedule,
    generate_trace,
)
from .views import DChoicePlacer, StaleLoadView
from .wal import WalError, WalScan, WriteAheadLog

__all__ = [
    "TraceSpec",
    "Trace",
    "generate_trace",
    "ChurnAction",
    "generate_churn_schedule",
    "StaleLoadView",
    "DChoicePlacer",
    "LatencyRecorder",
    "service_stats",
    "AllocationService",
    "ReplayReport",
    "ServiceError",
    "StaleSequenceError",
    "run_server",
    "logged_events",
    "WriteAheadLog",
    "WalScan",
    "WalError",
    "RetryingClient",
    "ClientError",
    "FaultPlan",
    "FaultDecision",
    "FaultController",
]
