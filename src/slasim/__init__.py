"""Deterministic simulator of SLA smart contracts for small-cell RAN sharing."""

from .config import (
    FLAT_RATE,
    PER_TRAFFIC,
    DegradationWindow,
    ScenarioConfig,
    ScpScenario,
    SlaTerms,
    TrafficModel,
    load_config,
)
from .contract import ScpRecord, SlaContract
from .ledger import EventKind, EventRecord, Ledger
from .report import RunReport, ScpRow
from .traffic import TrafficTrace, detect_breaches, drive, generate_trace

__version__ = "0.1.0"

__all__ = [
    "DegradationWindow",
    "EventKind",
    "EventRecord",
    "FLAT_RATE",
    "Ledger",
    "PER_TRAFFIC",
    "RunReport",
    "ScenarioConfig",
    "ScpRecord",
    "ScpRow",
    "ScpScenario",
    "SlaContract",
    "SlaTerms",
    "TrafficModel",
    "TrafficTrace",
    "detect_breaches",
    "drive",
    "generate_trace",
    "load_config",
]
