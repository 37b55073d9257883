"""Memory-controller substrate: command path, refresh, energy, counters."""

from repro.controller.controller import ControllerStats, MemoryController
from repro.controller.energy import EnergyAccount, EnergyParams
from repro.controller.hooks import MitigationHook, NullMitigation
from repro.controller.perfcounters import PerfCounters, WindowSample
from repro.controller.refresh import RefreshEngine, RefreshStats

__all__ = [
    "ControllerStats",
    "MemoryController",
    "EnergyAccount",
    "EnergyParams",
    "MitigationHook",
    "NullMitigation",
    "PerfCounters",
    "WindowSample",
    "RefreshEngine",
    "RefreshStats",
]
