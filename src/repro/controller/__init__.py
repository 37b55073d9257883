"""Memory-controller substrate: command path, refresh, energy, mitigation hooks."""

from repro.controller.controller import ControllerStats, MemoryController
from repro.controller.energy import EnergyAccount, EnergyParams
from repro.controller.hooks import MitigationHook, NullMitigation
from repro.controller.refresh import RefreshEngine, RefreshStats

__all__ = [
    "ControllerStats",
    "MemoryController",
    "EnergyAccount",
    "EnergyParams",
    "MitigationHook",
    "NullMitigation",
    "RefreshEngine",
    "RefreshStats",
]
