"""Core composition layer: scenarios and the MemorySystem facade."""

from repro.core.scenarios import Scenario, full_scale_scenario, scaled_scenario
from repro.core.system import MITIGATIONS, MemorySystem, SystemReport

__all__ = [
    "Scenario",
    "full_scale_scenario",
    "scaled_scenario",
    "MITIGATIONS",
    "MemorySystem",
    "SystemReport",
]
