"""The `MemorySystem` facade: module + controller + mitigation in one handle.

This is the library's main entry point for DRAM experiments::

    from repro import MemorySystem

    system = MemorySystem.build(manufacturer="B", date=2013.0,
                                mitigation="para", mitigation_kwargs={"p": 0.001})
    flips = system.hammer_double_sided(victim=1200, iterations=60_000)
    print(system.report())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.controller.controller import MemoryController
from repro.controller.hooks import NullMitigation
from repro.core.scenarios import Scenario, full_scale_scenario, scaled_scenario
from repro.dram.module import DramModule
from repro.mitigations.anvil import AnvilMitigation
from repro.mitigations.cra import CounterBasedMitigation
from repro.mitigations.para import Para
from repro.mitigations.trr import TrrMitigation

#: mitigation factory registry (name -> constructor).
MITIGATIONS = {
    "none": NullMitigation,
    "para": Para,
    "cra": CounterBasedMitigation,
    "anvil": AnvilMitigation,
    "trr": TrrMitigation,
}


@dataclass(frozen=True)
class SystemReport:
    """End-of-run summary of a :class:`MemorySystem`.

    Attributes:
        flips: disturbance errors that materialized.
        activations: row activations issued.
        mitigation_refreshes: victim refreshes the mitigation injected.
        time_ns: simulated time elapsed.
        dynamic_energy_nj: dynamic DRAM energy spent.
        refresh_energy_share: fraction of dynamic energy spent refreshing.
    """

    flips: int
    activations: int
    mitigation_refreshes: int
    time_ns: float
    dynamic_energy_nj: float
    refresh_energy_share: float


class MemorySystem:
    """A module driven by a mitigation-aware controller."""

    def __init__(
        self,
        module: DramModule,
        mitigation: str = "none",
        mitigation_kwargs: Optional[Dict] = None,
        refresh_multiplier: float = 1.0,
        spd_adjacency: bool = True,
    ) -> None:
        if mitigation not in MITIGATIONS:
            raise KeyError(f"unknown mitigation {mitigation!r}; options: {sorted(MITIGATIONS)}")
        self.module = module
        self.mitigation = MITIGATIONS[mitigation](**(mitigation_kwargs or {}))
        self.controller = MemoryController(
            module,
            mitigation=self.mitigation,
            refresh_multiplier=refresh_multiplier,
            spd_adjacency=spd_adjacency,
        )

    @classmethod
    def build(
        cls,
        manufacturer: str = "B",
        date: float = 2013.0,
        scenario: Optional[Scenario] = None,
        scaled: bool = False,
        scale: float = 20.0,
        seed: int = 0,
        **kwargs,
    ) -> "MemorySystem":
        """Build a system from a vintage (optionally time-scaled) scenario."""
        if scenario is None:
            scenario = (
                scaled_scenario(scale=scale, manufacturer=manufacturer, date=date)
                if scaled
                else full_scale_scenario(manufacturer, date)
            )
        return cls(scenario.make_module(seed=seed), **kwargs)

    # ------------------------------------------------------------------
    # Attack drivers
    # ------------------------------------------------------------------
    def hammer_double_sided(self, victim: int, iterations: int, bank: int = 0) -> int:
        """Hammer both neighbors of ``victim`` through the full command
        pipeline; return the flips produced."""
        before = self.module.total_flips()
        aggressors = [victim - 1, victim + 1]
        self.controller.run_activation_pattern(bank, aggressors, iterations)
        self.controller.finish()
        return self.module.total_flips() - before

    def run_trace(self, trace) -> None:
        """Replay a (bank, row, is_write) trace through the controller."""
        self.controller.run_trace(trace)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> SystemReport:
        """Summarize the run so far."""
        ctrl = self.controller
        return SystemReport(
            flips=self.module.total_flips(),
            activations=ctrl.stats.activations,
            mitigation_refreshes=ctrl.stats.mitigation_refreshes,
            time_ns=ctrl.time_ns,
            dynamic_energy_nj=ctrl.energy.dynamic_nj,
            refresh_energy_share=ctrl.energy.refresh_share(),
        )
