"""repro — a simulation-based reproduction of Mutlu, "The RowHammer
Problem and Other Issues We May Face as Memory Becomes Denser"
(DATE 2017).

The package builds, from scratch, every substrate the paper's claims
rest on — a disturbance-aware DRAM device model, a mitigation-capable
memory controller, ECC codes, a DRAM retention model (DPD/VRT), an MLC
NAND flash Vth model with its error mechanisms and recovery schemes,
and a PCM endurance model — plus the attacks and mitigations the paper
discusses, and an experiment registry regenerating its figure and
quantitative claims.

Quick start::

    from repro import MemorySystem

    system = MemorySystem.build(manufacturer="B", date=2013.0,
                                scaled=True, mitigation="para",
                                mitigation_kwargs={"p": 0.02})
    flips = system.hammer_double_sided(victim=1000, iterations=30_000)
"""

from repro.core.scenarios import Scenario, full_scale_scenario, scaled_scenario
from repro.core.system import MITIGATIONS, MemorySystem, SystemReport
from repro.dram.module import DramModule
from repro.dram.vintage import profile_for

__version__ = "1.0.0"

__all__ = [
    "Scenario",
    "full_scale_scenario",
    "scaled_scenario",
    "MITIGATIONS",
    "MemorySystem",
    "SystemReport",
    "DramModule",
    "profile_for",
    "__version__",
]
