"""A DRAM module: banks + disturbance model + remapping + identity.

The module is the device-side endpoint the memory controller drives.
Logical (externally visible) row addresses pass through the module's
:class:`~repro.dram.remap.RowRemapper` before reaching the banks, which
operate in physical row space — mirroring the manufacturer-internal
remapping the paper identifies as the obstacle to controller-side PARA.

Banks run on the columnar engine
(:class:`~repro.dram.columnar.ColumnarDramBank`).  The per-command
reference :class:`~repro.dram.bank.DramBank` is the test oracle only;
:class:`repro.dram.differential.ReferenceModule` builds modules from it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.dram.bank import DramBank, TraceLine
from repro.dram.columnar import ColumnarDramBank
from repro.dram.disturbance import DisturbanceModel, VulnerabilityProfile
from repro.dram.geometry import DDR3_2GB, DramGeometry
from repro.dram.remap import RowRemapper
from repro.dram.timing import DDR3_1333, TimingParams
from repro.dram.vintage import profile_for
from repro.utils.rng import derive_seed


class DramModule:
    """One DRAM module under test.

    Args:
        geometry: physical organization.
        timing: timing parameters.
        profile: disturbance vulnerability.
        serial: module identifier (participates in seeding).
        manufacturer: vendor label ("A"/"B"/"C" in the study).
        manufacture_date: fractional year of manufacture.
        remap_scheme: internal row remapping scheme.
        default_pattern: background data fill.
        seed: experiment root seed.
    """

    #: Bank engine class.  A seam for the oracle tests, which swap in
    #: the reference engine; not a user option.
    bank_class = ColumnarDramBank

    def __init__(
        self,
        geometry: DramGeometry = DDR3_2GB,
        timing: TimingParams = DDR3_1333,
        profile: Optional[VulnerabilityProfile] = None,
        serial: str = "M0",
        manufacturer: str = "A",
        manufacture_date: float = 2013.0,
        remap_scheme: str = "identity",
        default_pattern: str = "solid1",
        seed: int = 0,
    ) -> None:
        if profile is None:
            profile = profile_for(manufacturer, manufacture_date)
        self.geometry = geometry
        self.timing = timing
        self.profile = profile
        self.serial = serial
        self.manufacturer = manufacturer
        self.manufacture_date = manufacture_date
        self.seed = derive_seed(seed, "module", serial)
        self.remapper = RowRemapper(geometry.rows, remap_scheme)
        self.model = DisturbanceModel(geometry, profile, self.seed)
        self.banks: List[DramBank] = [
            self.bank_class(geometry, self.model, i, default_pattern)
            for i in range(geometry.banks)
        ]
        line = TraceLine()
        for bank in self.banks:
            bank._stats.line = line

    @classmethod
    def from_vintage(
        cls,
        manufacturer: str,
        manufacture_date: float,
        serial: str = "M0",
        seed: int = 0,
        geometry: DramGeometry = DDR3_2GB,
        timing: TimingParams = DDR3_1333,
        **kwargs,
    ) -> "DramModule":
        """Build a module whose vulnerability follows the vintage calibration."""
        return cls(
            geometry=geometry,
            timing=timing,
            profile=profile_for(manufacturer, manufacture_date),
            serial=serial,
            manufacturer=manufacturer,
            manufacture_date=manufacture_date,
            seed=seed,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Logical-row operations (the external interface)
    # ------------------------------------------------------------------
    def bank(self, index: int) -> DramBank:
        """Access bank ``index``."""
        self.geometry.check_bank(index)
        return self.banks[index]

    def activate(self, bank: int, logical_row: int, time: float = 0.0) -> None:
        """Activate a logical row."""
        self.bank(bank).activate(self.remapper.to_physical(logical_row), time)

    def precharge(self, bank: int) -> None:
        """Precharge (close) the bank's open row."""
        self.bank(bank).precharge()

    def read_row(self, bank: int, logical_row: int, time: float = 0.0) -> np.ndarray:
        """Read a logical row as a bit array."""
        return self.bank(bank).read(self.remapper.to_physical(logical_row), time)

    def write_row(self, bank: int, logical_row: int, bits: np.ndarray, time: float = 0.0) -> None:
        """Write a logical row from a bit array."""
        self.bank(bank).write(self.remapper.to_physical(logical_row), bits, time)

    def refresh_row(self, bank: int, logical_row: int, time: float = 0.0) -> np.ndarray:
        """Refresh one logical row; returns pre-refresh flips."""
        return self.bank(bank).refresh_row(self.remapper.to_physical(logical_row), time)

    def refresh_physical_row(self, bank: int, physical_row: int, time: float = 0.0) -> np.ndarray:
        """Refresh one physical row (in-DRAM mitigations know true adjacency)."""
        return self.bank(bank).refresh_row(physical_row, time)

    def refresh_physical_rows(self, bank: int, physical_rows, time: float = 0.0) -> int:
        """Refresh a batch of physical rows in one bank; return flip count.

        The auto-refresh engine issues its round-robin chunks through
        this path so the columnar engine can materialize the whole
        chunk in one batched pass.
        """
        return self.bank(bank).refresh_rows(physical_rows, time)

    def execute(self, bank: int, stream) -> int:
        """Run a :class:`~repro.dram.stream.CommandStream` on one bank
        (physical row space); return the flips it materialized."""
        return self.bank(bank).execute(stream)

    # ------------------------------------------------------------------
    # Summary helpers
    # ------------------------------------------------------------------
    def total_flips(self) -> int:
        """Total disturbance flips materialized across all banks."""
        return sum(b.stats.flips_materialized for b in self.banks)

    def total_activations(self) -> int:
        """Total activate commands across all banks."""
        return sum(b.stats.activations for b in self.banks)

    def settle(self, time: float = 0.0) -> int:
        """Materialize pending flips in every bank; return the count."""
        return sum(b.settle(time) for b in self.banks)

    def __repr__(self) -> str:
        return (
            f"DramModule(serial={self.serial!r}, manufacturer={self.manufacturer!r}, "
            f"date={self.manufacture_date}, density={self.profile.weak_cell_density:g})"
        )
