"""DRAM substrate: geometry, timing, address mapping, disturbance model,
and the bank engines (columnar in production, the per-command reference
as the test oracle)."""

from repro.dram.bank import BankStats, DramBank
from repro.dram.columnar import ColumnarDramBank
from repro.dram.datapatterns import PATTERN_NAMES, PATTERNS, get_pattern, make_random_pattern, pattern_bits
from repro.dram.disturbance import (
    INVULNERABLE,
    DisturbanceModel,
    VulnerabilityProfile,
    WeakCellBlock,
    WeakCellSet,
)
from repro.dram.stream import Command, CommandStream
from repro.dram.geometry import DDR3_2GB, DDR3_4GB, TINY_GEOMETRY, DramGeometry
from repro.dram.latency import SPEC_TRCD_NS, LatencyMarginModel, LatencyMarginParams, aldram_study
from repro.dram.mapping import AddressMapping, DramCoordinate
from repro.dram.module import DramModule
from repro.dram.remap import RowRemapper
from repro.dram.timing import DDR3_1066, DDR3_1333, DDR4_2400, TimingParams
from repro.dram.vintage import MANUFACTURERS, VINTAGE_CURVES, VintageCurve, hc_first_min_for_date, profile_for

__all__ = [
    "BankStats",
    "Command",
    "CommandStream",
    "ColumnarDramBank",
    "DramBank",
    "WeakCellBlock",
    "PATTERN_NAMES",
    "PATTERNS",
    "get_pattern",
    "make_random_pattern",
    "pattern_bits",
    "INVULNERABLE",
    "DisturbanceModel",
    "VulnerabilityProfile",
    "WeakCellSet",
    "DDR3_2GB",
    "DDR3_4GB",
    "TINY_GEOMETRY",
    "DramGeometry",
    "SPEC_TRCD_NS",
    "LatencyMarginModel",
    "LatencyMarginParams",
    "aldram_study",
    "AddressMapping",
    "DramCoordinate",
    "DramModule",
    "RowRemapper",
    "DDR3_1066",
    "DDR4_2400",
    "DDR3_1333",
    "TimingParams",
    "MANUFACTURERS",
    "VINTAGE_CURVES",
    "VintageCurve",
    "hc_first_min_for_date",
    "profile_for",
]
