"""DRAM data-retention modeling: DPD, VRT, profiling, RAIDR, AVATAR."""

from repro.retention.avatar import AvatarResult, simulate_avatar
from repro.retention.online_profiling import OnlineProfilingResult, simulate_online_profiling
from repro.retention.params import DEFAULT_RETENTION, LEGACY_NODE, SCALED_NODE, RetentionParams
from repro.retention.population import CellPopulation
from repro.retention.profiling import ProfilingResult, field_escapes, profile_population
from repro.retention.raidr import (
    DEFAULT_BINS_S,
    RaidrAssignment,
    assign_bins,
    runtime_escape_cells,
)
from repro.retention.vrt import VrtProcess

__all__ = [
    "AvatarResult",
    "simulate_avatar",
    "OnlineProfilingResult",
    "simulate_online_profiling",
    "DEFAULT_RETENTION",
    "LEGACY_NODE",
    "SCALED_NODE",
    "RetentionParams",
    "CellPopulation",
    "ProfilingResult",
    "field_escapes",
    "profile_population",
    "DEFAULT_BINS_S",
    "RaidrAssignment",
    "assign_bins",
    "runtime_escape_cells",
    "VrtProcess",
]
