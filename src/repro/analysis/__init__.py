"""Reliability math, cost modeling, and report tables and figures."""

from repro.analysis.costmodel import (
    MITIGATION_TABLE_HEADERS,
    MitigationReport,
    refresh_burden_vs_density,
    report_rows,
)
from repro.analysis.reliability import (
    FIELD_DRAM_UE_PER_DEVICE_YEAR,
    HARD_DISK_AFR_HIGH,
    HARD_DISK_AFR_LOW,
    HARD_DISK_AFR_TYPICAL,
    ReliabilityComparison,
    compare_to_disk,
)
from repro.analysis.figure import ascii_log_scatter
from repro.analysis.tables import format_table

__all__ = [
    "MITIGATION_TABLE_HEADERS",
    "MitigationReport",
    "refresh_burden_vs_density",
    "report_rows",
    "FIELD_DRAM_UE_PER_DEVICE_YEAR",
    "HARD_DISK_AFR_HIGH",
    "HARD_DISK_AFR_LOW",
    "HARD_DISK_AFR_TYPICAL",
    "ReliabilityComparison",
    "compare_to_disk",
    "ascii_log_scatter",
    "format_table",
]
