"""The mitigation comparison cost model (claim C7).

Normalizes every mitigation's outcome to a common report row:
residual errors (protection), performance overhead (extra
activation-equivalents and stalls), energy overhead, and storage cost
— the axes along which §II-C compares the seven countermeasures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class MitigationReport:
    """One row of the mitigation comparison table.

    Attributes:
        name: mitigation label.
        residual_flips: errors that still occurred under the mitigation.
        baseline_flips: errors with no mitigation (same workload).
        perf_overhead: fraction of extra device time consumed.
        energy_overhead: fraction of extra dynamic energy consumed.
        storage_bits: dedicated hardware state, if any.
        notes: free-form caveat (deployment constraints etc.).
    """

    name: str
    residual_flips: int
    baseline_flips: int
    perf_overhead: float
    energy_overhead: float
    storage_bits: int = 0
    notes: str = ""

    @property
    def protection_fraction(self) -> float:
        """Fraction of baseline errors eliminated."""
        if self.baseline_flips == 0:
            return 1.0
        return 1.0 - self.residual_flips / self.baseline_flips

    @property
    def eliminates_all(self) -> bool:
        return self.residual_flips == 0


def report_rows(reports: List[MitigationReport]) -> List[list]:
    """Table rows for :func:`repro.analysis.tables.format_table`."""
    return [
        [
            r.name,
            r.residual_flips,
            f"{100 * r.protection_fraction:.1f}%",
            f"{100 * r.perf_overhead:.2f}%",
            f"{100 * r.energy_overhead:.2f}%",
            r.storage_bits,
            r.notes,
        ]
        for r in reports
    ]


MITIGATION_TABLE_HEADERS = (
    "mitigation",
    "residual",
    "protection",
    "perf ovh",
    "energy ovh",
    "storage(b)",
    "notes",
)


def refresh_burden_vs_density(
    row_counts=(32768, 65536, 131072, 262144, 524288),
    banks: int = 8,
    refresh_row_nj: float = 13.0,
    background_nw_per_ns: float = 0.08,
    activity_nj_per_ns: float = 0.15,
    tREFW_ns: float = 64e6,
    base_tRFC_ns: float = 160.0,
    base_rows: int = 32768,
    tREFI_ns: float = 7800.0,
) -> list:
    """Refresh's share of DRAM energy and bandwidth as density grows.

    §II-C: "DRAM refresh is already a significant burden on energy
    consumption, performance, and quality of service" — the burden
    scales with the number of rows (more rows per window) and with
    tRFC (more rows per REF command).  This is the RAIDR motivation
    table: refresh share grows from a few percent toward dominance as
    devices densify.
    """
    out = []
    for rows in row_counts:
        refresh_rate_nj_per_ns = rows * banks * refresh_row_nj / tREFW_ns
        total_rate = refresh_rate_nj_per_ns + background_nw_per_ns + activity_nj_per_ns
        tRFC = base_tRFC_ns * rows / base_rows
        out.append(
            {
                "rows": rows,
                "refresh_energy_share": refresh_rate_nj_per_ns / total_rate,
                "bandwidth_overhead": min(1.0, tRFC / tREFI_ns),
            }
        )
    return out
