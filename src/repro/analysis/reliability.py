"""Reliability arithmetic: failure rates, AFR baselines, comparisons.

§II-C anchors PARA's guarantee against the reliability of "modern hard
disks today": the mechanism's induced-failure probability per year is
orders of magnitude below disk annualized failure rates (AFR).  The
constants here are the standard published ranges used for that
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Typical enterprise hard-disk annualized failure rate range.
HARD_DISK_AFR_LOW = 0.005
HARD_DISK_AFR_HIGH = 0.09
#: A representative single value for headline comparisons.
HARD_DISK_AFR_TYPICAL = 0.02

#: Uncorrectable DRAM error rates observed in field studies (per
#: device-year, order of magnitude) — context for "how bad is bad".
FIELD_DRAM_UE_PER_DEVICE_YEAR = 1e-3


@dataclass(frozen=True)
class ReliabilityComparison:
    """A mitigation's failure rate versus the hard-disk baseline.

    Attributes:
        log10_failures_per_year: mechanism-induced failure rate (log10).
        log10_margin_vs_disk: decades of margin below the typical disk AFR
            (positive = safer than a disk).
    """

    log10_failures_per_year: float
    log10_margin_vs_disk: float

    @property
    def safer_than_disk(self) -> bool:
        return self.log10_margin_vs_disk > 0


def compare_to_disk(log10_failures_per_year: float) -> ReliabilityComparison:
    """Position a failure rate against the typical hard-disk AFR."""
    margin = math.log10(HARD_DISK_AFR_TYPICAL) - log10_failures_per_year
    return ReliabilityComparison(
        log10_failures_per_year=log10_failures_per_year,
        log10_margin_vs_disk=margin,
    )
