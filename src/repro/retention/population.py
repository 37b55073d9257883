"""A population of DRAM cells with retention times, DPD, and VRT.

The population is organized as ``rows x cells_per_row`` so row-granular
refresh policies (RAIDR, AVATAR) can bin rows by their weakest cell.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.retention.params import RetentionParams
from repro.retention.vrt import VrtProcess
from repro.utils.rng import derive_rng


def sample_retention_s(rng: np.random.Generator, params: RetentionParams,
                       n: int) -> np.ndarray:
    """Draw ``n`` nominal retention times (seconds): a bulk lognormal
    with a uniform-in-log weak tail mixed in.

    Draws normal, then ``random``, then the tail's ``uniform`` from
    ``rng``, so every caller seeding the same stream gets the same cells.
    """
    times = np.exp(rng.normal(np.log(params.median_s), params.sigma, size=n))
    tail_mask = rng.random(n) < params.tail_fraction
    n_tail = int(tail_mask.sum())
    if n_tail:
        log_lo, log_hi = np.log(params.tail_min_s), np.log(params.tail_max_s)
        times[tail_mask] = np.exp(rng.uniform(log_lo, log_hi, size=n_tail))
    return times


class CellPopulation:
    """Retention-time population of one DRAM region.

    Args:
        rows: number of rows.
        cells_per_row: cells in each row.
        params: distribution parameters.
        seed: deterministic seed for this population.
    """

    def __init__(
        self,
        rows: int,
        cells_per_row: int,
        params: RetentionParams = RetentionParams(),
        seed: int = 0,
    ) -> None:
        if rows <= 0 or cells_per_row <= 0:
            raise ValueError("rows and cells_per_row must be positive")
        self.rows = rows
        self.cells_per_row = cells_per_row
        self.params = params
        self.seed = seed
        rng = derive_rng(seed, "retention")
        n = rows * cells_per_row
        self.n_cells = n

        self.nominal_s = sample_retention_s(rng, params, n)

        # DPD: worst-case pattern multiplier < 1 for a fraction of cells.
        self.dpd_factor = np.ones(n)
        dpd_mask = rng.random(n) < params.dpd_fraction
        n_dpd = int(dpd_mask.sum())
        if n_dpd:
            self.dpd_factor[dpd_mask] = rng.uniform(params.dpd_min_factor, 1.0, size=n_dpd)

        # VRT: a sparse subset tracked by an explicit two-state process.
        vrt_mask = rng.random(n) < params.vrt_fraction
        self.vrt_indices = np.nonzero(vrt_mask)[0]
        self.vrt = VrtProcess(
            n_cells=len(self.vrt_indices),
            mean_dwell_s=params.vrt_mean_dwell_s,
            low_occupancy=params.vrt_low_occupancy,
            rng=derive_rng(seed, "vrt"),
        )

    # ------------------------------------------------------------------
    # Retention queries
    # ------------------------------------------------------------------
    def retention_s(
        self,
        worst_case_pattern: bool = True,
        vrt_low_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Effective per-cell retention times.

        Args:
            worst_case_pattern: whether the stored data pattern is the
                worst case for DPD cells (runtime data is adversarial;
                a specific test pattern may not be).
            vrt_low_mask: boolean mask over the *VRT subset* indicating
                which VRT cells are in the LOW state; ``None`` uses the
                process's current state.
        """
        times = self.nominal_s.copy()
        if worst_case_pattern:
            times *= self.dpd_factor
        if len(self.vrt_indices):
            if vrt_low_mask is None:
                vrt_low_mask = self.vrt.low_mask()
            low_cells = self.vrt_indices[vrt_low_mask]
            times[low_cells] *= self.params.vrt_low_factor
        return times

    def failing_cells(
        self,
        refresh_interval_s: float,
        worst_case_pattern: bool = True,
        vrt_low_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Indices of cells that lose data at the given refresh interval."""
        times = self.retention_s(worst_case_pattern, vrt_low_mask)
        return np.nonzero(times < refresh_interval_s)[0]

    # ------------------------------------------------------------------
    # Row granularity
    # ------------------------------------------------------------------
    def row_of(self, cell_indices: np.ndarray) -> np.ndarray:
        """Map cell indices to their row indices."""
        return np.asarray(cell_indices) // self.cells_per_row
