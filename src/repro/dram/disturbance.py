"""The RowHammer disturbance fault model.

The model follows the experimental characterization of the ISCA 2014
study the paper builds on:

* A small fraction of cells are *weak*: repeated activation of an
  adjacent row disturbs them enough to lose charge before the next
  refresh.  Each weak cell has an ``hc_first`` threshold — the number
  of adjacent-row activations (within one refresh window of the
  victim) after which it flips.
* Flips are **charge loss**: a true cell flips 1 -> 0, an anti cell
  flips 0 -> 1.  A cell that stores its discharged value cannot flip.
  This reproduces the observed data-pattern dependence.
* A further fraction of weak cells are *aggressor sensitive*: they are
  only fully coupled when the aggressor stores the opposite value of
  the victim cell; otherwise their effective threshold is relieved by
  a constant factor.
* Disturbance is strongest for immediately adjacent rows; rows at
  distance two receive a small residual coupling (``distance2_weight``).
  Double-sided hammering therefore roughly doubles the pressure a
  victim accumulates, matching the observed ~2x effectiveness gain.

Weak-cell placement is a deterministic function of (module seed, bank,
block), so a module's error map is stable across runs and experiments —
the paper's "consistently predictable bit locations" property.  Cells
are generated one :data:`BLOCK_ROWS`-row **block** at a time
(:meth:`DisturbanceModel.weak_cells_block`): one derived generator
serves vectorized draws for the whole block, amortizing the dominant
per-``Generator`` construction cost ~100x versus per-row derivation.
Per-row :meth:`~DisturbanceModel.weak_cells` views are zero-copy slices
of the block's CSR arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.dram.geometry import DramGeometry
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive, check_probability

#: Weak-cell cache entries (blocks) kept per model before eviction.
_CACHE_LIMIT = 4096

#: Rows generated per weak-cell block.  Part of the deterministic map:
#: changing it changes which rng serves which row.
BLOCK_ROWS = 128


@dataclass(frozen=True)
class VulnerabilityProfile:
    """Per-module disturbance vulnerability parameters.

    Attributes:
        weak_cell_density: fraction of cells with a finite hammer threshold.
        hc_first_median: median activations-to-first-flip among weak cells.
        hc_first_sigma: lognormal shape of the threshold distribution.
        hc_first_min: hard floor — the module's most vulnerable cell.
        anti_cell_fraction: fraction of cells wired as anti cells
            (charged state encodes 0).
        aggressor_sensitive_fraction: fraction of weak cells whose
            coupling depends on the aggressor's stored data.
        dpd_relief: threshold multiplier for aggressor-sensitive cells
            when the aggressor pattern does not oppose the victim.
        distance2_weight: coupling weight for rows two away (distance-1
            rows weigh 1.0).
    """

    weak_cell_density: float
    hc_first_median: float = 700_000.0
    hc_first_sigma: float = 0.45
    hc_first_min: float = 139_000.0
    anti_cell_fraction: float = 0.5
    aggressor_sensitive_fraction: float = 0.3
    dpd_relief: float = 3.0
    distance2_weight: float = 0.015

    def __post_init__(self) -> None:
        check_probability("weak_cell_density", self.weak_cell_density)
        check_probability("anti_cell_fraction", self.anti_cell_fraction)
        check_probability("aggressor_sensitive_fraction", self.aggressor_sensitive_fraction)
        check_probability("distance2_weight", self.distance2_weight)
        if self.weak_cell_density > 0:
            check_positive("hc_first_median", self.hc_first_median)
            check_positive("hc_first_min", self.hc_first_min)
            check_positive("dpd_relief", self.dpd_relief)
            if self.hc_first_min > self.hc_first_median:
                raise ValueError("hc_first_min must not exceed hc_first_median")

    @property
    def vulnerable(self) -> bool:
        """Whether the module can exhibit any disturbance error."""
        return self.weak_cell_density > 0


#: An invulnerable module (pre-2010 vintages in the study).
INVULNERABLE = VulnerabilityProfile(weak_cell_density=0.0)


@dataclass(frozen=True)
class WeakCellSet:
    """Weak cells of one row, as parallel arrays.

    Attributes:
        bits: bit positions within the row (sorted, unique).
        hc_first: per-cell activation thresholds.
        anti: True where the cell is an anti cell (charged == 0).
        aggressor_sensitive: True where coupling depends on aggressor data.
    """

    bits: np.ndarray
    hc_first: np.ndarray
    anti: np.ndarray
    aggressor_sensitive: np.ndarray

    def __len__(self) -> int:
        return len(self.bits)


_EMPTY = WeakCellSet(
    bits=np.empty(0, dtype=np.int64),
    hc_first=np.empty(0, dtype=np.float64),
    anti=np.empty(0, dtype=bool),
    aggressor_sensitive=np.empty(0, dtype=bool),
)


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``a`` (sort+mask: much faster than the
    hash-based ``np.unique`` on the small arrays this module handles)."""
    if len(a) == 0:
        return a
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


@dataclass(frozen=True)
class WeakCellBlock:
    """Weak cells of :data:`BLOCK_ROWS` consecutive rows, CSR-packed.

    ``offsets[i]:offsets[i+1]`` slices the cell arrays for physical row
    ``start + i``.  ``min_hc[i]`` is the row's smallest threshold
    (``inf`` for rows with no weak cells) — the vectorized scan paths
    use it to discard rows that cannot flip without touching data.
    """

    start: int
    n_rows: int
    offsets: np.ndarray
    bits: np.ndarray
    hc_first: np.ndarray
    anti: np.ndarray
    aggressor_sensitive: np.ndarray
    min_hc: np.ndarray

    def __len__(self) -> int:
        return len(self.bits)

    def row(self, row: int) -> WeakCellSet:
        """Zero-copy :class:`WeakCellSet` view of one row in the block."""
        i = row - self.start
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        if lo == hi:
            return _EMPTY
        return WeakCellSet(
            bits=self.bits[lo:hi],
            hc_first=self.hc_first[lo:hi],
            anti=self.anti[lo:hi],
            aggressor_sensitive=self.aggressor_sensitive[lo:hi],
        )


def _empty_block(start: int, n_rows: int) -> WeakCellBlock:
    return WeakCellBlock(
        start=start,
        n_rows=n_rows,
        offsets=np.zeros(n_rows + 1, dtype=np.int64),
        bits=_EMPTY.bits,
        hc_first=_EMPTY.hc_first,
        anti=_EMPTY.anti,
        aggressor_sensitive=_EMPTY.aggressor_sensitive,
        min_hc=np.full(n_rows, np.inf),
    )


class DisturbanceModel:
    """Deterministic weak-cell map and flip evaluation for one module.

    Args:
        geometry: module organization.
        profile: vulnerability parameters.
        seed: module seed; weak cells are a pure function of
            ``(seed, bank, block)``.
    """

    def __init__(self, geometry: DramGeometry, profile: VulnerabilityProfile, seed: int = 0) -> None:
        self.geometry = geometry
        self.profile = profile
        self.seed = seed
        self.cache_limit = _CACHE_LIMIT
        self._cache: Dict[Tuple[int, int], WeakCellBlock] = {}

    # ------------------------------------------------------------------
    # Weak-cell map (block-generated, row-sliced)
    # ------------------------------------------------------------------
    def weak_cells_block(self, bank: int, row: int) -> WeakCellBlock:
        """The weak-cell block containing physical ``(bank, row)`` (cached).

        Entries evict oldest-inserted-first (dict insertion order) at
        :attr:`cache_limit`, so a long sweep thrashes at most one block
        instead of regenerating the whole working set.
        """
        self.geometry.check_bank(bank)
        self.geometry.check_row(row)
        start = row - row % BLOCK_ROWS
        key = (bank, start)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        block = self._generate_block(bank, start)
        while self._cache and len(self._cache) >= self.cache_limit:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = block
        return block

    def weak_cells(self, bank: int, row: int) -> WeakCellSet:
        """Return the weak cells of physical ``(bank, row)``."""
        return self.weak_cells_block(bank, row).row(row)

    def _generate_block(self, bank: int, start: int) -> WeakCellBlock:
        profile = self.profile
        n_rows = min(BLOCK_ROWS, self.geometry.rows - start)
        if not profile.vulnerable:
            return _empty_block(start, n_rows)
        rng = derive_rng(self.seed, "weakblock", bank, start)
        row_bits = self.geometry.row_bits
        counts = rng.binomial(row_bits, profile.weak_cell_density, size=n_rows)
        total = int(counts.sum())
        if total == 0:
            return _empty_block(start, n_rows)
        # Draw positions with replacement for the whole block, then
        # dedupe per row in one global pass (row*row_bits+bit keys sort
        # grouped-by-row, ascending-within-row — exactly the CSR order).
        # Rows that lost positions to duplicates redraw their deficit;
        # the loop is deterministic and terminates almost immediately at
        # realistic densities.
        row_of = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
        keys = _sorted_unique(row_of * row_bits + rng.integers(0, row_bits, size=total))
        have = np.bincount(keys // row_bits, minlength=n_rows)
        while True:
            deficit = counts - have
            short = np.nonzero(deficit > 0)[0]
            if len(short) == 0:
                break
            extra_rows = np.repeat(short, deficit[short])
            extra = extra_rows * row_bits + rng.integers(
                0, row_bits, size=len(extra_rows))
            keys = _sorted_unique(np.concatenate([keys, extra]))
            have = np.bincount(keys // row_bits, minlength=n_rows)
        bits = keys % row_bits
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        mu = np.log(profile.hc_first_median)
        hc = np.exp(rng.normal(mu, profile.hc_first_sigma, size=total))
        hc = np.maximum(hc, profile.hc_first_min)
        anti = rng.random(total) < profile.anti_cell_fraction
        sensitive = rng.random(total) < profile.aggressor_sensitive_fraction
        min_hc = np.full(n_rows, np.inf)
        np.minimum.at(min_hc, keys // row_bits, hc)
        return WeakCellBlock(
            start=start,
            n_rows=n_rows,
            offsets=offsets,
            bits=bits,
            hc_first=hc,
            anti=anti,
            aggressor_sensitive=sensitive,
            min_hc=min_hc,
        )

    # ------------------------------------------------------------------
    # Flip evaluation
    # ------------------------------------------------------------------
    def charged_values(self, cells: WeakCellSet) -> np.ndarray:
        """The stored value that makes each weak cell flippable."""
        return (~cells.anti).astype(np.uint8)

    def flip_mask_batch(
        self,
        cells,
        pressures,
        victim_vals: np.ndarray,
        agg_vals: Optional[np.ndarray] = None,
        agg_valid: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized flip decision over pre-gathered cell values.

        This is the one implementation of the flip rule; the per-row
        :meth:`flip_mask` and the columnar engine's batched
        materialization both delegate here.

        Args:
            cells: a :class:`WeakCellSet` (or any object with
                ``hc_first``/``anti``/``aggressor_sensitive`` arrays) —
                possibly a concatenation spanning many rows.
            pressures: scalar or per-cell peak pressure.
            victim_vals: stored value of each cell (0/1).
            agg_vals: dominant-aggressor value at each cell's bit
                position; ``None`` means worst-case (full) coupling.
            agg_valid: per-cell mask of where ``agg_vals`` is
                meaningful (cells whose victim row has no recorded
                aggressor get worst-case coupling, like ``None``).

        Returns:
            Boolean mask over the cells, True where the cell flips.
        """
        thresholds = cells.hc_first
        if agg_vals is not None:
            relieved = cells.aggressor_sensitive & (agg_vals == victim_vals)
            if agg_valid is not None:
                relieved &= agg_valid
            thresholds = np.where(relieved, thresholds * self.profile.dpd_relief, thresholds)
        crossed = pressures >= thresholds
        flippable = victim_vals == (~cells.anti).astype(np.uint8)
        return crossed & flippable

    def flip_mask(
        self,
        bank: int,
        row: int,
        pressure: float,
        data_bits: np.ndarray,
        aggressor_bits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Return the row-bit indices that flip under ``pressure``.

        Args:
            bank, row: physical location of the victim.
            pressure: accumulated weighted adjacent activations since the
                victim's last refresh (peak value).
            data_bits: the victim row contents as a 0/1 bit array.
            aggressor_bits: dominant aggressor row contents; when ``None``
                aggressor-sensitive cells get worst-case (full) coupling.
        """
        cells = self.weak_cells(bank, row)
        if len(cells) == 0 or pressure <= 0:
            return np.empty(0, dtype=np.int64)
        victim_vals = data_bits[cells.bits]
        agg_vals = aggressor_bits[cells.bits] if aggressor_bits is not None else None
        mask = self.flip_mask_batch(cells, pressure, victim_vals, agg_vals)
        return cells.bits[mask]

    def apply_flips(
        self,
        bank: int,
        row: int,
        pressure: float,
        data_bits: np.ndarray,
        aggressor_bits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply disturbance flips in place; return the flipped bit indices."""
        flipped = self.flip_mask(bank, row, pressure, data_bits, aggressor_bits)
        if len(flipped):
            data_bits[flipped] ^= 1
        return flipped
