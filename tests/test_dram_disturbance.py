"""Tests for the RowHammer disturbance fault model."""

import numpy as np
import pytest

from repro.dram import (
    INVULNERABLE,
    DisturbanceModel,
    DramGeometry,
    VulnerabilityProfile,
)

GEO = DramGeometry(banks=2, rows=128, row_bytes=512)
PROFILE = VulnerabilityProfile(
    weak_cell_density=0.01,
    hc_first_median=50_000,
    hc_first_min=10_000,
    hc_first_sigma=0.4,
)


def make_model(profile=PROFILE, seed=1):
    return DisturbanceModel(GEO, profile, seed)


class TestWeakCellGeneration:
    def test_deterministic(self):
        a = make_model().weak_cells(0, 5)
        b = DisturbanceModel(GEO, PROFILE, 1).weak_cells(0, 5)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.hc_first, b.hc_first)

    def test_seed_changes_map(self):
        a = make_model(seed=1).weak_cells(0, 5)
        b = make_model(seed=2).weak_cells(0, 5)
        assert not (
            len(a) == len(b) and np.array_equal(a.bits, b.bits)
        )

    def test_rows_differ(self):
        model = make_model()
        a = model.weak_cells(0, 5)
        b = model.weak_cells(0, 6)
        assert not (len(a) == len(b) and np.array_equal(a.bits, b.bits))

    def test_density_scaling(self):
        model = make_model()
        counts = [len(model.weak_cells(0, r)) for r in range(64)]
        mean = np.mean(counts)
        expected = GEO.row_bits * PROFILE.weak_cell_density
        assert 0.7 * expected < mean < 1.3 * expected

    def test_thresholds_respect_floor(self):
        model = make_model()
        for row in range(32):
            cells = model.weak_cells(0, row)
            if len(cells):
                assert np.all(cells.hc_first >= PROFILE.hc_first_min)

    def test_invulnerable_has_no_cells(self):
        model = make_model(profile=INVULNERABLE)
        for row in range(16):
            assert len(model.weak_cells(0, row)) == 0

    def test_bits_sorted_unique(self):
        cells = make_model().weak_cells(1, 3)
        assert np.all(np.diff(cells.bits) > 0)

    def test_bounds_checked(self):
        model = make_model()
        with pytest.raises(IndexError):
            model.weak_cells(0, GEO.rows)
        with pytest.raises(IndexError):
            model.weak_cells(GEO.banks, 0)


class TestFlipEvaluation:
    def test_no_pressure_no_flips(self):
        model = make_model()
        data = np.ones(GEO.row_bits, dtype=np.uint8)
        assert len(model.flip_mask(0, 5, 0.0, data)) == 0

    def test_huge_pressure_flips_all_flippable(self):
        model = make_model()
        cells = model.weak_cells(0, 5)
        data = np.ones(GEO.row_bits, dtype=np.uint8)
        flips = model.flip_mask(0, 5, 1e12, data)
        # Only true cells (charged when storing 1) flip under all-ones.
        expected = cells.bits[~cells.anti]
        assert np.array_equal(np.sort(flips), np.sort(expected))

    def test_all_zeros_flips_only_anti_cells(self):
        model = make_model()
        cells = model.weak_cells(0, 5)
        data = np.zeros(GEO.row_bits, dtype=np.uint8)
        flips = model.flip_mask(0, 5, 1e12, data)
        expected = cells.bits[cells.anti]
        assert np.array_equal(np.sort(flips), np.sort(expected))

    def test_monotonic_in_pressure(self):
        model = make_model()
        data = np.ones(GEO.row_bits, dtype=np.uint8)
        low = set(model.flip_mask(0, 7, 20_000, data))
        high = set(model.flip_mask(0, 7, 200_000, data))
        assert low <= high

    def test_aggressor_pattern_relief(self):
        # Aggressor storing the same value as the victim relieves
        # aggressor-sensitive cells (higher effective threshold).
        profile = VulnerabilityProfile(
            weak_cell_density=0.05,
            hc_first_median=50_000,
            hc_first_min=10_000,
            aggressor_sensitive_fraction=1.0,
            dpd_relief=10.0,
        )
        model = make_model(profile=profile)
        data = np.ones(GEO.row_bits, dtype=np.uint8)
        same = model.flip_mask(0, 5, 60_000, data, aggressor_bits=data)
        opposing = model.flip_mask(0, 5, 60_000, data, aggressor_bits=1 - data)
        assert len(same) < len(opposing)

    def test_apply_flips_mutates(self):
        model = make_model()
        data = np.ones(GEO.row_bits, dtype=np.uint8)
        flips = model.apply_flips(0, 5, 1e12, data)
        assert np.all(data[flips] == 0)

    def test_apply_flips_idempotent_direction(self):
        # Once flipped (discharged), a cell cannot flip again.
        model = make_model()
        data = np.ones(GEO.row_bits, dtype=np.uint8)
        first = model.apply_flips(0, 5, 1e12, data)
        second = model.apply_flips(0, 5, 1e12, data)
        assert len(first) > 0 and len(second) == 0

    def test_min_threshold(self):
        # A block's per-row ``min_hc`` is the smallest threshold of the row.
        model = make_model()
        min_hc = model.weak_cells_block(0, 0).min_hc[:32]
        t = float(min_hc.min())
        assert t >= PROFILE.hc_first_min
        assert t < float("inf")
        for row in range(32):
            cells = model.weak_cells(0, row)
            expected = float(cells.hc_first.min()) if len(cells) else float("inf")
            assert min_hc[row] == expected

    def test_min_threshold_invulnerable_is_inf(self):
        model = make_model(profile=INVULNERABLE)
        assert np.all(model.weak_cells_block(0, 0).min_hc[:8] == float("inf"))


class TestProfileValidation:
    def test_min_over_median_rejected(self):
        with pytest.raises(ValueError):
            VulnerabilityProfile(weak_cell_density=0.1, hc_first_median=100, hc_first_min=200)

    def test_density_bounds(self):
        with pytest.raises(ValueError):
            VulnerabilityProfile(weak_cell_density=1.5)

    def test_vulnerable_flag(self):
        assert not INVULNERABLE.vulnerable
        assert PROFILE.vulnerable
