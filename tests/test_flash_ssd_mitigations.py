"""Tests for SSD-level organization, FCR, RFR, NAC, and two-step."""

import pytest

from repro.flash import (
    FlashBlock,
    MLC_1XNM,
    Ssd,
    error_breakdown,
    exposure_experiment,
    lifetime_pe_cycles,
    program_block_shadow,
)
from repro.flash.mitigations import (
    FcrPoint,
    correct_wordline,
    fcr_sweep,
    lifetime_multiplier,
    read_disturb_recovery,
    recover_wordline,
)
from repro.flash.twostep import lifetime_with_exposure


class TestErrorBreakdown:
    def test_retention_dominates_at_high_wear(self):
        b = error_breakdown(20_000, retention_days=365, reads=20_000, wordlines=8, cells=1024, seed=1)
        assert b.dominant() == "retention"
        assert b.retention > b.wear_and_interference

    def test_breakdown_components_nonnegative(self):
        b = error_breakdown(5_000, retention_days=30, reads=5_000, wordlines=4, cells=1024, seed=2)
        assert b.wear_and_interference >= 0
        assert b.retention >= 0
        assert b.read_disturb >= 0
        assert b.total == b.wear_and_interference + b.retention + b.read_disturb

    def test_retention_grows_with_wear(self):
        low = error_breakdown(2_000, 365, 0, wordlines=4, cells=1024, seed=3)
        high = error_breakdown(25_000, 365, 0, wordlines=4, cells=1024, seed=3)
        assert high.retention > low.retention


class TestSsd:
    def test_age_all_and_counters(self):
        ssd = Ssd(n_blocks=2, wordlines=4, cells=1024, ecc_correctable_per_page=40, seed=4)
        ssd.age_all(pe_cycles=20_000, retention_days=365, seed=4)
        assert ssd.worst_page_errors() > 0

    def test_uncorrectable_pages_grow_with_age(self):
        young = Ssd(n_blocks=1, wordlines=4, cells=1024, ecc_correctable_per_page=10, seed=5)
        young.age_all(2_000, retention_days=1, seed=5)
        old = Ssd(n_blocks=1, wordlines=4, cells=1024, ecc_correctable_per_page=10, seed=5)
        old.age_all(30_000, retention_days=365, seed=5)
        # Aging pushes the worst page past the ECC budget the young device meets.
        assert young.worst_page_errors() <= 10 < old.worst_page_errors()

    def test_lifetime_shorter_for_longer_retention(self):
        short = lifetime_pe_cycles(3.0, wordlines=4, cells=1024, seed=6, tolerance=1000)
        long = lifetime_pe_cycles(365.0, wordlines=4, cells=1024, seed=6, tolerance=1000)
        assert short > long


class TestFcr:
    def test_refresh_extends_lifetime(self):
        points = fcr_sweep(
            refresh_intervals_days=(None, 3.0),
            wordlines=4,
            cells=1024,
            seed=7,
            tolerance=1000,
        )
        baseline, refreshed = points
        assert refreshed.raw_lifetime_pe > baseline.raw_lifetime_pe
        assert lifetime_multiplier(points) > 2.0

    def test_refresh_wear_accounting(self):
        points = fcr_sweep(
            refresh_intervals_days=(None, 3.0),
            wordlines=4,
            cells=1024,
            seed=7,
            tolerance=1000,
        )
        assert points[0].refresh_wear_per_year == 0.0
        assert points[1].refresh_wear_per_year == pytest.approx(365 / 3.0)

    def test_multiplier_needs_a_baseline_entry(self):
        refreshed = FcrPoint(refresh_interval_days=3.0, raw_lifetime_pe=900,
                             refresh_wear_per_year=365 / 3.0)
        with pytest.raises(ValueError, match="no-refresh baseline"):
            lifetime_multiplier([refreshed])
        dead = FcrPoint(refresh_interval_days=None, raw_lifetime_pe=0,
                        refresh_wear_per_year=0.0)
        assert lifetime_multiplier([dead, refreshed]) is None


class TestRfrAndNac:
    def _aged_block(self, seed):
        block = FlashBlock(wordlines=8, cells=1024, seed=seed)
        block.set_pe_cycles(12_000)
        program_block_shadow(block, seed=seed)
        block.age_retention(365)
        return block

    def test_rfr_reduces_errors_substantially(self):
        block = self._aged_block(8)
        outcome = recover_wordline(block, 3, seed=8)
        assert outcome.errors_before > 0
        assert outcome.reduction_fraction > 0.4

    def test_rfr_requires_programmed_wordline(self):
        block = FlashBlock(wordlines=4, cells=256, seed=1)
        with pytest.raises(RuntimeError):
            recover_wordline(block, 0)

    def test_read_disturb_recovery_helps(self):
        block = FlashBlock(wordlines=8, cells=1024, seed=9)
        block.set_pe_cycles(8_000)
        program_block_shadow(block, seed=9)
        block.apply_read_disturb(150_000)
        outcome = read_disturb_recovery(block, 3, seed=9)
        assert outcome.errors_before > 0
        assert outcome.errors_after < outcome.errors_before

    def test_nac_reduces_interference_errors(self):
        block = FlashBlock(wordlines=8, cells=4096, params=MLC_1XNM, seed=10)
        block.set_pe_cycles(15_000)
        program_block_shadow(block, seed=10)
        outcome = correct_wordline(block, 3, seed=10)
        assert outcome.errors_before > 0
        assert outcome.errors_after < outcome.errors_before


class TestTwoStep:
    def test_exposure_corrupts_internal_read(self):
        result = exposure_experiment(pe_cycles=8000, cells=2048, seed=11)
        assert result.exposed_errors > 5 * max(result.mitigated_errors, 1)
        assert result.mitigated_errors <= result.exposed_errors

    def test_mitigation_near_control_floor(self):
        result = exposure_experiment(pe_cycles=8000, cells=2048, seed=12)
        assert result.mitigated_errors <= result.control_errors + 50

    def test_lifetime_gain_positive(self):
        base = lifetime_with_exposure(160, mitigated=False, cells=2048, seed=13, tolerance=2000)
        hardened = lifetime_with_exposure(160, mitigated=True, cells=2048, seed=13, tolerance=2000)
        assert hardened > base
