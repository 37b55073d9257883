"""Tests for DDR timing parameters."""

from dataclasses import replace

import pytest

from repro.attacks import per_bank_budget_multibank
from repro.dram import DDR3_1066, DDR3_1333, TimingParams


class TestTimingParams:
    def test_max_activations_order_of_magnitude(self):
        # The paper's ceiling: ~1.3M activations per 64 ms window.
        n = DDR3_1333.max_activations_per_refresh_window
        assert 1_200_000 < n < 1_400_000

    def test_ddr3_1066_budget(self):
        # 55 ns tRC -> ~1.16M per window (the worst-case analysis number).
        n = DDR3_1066.max_activations_per_refresh_window
        assert 1_100_000 < n < 1_200_000

    def test_refresh_commands_per_window(self):
        # 64 ms / 7.8 us = 8192 REF commands.
        assert DDR3_1333.refresh_commands_per_window == 8205 or (
            8100 < DDR3_1333.refresh_commands_per_window < 8300
        )

    def test_with_refresh_multiplier_shrinks_window(self):
        # A k-fold refresh rate budgets as if tREFW and tREFI shrank k-fold.
        scaled = replace(DDR3_1333, tREFW=DDR3_1333.tREFW / 4, tREFI=DDR3_1333.tREFI / 4)
        assert scaled.refresh_commands_per_window == DDR3_1333.refresh_commands_per_window
        assert per_bank_budget_multibank(DDR3_1333, 1, refresh_multiplier=4) == (
            per_bank_budget_multibank(scaled, 1)
        )

    def test_multiplier_reduces_budget_proportionally(self):
        base = DDR3_1333.max_activations_per_refresh_window
        assert per_bank_budget_multibank(DDR3_1333, 1) == base
        scaled = per_bank_budget_multibank(DDR3_1333, 1, refresh_multiplier=2)
        assert abs(scaled - base // 2) <= 1

    def test_trc_must_cover_ras_plus_rp(self):
        with pytest.raises(ValueError):
            TimingParams(tRAS=40.0, tRP=15.0, tRC=50.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TimingParams(tCK=0.0)

    def test_multiplier_must_be_positive(self):
        with pytest.raises(ValueError):
            per_bank_budget_multibank(DDR3_1333, 1, refresh_multiplier=0)
