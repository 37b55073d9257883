"""Tests for refresh scaling, row retirement, and ECC evaluation glue."""

import pytest

from repro.dram import DramGeometry, DramModule, VulnerabilityProfile
from repro.dram.timing import DDR3_1066, DDR3_1333
from repro.mitigations import (
    attack_budget,
    flip_histogram_from_hammer,
    multi_flip_word_fraction,
    multiplier_to_eliminate,
    refresh_cost,
    residual_flips,
    retire_vulnerable_rows,
)

GEO = DramGeometry(banks=2, rows=512, row_bytes=256)
PROFILE = VulnerabilityProfile(weak_cell_density=0.05, hc_first_median=3_000, hc_first_min=800)


def make_module(seed=9):
    return DramModule(geometry=GEO, timing=DDR3_1333, profile=PROFILE, seed=seed)


class TestRefreshScaling:
    def test_budget_shrinks_with_multiplier(self):
        assert attack_budget(DDR3_1066, 2.0) == attack_budget(DDR3_1066, 1.0) // 2

    def test_paper_seven_x_claim(self):
        # hc_min = 165K at the 2013 calibration, 55 ns tRC -> ~7x.
        k = multiplier_to_eliminate(165_000, DDR3_1066)
        assert 6.5 < k < 7.5

    def test_cost_scales_linearly(self):
        c1 = refresh_cost(DDR3_1333, 1.0)
        c4 = refresh_cost(DDR3_1333, 4.0)
        assert c4.bandwidth_overhead == pytest.approx(4 * c1.bandwidth_overhead)
        assert c4.refresh_energy_factor == 4.0

    def test_sweep_monotonic(self):
        costs = [refresh_cost(DDR3_1333, k) for k in range(1, 9)]
        budgets = [c.budget for c in costs]
        assert budgets == sorted(budgets, reverse=True)

    def test_elimination_denies_budget(self):
        k = multiplier_to_eliminate(PROFILE.hc_first_min, DDR3_1333)
        assert attack_budget(DDR3_1333, k * 1.01) < PROFILE.hc_first_min


class TestRetirement:
    def test_retire_then_no_residual_at_test_pressure(self):
        module = make_module()
        rows = range(64, 256)
        result = retire_vulnerable_rows(module, 0, rows, test_pressure=50_000)
        assert len(result.retired_rows) > 0
        assert residual_flips(module, 0, rows, result.retired_rows, field_pressure=50_000) == 0

    def test_field_pressure_above_test_escapes(self):
        # The structural weakness: a field attacker with double-sided
        # budget beats a single-sided test budget.  A sparse profile so
        # that rows genuinely differ in their weakest cell.
        sparse = VulnerabilityProfile(
            weak_cell_density=0.002, hc_first_median=3_000, hc_first_min=800
        )
        module = DramModule(geometry=GEO, timing=DDR3_1333, profile=sparse, seed=9)
        rows = range(64, 256)
        result = retire_vulnerable_rows(module, 0, rows, test_pressure=1_500)
        escapes = residual_flips(module, 0, rows, result.retired_rows, field_pressure=60_000)
        assert escapes > 0

    def test_registered_study_is_bounded_by_test_budget_and_spares(self):
        from repro.experiments import row_retirement

        rows = row_retirement(seed=0)
        assert [r["test_fraction"] for r in rows] == [0.25, 0.5, 1.0]
        for r in rows[:-1]:
            assert not r["spares_exhausted"] and r["residual_at_test"] == 0
            assert r["residual_at_field"] > 0
        assert rows[-1]["spares_exhausted"]

    def test_spare_exhaustion(self):
        module = make_module()
        result = retire_vulnerable_rows(module, 0, range(0, 400), test_pressure=1e9, spare_budget=5)
        assert result.spares_exhausted
        assert len(result.retired_rows) == 5


class TestEccEvalGlue:
    def test_histogram_has_multi_flip_words(self):
        module = make_module()
        hist = flip_histogram_from_hammer(module, 0, victim_count=60, pressure=100_000)
        assert sum(hist.values()) > 0
        assert multi_flip_word_fraction(hist) >= 0.0

    def test_histogram_empty_for_invulnerable(self):
        from repro.dram import INVULNERABLE

        module = DramModule(geometry=GEO, timing=DDR3_1333, profile=INVULNERABLE, seed=1)
        hist = flip_histogram_from_hammer(module, 0, victim_count=10, pressure=100_000)
        assert hist == {}
        assert multi_flip_word_fraction(hist) == 0.0
