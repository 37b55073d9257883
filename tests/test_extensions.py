"""Tests for the extension features: WARM, PCM mapping-aware attacks,
the RAIDR/RowHammer interaction, multi-rate refresh, and the TRR bypass
experiment."""

import pytest

from repro.experiments import pcm_mapping_attack, trr_bypass_study, warm_retention_study
from repro.flash.mitigations import warm_study
from repro.pcm import lifetime_under_mapping_aware_attack, lifetime_under_pinned_attack


class TestWarm:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return warm_retention_study(seed=0)

    def test_fcr_extends_cold_lifetime(self, outcomes):
        assert outcomes["fcr"].device_lifetime_pe > outcomes["baseline"].device_lifetime_pe

    def test_warm_relaxes_hot_partition(self, outcomes):
        assert outcomes["warm"].hot_lifetime_pe > outcomes["baseline"].hot_lifetime_pe

    def test_warm_fcr_cuts_refresh_wear(self, outcomes):
        assert outcomes["warm+fcr"].refresh_wear_fraction < outcomes["fcr"].refresh_wear_fraction
        assert outcomes["warm+fcr"].device_lifetime_pe >= outcomes["fcr"].device_lifetime_pe * 0.99

    def test_device_lifetime_is_min(self, outcomes):
        warm = outcomes["warm"]
        assert warm.device_lifetime_pe == min(warm.hot_lifetime_pe, warm.cold_lifetime_pe)

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            warm_study(hot_write_fraction=1.5)


class TestPcmMappingAwareAttack:
    def test_plain_startgap_collapses(self):
        # The chase defeats deterministic Start-Gap: lifetime near the
        # bare single-line endurance, far from the leveled ideal.
        chased = lifetime_under_mapping_aware_attack(
            n_logical=32, endurance_mean=5_000, randomize=False, seed=2
        )
        leveled = lifetime_under_pinned_attack(
            n_logical=32, endurance_mean=5_000, leveling="startgap", seed=2
        )
        assert chased < leveled / 5

    def test_randomization_restores_leveling(self):
        plain = lifetime_under_mapping_aware_attack(
            n_logical=32, endurance_mean=5_000, randomize=False, seed=3
        )
        randomized = lifetime_under_mapping_aware_attack(
            n_logical=32, endurance_mean=5_000, randomize=True, seed=3
        )
        assert randomized > 3 * plain

    def test_registered_experiment_runs_both_variants(self):
        result = pcm_mapping_attack(seed=0)
        assert result["randomized"] > 3 * result["plain"]


class TestRaidrInteraction:
    def test_slow_bin_opens_headroom(self):
        from repro.experiments import raidr_rowhammer_interaction

        result = raidr_rowhammer_interaction(seed=0)
        assert result["flips"]["uniform-64ms"] == 0
        assert result["flips"]["raidr-bin2"] > 0


class TestMultiRateRefreshEngine:
    def test_row_bins_shape_validated(self):
        import numpy as np

        from repro.controller import RefreshEngine
        from repro.core.scenarios import scaled_scenario

        module = scaled_scenario().make_module(seed=0)
        with pytest.raises(ValueError):
            RefreshEngine(module, row_bins=np.zeros(10, dtype=np.int64))

    def test_slow_bins_cut_refresh_ops(self):
        import numpy as np

        from repro.controller import RefreshEngine
        from repro.core.scenarios import scaled_scenario

        scenario = scaled_scenario()
        uniform = RefreshEngine(scenario.make_module(serial="u", seed=0))
        bins = np.full(scenario.geometry.rows, 2, dtype=np.int64)
        binned = RefreshEngine(scenario.make_module(serial="b", seed=0), row_bins=bins)
        horizon = uniform.interval_ns * 4 * scenario.geometry.rows
        uniform.tick(horizon)
        binned.tick(horizon)
        assert binned.stats.rows_refreshed < uniform.stats.rows_refreshed / 2


class TestTrrBypass:
    @pytest.fixture(scope="class")
    def rows(self):
        return trr_bypass_study(n_pairs_list=(1, 4), tracker_entries=2, seed=0)

    def test_single_pair_protected(self, rows):
        assert rows[0]["flips"] == 0

    def test_many_pairs_bypass(self, rows):
        assert rows[1]["flips"] > 0

    def test_trr_kept_firing(self, rows):
        for row in rows:
            assert row["targeted_refreshes"] > 0
