"""Tests for error injection campaigns and plain-text figures."""

import numpy as np
import pytest

from repro.analysis import ascii_log_scatter
from repro.ecc import SECDED_72_64, campaign, inject_clustered, inject_uniform, inject_weak_cell_map
from repro.ecc.accounting import flips_per_word
from repro.utils.rng import derive_rng


class TestInjectors:
    def test_uniform_count_and_bounds(self):
        rng = derive_rng(0, "t")
        flips = inject_uniform(100, 10_000, rng)
        assert len(flips) == 100
        assert len(set(flips)) == 100
        assert all(0 <= b < 10_000 for b in flips)

    def test_uniform_zero(self):
        assert inject_uniform(0, 100, derive_rng(0, "t")) == []

    def test_clustered_count(self):
        rng = derive_rng(1, "t")
        flips = inject_clustered(100, 100_000, rng)
        assert len(flips) == 100
        assert flips == sorted(flips)

    def test_clustered_more_multibit_words_than_uniform(self):
        total_bits = 1 << 20
        n = 2000
        uni = flips_per_word(inject_uniform(n, total_bits, derive_rng(2, "u")))
        clu = flips_per_word(inject_clustered(n, total_bits, derive_rng(2, "c")))
        multi_uni = sum(v for k, v in uni.items() if k >= 2)
        multi_clu = sum(v for k, v in clu.items() if k >= 2)
        assert multi_clu > 3 * max(multi_uni, 1)

    def test_weak_cell_map_firing_fraction(self):
        rng = derive_rng(3, "t")
        flips = inject_weak_cell_map(1 << 20, weak_density=1e-3, firing_probability=0.5, rng=rng)
        expected = (1 << 20) * 1e-3 * 0.5
        assert 0.7 * expected < len(flips) < 1.3 * expected

    def test_campaign_clustered_defeats_secded_more(self):
        results = campaign(SECDED_72_64, n_flips=3000, total_bits=1 << 20, seed=4)
        assert results["clustered"].uncorrected_words > results["uniform"].uncorrected_words

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            inject_uniform(1, 0, derive_rng(0, "t"))
        with pytest.raises(ValueError):
            inject_weak_cell_map(100, 2.0, 0.5, derive_rng(0, "t"))


class TestFigures:
    def test_scatter_places_points(self):
        out = ascii_log_scatter(
            [(2012, 1e5, "A"), (2012, 1e5, "B"), (2013, 10, "C")],
            x_buckets=range(2010, 2015),
            decades=range(6, -1, -1),
        )
        assert "AB" in out
        assert "10^5" in out and "10^1" in out

    def test_scatter_drops_nonpositive(self):
        out = ascii_log_scatter([(2012, 0.0, "A")], range(2010, 2015), range(6, -1, -1))
        assert "A" not in out.replace("10^", "")

