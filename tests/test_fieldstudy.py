"""Tests for the field study: population and campaign (Figure 1 claims)."""

import math
import os
import subprocess
import sys

import pytest

import repro
from repro.dram.disturbance import VulnerabilityProfile
from repro.dram.geometry import DramGeometry
from repro.fieldstudy import (
    build_population,
    instantiate,
    population_size,
    run_campaign,
    scan_module_rows,
    victim_pressure,
    whole_module_errors,
)
from repro.fieldstudy.campaign import _threshold_cdf

SMALL_GEO = DramGeometry(banks=2, rows=1024, row_bytes=1024)


class TestPopulation:
    def test_129_modules(self):
        assert population_size() == 129
        assert len(build_population()) == 129

    def test_serials_unique(self):
        specs = build_population()
        assert len({s.serial for s in specs}) == 129

    def test_dates_span_2008_2014(self):
        specs = build_population()
        years = {s.year for s in specs}
        assert years == set(range(2008, 2015))

    def test_manufacturer_counts(self):
        specs = build_population()
        counts = {m: sum(1 for s in specs if s.manufacturer == m) for m in "ABC"}
        assert sum(counts.values()) == 129
        assert counts["B"] > counts["A"] > counts["C"]

    def test_instantiate(self):
        spec = build_population()[0]
        module = instantiate(spec, geometry=SMALL_GEO)
        assert module.serial == spec.serial


class TestWholeModuleScan:
    def test_invulnerable_zero_errors(self):
        spec = next(s for s in build_population() if s.date < 2009)
        module = instantiate(spec, geometry=SMALL_GEO)
        assert whole_module_errors(module).errors == 0

    def test_2013_module_errors(self):
        spec = next(s for s in build_population() if 2013.0 <= s.date < 2013.5 and s.manufacturer == "B")
        module = instantiate(spec, geometry=SMALL_GEO)
        result = whole_module_errors(module)
        assert result.errors > 0
        assert result.errors_per_billion > 1e3

    def test_refresh_multiplier_reduces_errors(self):
        spec = next(s for s in build_population() if s.date >= 2013.0 and s.manufacturer == "B")
        module = instantiate(spec, geometry=SMALL_GEO)
        base = whole_module_errors(module, refresh_multiplier=1.0).errors
        scaled = whole_module_errors(module, refresh_multiplier=4.0).errors
        assert scaled < base

    @pytest.mark.parametrize("multiplier", [0.0, -2.0])
    def test_nonpositive_refresh_multiplier_rejected(self, multiplier):
        module = instantiate(build_population()[0], geometry=SMALL_GEO)
        with pytest.raises(ValueError, match="refresh_multiplier"):
            victim_pressure(module, multiplier)
        with pytest.raises(ValueError, match="refresh_multiplier"):
            whole_module_errors(module, refresh_multiplier=multiplier)

    def test_solid_pattern_fewer_errors_than_rowstripe(self):
        spec = next(s for s in build_population() if s.date >= 2013.0 and s.manufacturer == "B")
        module = instantiate(spec, geometry=SMALL_GEO)
        stripe = whole_module_errors(module, pattern="rowstripe").errors
        solid = whole_module_errors(module, pattern="solid1").errors
        assert solid < stripe

    def test_unsupported_pattern(self):
        spec = build_population()[0]
        module = instantiate(spec, geometry=SMALL_GEO)
        with pytest.raises(ValueError):
            whole_module_errors(module, pattern="checkered")

    def test_device_scan_consistent_with_vectorized(self):
        # The two scan paths sample the same stochastic model; their
        # per-cell error rates must agree within sampling noise.  The
        # device path needs two polarity passes (pattern + inverse) to
        # exercise every weak cell, like the vectorized path assumes;
        # aggressor sensitivity is disabled so fills don't matter.
        from dataclasses import replace

        from repro.dram import DramModule
        from repro.dram.timing import DDR3_1066
        from repro.dram.vintage import profile_for

        profile = replace(profile_for("B", 2013.2), aggressor_sensitive_fraction=0.0)

        def fresh(pattern):
            return DramModule(
                geometry=SMALL_GEO, timing=DDR3_1066, profile=profile,
                serial="consistency", seed=3, default_pattern=pattern,
            )

        budget = victim_pressure(fresh("solid1"))
        victims = range(16, 996)
        pass1 = scan_module_rows(fresh("solid1"), 0, victims=victims, budget=budget)
        pass0 = scan_module_rows(fresh("solid0"), 0, victims=victims, budget=budget)
        device_errors = pass1.errors + pass0.errors
        rate_device = device_errors * 1e9 / pass1.cells
        vector = whole_module_errors(fresh("solid1"), budget=budget, pattern="rowstripe")
        rate_vector = vector.errors_per_billion
        assert device_errors > 0
        assert 0.6 < rate_device / rate_vector < 1.8


#: ``scipy.stats.norm.cdf(z)`` (scipy 1.17.1) at the budgets that put a
#: cell's threshold z standard deviations from the median, for the
#: profile in :class:`TestThresholdCdf`.
NORM_CDF = {
    -8.0: 6.22096057427174e-16,
    -5.0: 2.866515718791933e-07,
    -2.0: 0.022750131948179195,
    -0.5: 0.3085375387259869,
    0.0: 0.5,
    0.5: 0.6914624612740131,
    2.0: 0.9772498680518208,
    5.0: 0.9999997133484281,
    8.0: 0.9999999999999993,
}

_FIG1_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import repro.cli
from repro.experiments import execute_job
result = execute_job("fig1_error_rates", seed=0)
assert result.payload["modules_tested"] == 129, result.payload
"""


class TestThresholdCdf:
    PROFILE = VulnerabilityProfile(weak_cell_density=1e-4, hc_first_min=1_000.0)

    @pytest.mark.parametrize("z", sorted(NORM_CDF))
    def test_matches_the_normal_cdf(self, z):
        p = self.PROFILE
        budget = p.hc_first_median * math.exp(z * p.hc_first_sigma)
        assert budget >= p.hc_first_min
        assert _threshold_cdf(budget, p) == pytest.approx(NORM_CDF[z], rel=1e-12, abs=0.0)

    def test_zero_below_the_floor(self):
        p = self.PROFILE
        assert _threshold_cdf(p.hc_first_min * 0.999, p) == 0.0

    def test_fig1_runs_without_scipy(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))))
        proc = subprocess.run([sys.executable, "-c", _FIG1_WITHOUT_SCIPY],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestCampaign:
    @pytest.fixture(scope="class")
    def summary(self):
        return run_campaign(seed=0)

    def test_110_of_129_vulnerable(self, summary):
        assert summary.modules_tested == 129
        assert summary.modules_vulnerable == 110

    def test_earliest_vulnerable_is_2010(self, summary):
        assert 2010.0 <= summary.earliest_vulnerable_date < 2011.0

    def test_all_2012_2013_vulnerable(self, summary):
        assert summary.all_vulnerable_between(2012.0, 2014.0)

    def test_no_pre_2010_vulnerable(self, summary):
        assert all(not r.vulnerable for r in summary.results if r.date < 2010.0)

    def test_manufacturer_peak_ordering(self, summary):
        assert (
            summary.peak_errors_per_billion("B")
            > summary.peak_errors_per_billion("A")
            > summary.peak_errors_per_billion("C")
        )

    def test_peak_rates_in_figure_range(self, summary):
        # Figure 1's y-axis tops out around 10^5-10^6 errors/10^9 cells.
        assert 1e5 < summary.peak_errors_per_billion("B") < 5e6
        assert 1e4 < summary.peak_errors_per_billion("A") < 1e6

    def test_rates_rise_through_2013(self, summary):
        for mfr in "AB":
            rates = summary.yearly_mean_rate(mfr)
            assert rates[2011] < rates[2012] < rates[2013]

    def test_2014_decline(self, summary):
        for mfr in "ABC":
            rates = summary.yearly_mean_rate(mfr)
            assert rates[2014] < rates[2013] * 1.5


class TestFleetExposure:
    def test_exposure_shape(self):
        from repro.fieldstudy import fleet_exposure

        exposure = fleet_exposure(servers=600, seed=1)
        assert exposure.servers == 600
        assert 0 < exposure.vulnerable_servers <= 600
        assert exposure.compromised_servers <= exposure.vulnerable_servers
        assert sum(exposure.by_year.values()) == exposure.vulnerable_servers

    def test_old_fleet_less_exposed(self):
        from repro.fieldstudy import fleet_exposure

        old = fleet_exposure(
            servers=600, vintage_weights={2008: 0.5, 2009: 0.5}, seed=2
        )
        new = fleet_exposure(
            servers=600, vintage_weights={2013: 1.0}, seed=2
        )
        assert old.vulnerable_fraction < 0.05
        assert new.vulnerable_fraction > 0.9

    def test_patch_rollout_trend(self):
        from repro.fieldstudy import patch_rollout_study

        rows = patch_rollout_study(multipliers=(1.0, 8.0), servers=600, seed=3)
        assert rows[1]["vulnerable_fraction"] < rows[0]["vulnerable_fraction"] / 2

    def test_prevalence_bounds(self):
        from repro.fieldstudy import fleet_exposure

        with pytest.raises(ValueError):
            fleet_exposure(servers=10, attack_prevalence=1.5)
