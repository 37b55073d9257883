"""Integration tests: every paper experiment produces its headline shape.

These are the claims of DESIGN.md's experiment index, checked end to
end through the public experiment registry (small parameterizations).
"""

import pytest

from repro import experiments as X


class TestF1Campaign:
    @pytest.fixture(scope="class")
    def fig1(self):
        return X.fig1_error_rates(seed=0)

    def test_headline_counts(self, fig1):
        assert fig1["modules_tested"] == 129
        assert fig1["modules_vulnerable"] == 110

    def test_trends(self, fig1):
        assert 2010.0 <= fig1["earliest_vulnerable_date"] < 2011.0
        assert fig1["all_2012_2013_vulnerable"]
        assert fig1["peak_rate"]["B"] > fig1["peak_rate"]["A"] > fig1["peak_rate"]["C"]


class TestC2Isolation:
    def test_both_access_types_violate(self):
        result = X.isolation_violations(reads=1_300_000)
        assert result["read_violated"] and result["write_violated"]
        assert result["read_self_clean"] and result["write_self_clean"]


class TestC3Refresh:
    @pytest.fixture(scope="class")
    def sweep(self):
        return X.refresh_multiplier_sweep()

    def test_monotonic_decrease(self, sweep):
        errors = [row["errors"] for row in sweep["rows"]]
        assert errors == sorted(errors, reverse=True)

    def test_eliminated_by_8x_not_by_4x(self, sweep):
        by_k = {row["multiplier"]: row["errors"] for row in sweep["rows"]}
        assert by_k[8.0] == 0
        assert by_k[4.0] > 0

    def test_seven_x_claim(self, sweep):
        # The paper's "7x" datum: our exact elimination multiplier ~7.05.
        assert 6.5 < sweep["exact_elimination_multiplier"] < 7.5

    def test_costs_rise(self, sweep):
        overheads = [row["bandwidth_overhead"] for row in sweep["rows"]]
        assert overheads == sorted(overheads)


class TestC4Ecc:
    @pytest.fixture(scope="class")
    def study(self):
        return X.ecc_study(victims=150, seed=0)

    def test_multi_flip_words_exist(self, study):
        assert any(flips >= 2 for flips in study["histogram"])
        assert study["multi_flip_fraction"] > 0

    def test_secded_insufficient(self, study):
        secded = next(e for e in study["ladder"] if "secded" in e.code_name)
        assert secded.evaluation.uncorrected_words > 0

    def test_secded_beats_parity(self, study):
        parity = next(e for e in study["ladder"] if e.code_name == "parity")
        secded = next(e for e in study["ladder"] if "secded" in e.code_name)
        assert secded.evaluation.uncorrected_words < parity.evaluation.uncorrected_words


class TestC5Para:
    def test_reliability_rows(self):
        result = X.para_reliability()
        rows = result["rows"]
        # More aggressive p -> lower failure rate, higher overhead.
        rates = [r["log10_failures_per_year"] for r in rows]
        assert rates == sorted(rates, reverse=True)
        for row in rows:
            assert row["log10_margin_vs_disk"] > 0  # all safer than a disk

    def test_controller_check(self):
        result = X.para_controller_check()
        assert result["bare_flips"] > 0
        assert result["para_flips"] == 0
        assert result["para_overhead_time"] < 0.1


class TestC6Cra:
    def test_protection_and_storage(self):
        result = X.cra_tradeoff()
        for run in result["runs"]:
            assert run["flips"] == 0
            assert run["detections"] > 0
        bits = [run["storage_bits"] for run in result["runs"]]
        assert bits == sorted(bits, reverse=True)  # full > big table > small


class TestC7Comparison:
    @pytest.fixture(scope="class")
    def reports(self):
        return X.mitigation_comparison()

    def test_baseline_vulnerable_others_protect(self, reports):
        assert reports[0].residual_flips > 0
        for report in reports[1:]:
            assert report.residual_flips == 0

    def test_refresh_is_most_expensive(self, reports):
        refresh = next(r for r in reports if r.name.startswith("refresh"))
        para = next(r for r in reports if r.name.startswith("para"))
        assert refresh.energy_overhead > para.energy_overhead
        assert refresh.perf_overhead > para.perf_overhead

    def test_para_is_stateless(self, reports):
        para = next(r for r in reports if r.name.startswith("para"))
        assert para.storage_bits == 0
        cra = next(r for r in reports if r.name.startswith("cra"))
        assert cra.storage_bits > 0


class TestC8Retention:
    def test_escapes_and_policies(self):
        result = X.retention_study()
        assert result["profiling_escapes"] > 0  # DPD + VRT defeat testing
        assert result["raidr_savings_fraction"] > 0.3
        assert result["raidr_escape_cells"] > 0
        # AVATAR: escape rate decays after day one.
        daily = result["avatar_daily_escapes"]
        assert sum(daily[1:]) < max(daily[0], 1) * len(daily)


class TestC9Flash:
    def test_retention_dominates_at_wear(self):
        rows = X.flash_error_sweep(pe_grid=(3000, 20000), seed=1)
        assert rows[-1]["dominant"] == "retention"
        assert rows[-1]["retention"] > rows[0]["retention"]

    def test_fcr_multiplier(self):
        result = X.fcr_study(seed=0)
        assert result["lifetime_multiplier"] > 3.0

    def test_fcr_zero_lifetime_baseline_has_no_multiplier(self):
        # At this seed the unrefreshed baseline fails the one-year
        # retention requirement even unworn: 0 P/E cycles, no finite ratio.
        result = X.fcr_study(seed=746867847)
        baseline, *refreshed = result["points"]
        assert baseline.refresh_interval_days is None
        assert baseline.raw_lifetime_pe == 0
        assert result["lifetime_multiplier"] is None
        assert refreshed
        assert all(p.raw_lifetime_pe > baseline.raw_lifetime_pe for p in refreshed)


class TestC10C11Recovery:
    def test_all_mechanisms_reduce_errors(self):
        result = X.recovery_study(seed=0)
        assert result["rfr"].reduction_fraction > 0.3
        assert result["read_disturb_recovery"].errors_after < result["read_disturb_recovery"].errors_before
        assert result["nac"].errors_after < result["nac"].errors_before


class TestC12TwoStep:
    def test_window_corruption(self):
        result = X.twostep_study(seed=0)
        assert result["exposed_errors"] > 10 * max(result["mitigated_errors"], 1)

    def test_lifetime_gain_near_paper(self):
        result = X.twostep_lifetime_study(seed=0)
        # Paper reports ~16%; accept the same ballpark.
        assert 0.05 < result["lifetime_gain_fraction"] < 0.6


class TestC13Pcm:
    def test_startgap_restores_lifetime(self):
        result = X.pcm_study(seed=0)
        assert result["improvement_factor"] > 10


class TestC14Gallery:
    def test_success_grows_with_vintage(self):
        rows = X.attack_gallery(dates=(2011.0, 2013.2), rows_scanned=1500, seed=0)
        assert rows[0]["templates"] < rows[1]["templates"]
        assert rows[0]["pte_spray"] <= rows[1]["pte_spray"]
        assert rows[1]["pte_spray"] > 0.9
        assert rows[1]["flip_feng_shui"]


class TestAblation:
    def test_double_beats_single(self):
        result = X.sidedness_ablation(seed=0)
        assert result["double_flips"] > result["single_flips"]


class TestExtensionStudies:
    def test_pattern_dependence_ordering(self):
        rows = X.pattern_dependence_study(victims=80, seed=0)
        by_name = {r["pattern"]: r["flips"] for r in rows}
        assert by_name["rowstripe"] > by_name["solid1"]
        assert by_name["random"] > by_name["solid1"]

    def test_emerging_memory_trends(self):
        result = X.emerging_memory_study(seed=0)
        stt = result["stt_scaling"]
        assert stt[-1]["read_disturb_errors"] > stt[0]["read_disturb_errors"]
        assert result["rram_hammer"][-1]["victims"] > 0

    def test_multibank_scaling(self):
        rows = X.multibank_study(seed=0, bank_counts=(1, 4, 8))
        totals = [r["victim_flips_total"] for r in rows]
        assert totals[0] < totals[-1]
        assert rows[-1]["per_bank_budget"] < rows[0]["per_bank_budget"]

    def test_codesign_wins(self):
        result = X.codesign_study(seed=0)
        assert result["aldram_mean_speedup"] > 0.08
        assert result["static_escapes"] > 0
        assert result["online_escapes"] == 0

    def test_userlevel_strategies(self):
        result = X.userlevel_attack_study(seed=0)
        by_name = {r["strategy"]: r for r in result["rows"]}
        assert by_name["flush"]["flips"] > 0
        assert by_name["naive"]["flips"] == 0
        assert result["eviction_on_weak_module"]["flips"] > 0

    def test_raidr_interaction(self):
        result = X.raidr_rowhammer_interaction(seed=0)
        assert result["flips"]["uniform-64ms"] == 0
        assert result["flips"]["raidr-bin2"] > 0
