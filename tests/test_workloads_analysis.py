"""Tests for workload generators and the analysis helpers."""

import math

import pytest

from repro.analysis import (
    HARD_DISK_AFR_TYPICAL,
    MitigationReport,
    compare_to_disk,
    format_table,
    report_rows,
)
from repro.workloads import mixed_with_attacker, random_access


class TestWorkloads:
    def test_random_access_in_bounds(self):
        trace = random_access(500, banks=4, rows=64, seed=1)
        assert all(0 <= bank < 4 and 0 <= row < 64 for bank, row, _w in trace)

    def test_random_deterministic(self):
        assert random_access(50, 4, 64, seed=2) == random_access(50, 4, 64, seed=2)

    def test_mixed_contains_both(self):
        benign = [(i % 2, 0, False) for i in range(100)]
        trace = mixed_with_attacker(benign, 0, [40, 42], attacker_share=0.5, seed=4)
        rows = {row for _b, row, _w in trace}
        assert 40 in rows or 42 in rows
        assert len(trace) > 100


class TestReliability:
    def test_compare_to_disk_margin(self):
        comparison = compare_to_disk(-14.0)
        assert comparison.safer_than_disk
        assert comparison.log10_margin_vs_disk == pytest.approx(
            math.log10(HARD_DISK_AFR_TYPICAL) + 14.0
        )

    def test_unsafe_rate(self):
        assert not compare_to_disk(-0.5).safer_than_disk


class TestCostModel:
    def test_protection_fraction(self):
        r = MitigationReport("x", residual_flips=5, baseline_flips=50, perf_overhead=0, energy_overhead=0)
        assert r.protection_fraction == pytest.approx(0.9)
        assert not r.eliminates_all

    def test_zero_baseline_full_protection(self):
        r = MitigationReport("x", 0, 0, 0, 0)
        assert r.protection_fraction == 1.0

    def test_report_rows_align_headers(self):
        from repro.analysis import MITIGATION_TABLE_HEADERS

        rows = report_rows([MitigationReport("x", 0, 10, 0.01, 0.02)])
        assert len(rows[0]) == len(MITIGATION_TABLE_HEADERS)


class TestTables:
    def test_format_table_aligns(self):
        out = format_table(["a", "bb"], [[1, 2.34567], ["xx", "y"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.346" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])
