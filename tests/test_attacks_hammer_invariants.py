"""Tests for hammer patterns and memory-isolation invariants."""

import pytest

from repro.attacks import (
    check_read_isolation,
    check_write_isolation,
    hammer_device,
    neighbors,
)
from repro.controller import MemoryController
from repro.dram import DramGeometry, DramModule, VulnerabilityProfile
from repro.dram.timing import DDR3_1333

GEO = DramGeometry(banks=2, rows=512, row_bytes=256)
PROFILE = VulnerabilityProfile(weak_cell_density=0.05, hc_first_median=3_000, hc_first_min=800)


def make_module(seed=10):
    return DramModule(geometry=GEO, timing=DDR3_1333, profile=PROFILE, seed=seed)


class TestHammerDevice:
    def test_single_sided_flips_neighbors_only(self):
        module = make_module()
        result = hammer_device(module, 0, [100], 50_000)
        assert result.flip_count > 0
        for row in result.victim_rows():
            assert row != 100
            assert abs(row - 100) <= 2

    def test_double_sided_concentrates_on_victim(self):
        module = make_module()
        result = hammer_device(module, 0, neighbors(module, 100), 25_000)
        assert result.aggressors == (99, 101)
        assert 100 in result.victim_rows()

    def test_double_beats_single_per_victim(self):
        m1 = make_module(seed=77)
        single = hammer_device(m1, 0, [99], 2_000)
        single_on_100 = sum(1 for r, _ in single.flips if r == 100)
        m2 = make_module(seed=77)
        double = hammer_device(m2, 0, neighbors(m2, 100), 2_000)
        double_on_100 = sum(1 for r, _ in double.flips if r == 100)
        assert double_on_100 >= single_on_100

    def test_many_sided(self):
        module = make_module()
        result = hammer_device(module, 0, [50, 52, 54], 50_000)
        assert result.flip_count > 0
        assert result.aggressors == (50, 52, 54)
        assert result.activations_per_aggressor == 50_000
        assert module.total_activations() == 3 * 50_000

    def test_edge_victim(self):
        module = make_module()
        assert neighbors(module, 0) == (1,)
        assert neighbors(module, GEO.rows - 1) == (GEO.rows - 2,)
        result = hammer_device(module, 0, neighbors(module, 0), 10_000)
        assert result.aggressors == (1,)

    def test_victim_row_checked(self):
        module = make_module()
        with pytest.raises(IndexError):
            neighbors(module, GEO.rows)

    def test_count_must_be_positive(self):
        module = make_module()
        with pytest.raises(ValueError):
            hammer_device(module, 0, [100], 0)

    def test_flips_are_only_this_sessions(self):
        # A second session on the same bank reports only its own flips.
        module = make_module()
        first = hammer_device(module, 0, [99, 101], 25_000)
        second = hammer_device(module, 0, [199, 201], 25_000)
        assert first.flip_count > 0 and second.flip_count > 0
        assert all(abs(row - 200) <= 2 for row in second.victim_rows())
        assert (first.flip_count + second.flip_count
                == module.bank(0).stats.flips_materialized)

    def test_controller_path_counts_post_mitigation(self):
        module = make_module()
        ctrl = MemoryController(module)
        ctrl.run_activation_pattern(0, [99, 101], 3_000)
        ctrl.finish()
        assert module.total_flips() > 0


class TestIsolationInvariants:
    def test_reads_corrupt_other_rows(self):
        module = make_module()
        report = check_read_isolation(module, 0, accessed_row=100, read_count=100_000)
        assert report.violated
        assert not report.accessed_row_changed
        assert all(row != 100 for row in report.corrupted_rows)

    def test_writes_corrupt_other_rows(self):
        module = make_module()
        report = check_write_isolation(module, 0, accessed_row=100, write_count=100_000)
        assert report.violated
        assert not report.accessed_row_changed

    def test_no_hammer_no_violation(self):
        module = make_module()
        report = check_read_isolation(module, 0, accessed_row=100, read_count=10)
        assert not report.violated
        assert report.total_corrupted_bits == 0

    def test_invulnerable_module_clean(self):
        from repro.dram import INVULNERABLE

        module = DramModule(geometry=GEO, timing=DDR3_1333, profile=INVULNERABLE, seed=1)
        report = check_read_isolation(module, 0, accessed_row=100, read_count=1_000_000)
        assert not report.violated
