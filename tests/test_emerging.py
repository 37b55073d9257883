"""Tests for the emerging-memory models (STT-MRAM, RRAM crossbar)."""

import pytest

from repro.emerging import (
    RramCrossbar,
    RramParams,
    SttMramArray,
    SttParams,
    crossbar_hammer_study,
    read_disturb_probability,
    scaling_study,
)


class TestSttPhysics:
    def test_read_disturb_grows_with_current(self):
        low = read_disturb_probability(60.0, 0.1, 10.0)
        high = read_disturb_probability(60.0, 0.5, 10.0)
        assert high > low

    def test_read_disturb_grows_as_delta_shrinks(self):
        strong = read_disturb_probability(70.0, 0.3, 10.0)
        weak = read_disturb_probability(40.0, 0.3, 10.0)
        assert weak > strong

    def test_retention_grows_with_time(self):
        array = SttMramArray(cells=1 << 12, params=SttParams(delta=40.0), seed=0)
        assert array.expected_retention_errors(10.0) > array.expected_retention_errors(1e-3)

    def test_probabilities_bounded(self):
        for delta in (10.0, 40.0, 80.0):
            p = read_disturb_probability(delta, 0.3, 10.0)
            assert 0.0 <= p <= 1.0


class TestSttArray:
    def test_more_reads_more_errors(self):
        array = SttMramArray(cells=1 << 16, params=SttParams(delta=45.0), seed=1)
        few = array.expected_read_disturb_errors(10_000)
        many = array.expected_read_disturb_errors(10_000_000)
        assert many > few

    def test_mature_node_nearly_error_free(self):
        array = SttMramArray(cells=1 << 16, params=SttParams(delta=70.0), seed=2)
        assert array.expected_read_disturb_errors(1_000_000) < 1.0

    def test_scaling_study_trend(self):
        rows = scaling_study(deltas=(60.0, 45.0), cells=1 << 16, seed=4)
        assert rows[1]["read_disturb_errors"] > rows[0]["read_disturb_errors"]
        assert rows[1]["retention_errors_10y"] >= rows[0]["retention_errors_10y"]

    def test_validation(self):
        with pytest.raises(ValueError):
            SttParams(read_current_ratio=1.5)
        array = SttMramArray(cells=16, seed=0)
        with pytest.raises(ValueError):
            array.expected_read_disturb_errors(-1)


class TestRramCrossbar:
    def test_hammering_flips_shared_line_cells_only(self):
        tile = RramCrossbar(rows=64, cols=64, seed=1)
        tile.access(32, 32, 10_000_000)
        victims = tile.flipped_cells()
        assert victims
        assert all(r == 32 or c == 32 for r, c in victims)
        assert not tile.flipped[32, 32]  # the accessed cell is re-biased

    def test_below_threshold_no_flips(self):
        tile = RramCrossbar(rows=64, cols=64, seed=2)
        tile.access(10, 10, 1_000)  # floor is 2e5
        assert tile.flip_count() == 0

    def test_rewrite_clears_victim(self):
        tile = RramCrossbar(rows=64, cols=64, seed=3)
        tile.access(32, 32, 10_000_000)
        victim = tile.flipped_cells()[0]
        tile.rewrite(*victim)
        assert victim not in tile.flipped_cells()

    def test_spread_accesses_do_not_flip(self):
        # The leveling analogue: the same total accesses spread across
        # many addresses stress no single line past its threshold.
        tile = RramCrossbar(rows=64, cols=64, seed=4)
        per_cell = 10_000_000 // (64 * 4)
        for i in range(0, 64, 4):
            tile.access(i, (i * 7) % 64, per_cell)
        concentrated = RramCrossbar(rows=64, cols=64, seed=4)
        concentrated.access(32, 32, 10_000_000)
        assert tile.flip_count() < concentrated.flip_count()

    def test_study_monotone(self):
        rows = crossbar_hammer_study(accesses=(1e5, 1e7), rows=64, cols=64, seed=5)
        assert rows[0]["victims"] <= rows[1]["victims"]
        assert rows[1]["victims"] > 0
        assert all(r["all_on_shared_lines"] for r in rows)

    def test_threshold_params_validated(self):
        with pytest.raises(ValueError):
            RramParams(hs_threshold_min=1e9)

    def test_access_bounds(self):
        tile = RramCrossbar(rows=8, cols=8, seed=0)
        with pytest.raises(IndexError):
            tile.access(8, 0)
        with pytest.raises(ValueError):
            tile.access(0, 0, -1)
