"""Cross-cutting property-based tests on core invariants.

These pin down the semantic contracts the experiments rely on:
linearity of disturbance accounting, agreement between the bank's
lazy accounting and the fault model's direct prediction, refresh
equivalence, and the retention/VRT orderings.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (
    ColumnarDramBank,
    DisturbanceModel,
    DramGeometry,
    VulnerabilityProfile,
)
from repro.retention import CellPopulation, RetentionParams

GEO = DramGeometry(banks=2, rows=128, row_bytes=128)
PROFILE = VulnerabilityProfile(
    weak_cell_density=0.05,
    hc_first_median=5_000,
    hc_first_min=1_000,
    hc_first_sigma=0.5,
    aggressor_sensitive_fraction=0.0,  # keep flips independent of fills
    distance2_weight=0.0,
)


def make_bank(seed):
    return ColumnarDramBank(GEO, DisturbanceModel(GEO, PROFILE, seed), 0)


class TestDisturbanceLinearity:
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.lists(st.integers(min_value=1, max_value=3_000), min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunked_equals_single_bulk(self, seed, chunks):
        """N activations in arbitrary chunks == one bulk of N (no refresh)."""
        chunked = make_bank(seed)
        for chunk in chunks:
            chunked.bulk_activate(60, chunk)
        single = make_bank(seed)
        single.bulk_activate(60, sum(chunks))
        assert np.array_equal(chunked.refresh_row(61), single.refresh_row(61))

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=200_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_flips_match_model_prediction(self, seed, count):
        """The bank's lazy accounting agrees with the fault model's
        direct threshold evaluation for a fresh single-aggressor run."""
        bank = make_bank(seed)
        bank.bulk_activate(60, count)
        flipped = bank.refresh_row(61)
        model = bank.model
        cells = model.weak_cells(0, 61)
        charged = model.charged_values(cells)
        # Victim holds the solid1 default: bit value 1 everywhere.
        expected = cells.bits[(cells.hc_first <= count) & (charged == 1)]
        assert np.array_equal(np.sort(flipped), np.sort(expected))

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_refresh_is_idempotent(self, seed):
        bank = make_bank(seed)
        bank.bulk_activate(60, 50_000)
        first = bank.refresh_row(61)
        second = bank.refresh_row(61)
        assert len(second) == 0
        assert len(first) >= 0

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=25, deadline=None)
    def test_interposed_refresh_never_increases_flips(self, seed, pieces):
        """Splitting a fixed hammer budget with refreshes in between can
        only reduce (never increase) the victim's flips."""
        total = 60_000
        uninterrupted = make_bank(seed)
        uninterrupted.bulk_activate(60, total)
        flips_a = len(uninterrupted.refresh_row(61))
        refreshed = make_bank(seed)
        per_piece = total // pieces
        for _ in range(pieces):
            refreshed.bulk_activate(60, per_piece)
            refreshed.refresh_row(61)
        flips_b = refreshed.stats.flips_materialized
        assert flips_b <= flips_a


class TestRetentionOrderings:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_worst_case_pattern_never_helps(self, seed):
        pop = CellPopulation(32, 64, RetentionParams(dpd_fraction=0.7), seed=seed)
        worst = pop.retention_s(worst_case_pattern=True)
        best = pop.retention_s(worst_case_pattern=False)
        assert np.all(worst <= best + 1e-12)

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=1.0, max_value=10.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_failing_cells_monotone_in_interval(self, seed, interval, factor):
        pop = CellPopulation(32, 64, RetentionParams(tail_fraction=1e-3), seed=seed)
        few = pop.failing_cells(interval)
        more = pop.failing_cells(interval * factor)
        assert set(few.tolist()) <= set(more.tolist())


class TestFlashOrderings:
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=30_000),
        st.floats(min_value=0.0, max_value=400.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_rber_monotone_in_retention_age(self, seed, pe, days):
        from repro.flash import FlashBlock, program_block_shadow

        block = FlashBlock(wordlines=4, cells=512, seed=seed)
        block.set_pe_cycles(pe)
        program_block_shadow(block, seed=seed)
        before = block.rber()
        block.age_retention(days)
        # Allow a few-bit decrease: retention can re-center a cell that
        # program noise had pushed just past a reference.
        slack = 4 / (4 * 512 * 2)
        assert block.rber() >= before - slack
