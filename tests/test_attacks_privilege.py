"""Tests for the exploitation models."""

import numpy as np
import pytest

from repro.attacks import (
    FlipTemplate,
    FlipTemplates,
    drammer_success_probability,
    flip_feng_shui_templates,
    javascript_success_probability,
    pte_spray_success_probability,
    scan_templates,
)
from repro.attacks.privilege import PFN_BIT_RANGE, SPRAY_PREFIX
from repro.core.scenarios import full_scale_scenario
from repro.dram import DramGeometry, DramModule, INVULNERABLE, VulnerabilityProfile
from repro.dram.timing import DDR3_1333
from repro.utils.rng import derive_rng

# 4 KiB rows so template byte offsets span a whole OS page.
GEO = DramGeometry(banks=2, rows=1024, row_bytes=4096)
PROFILE = VulnerabilityProfile(weak_cell_density=0.002, hc_first_median=50_000, hc_first_min=10_000)
SEEDS = (0, 1, 746867847)


def make_templates(seed=0, rows=300, pressure=200_000):
    module = DramModule(geometry=GEO, timing=DDR3_1333, profile=PROFILE, seed=seed)
    return scan_templates(module, 0, range(10, 10 + rows), pressure)


# ----------------------------------------------------------------------
# Reference estimates: one Python step per trial (and a list filter for
# Flip Feng Shui), as the models were first written.  The array-backed
# estimates must return exactly what these return.
# ----------------------------------------------------------------------
def reference_pte_spray(templates, spray_fraction, trials=2000, seed=0):
    if not templates:
        return 0.0
    rng = derive_rng(seed, "pte-spray")
    lo, hi = PFN_BIT_RANGE
    usable = [t for t in templates if lo <= t.word_bit_offset < hi]
    if not usable:
        return 0.0
    successes = 0
    n = len(usable)
    for _ in range(trials):
        sprayed = rng.random(n) < spray_fraction
        redirect_ok = rng.random(n) < spray_fraction
        if np.any(sprayed & redirect_ok):
            successes += 1
    return successes / trials


def reference_ffs_predicate(template):
    byte_in_page = (template.bit // 8) % 4096
    return 1024 <= byte_in_page < 2048


def reference_ffs(templates):
    return [t for t in templates if reference_ffs_predicate(t)]


def reference_drammer(templates, total_rows, chunk_rows, trials=2000, seed=0):
    if chunk_rows < 3 or not templates:
        return 0.0
    rng = derive_rng(seed, "drammer")
    victim_rows = np.array(sorted({t.row for t in templates}))
    successes = 0
    max_start = max(1, total_rows - chunk_rows)
    for _ in range(trials):
        start = int(rng.integers(0, max_start))
        lo, hi = start + 1, start + chunk_rows - 1  # need row-1 and row+1 inside
        if np.any((victim_rows >= lo) & (victim_rows < hi)):
            successes += 1
    return successes / trials


def reference_javascript(templates, total_rows, aggressor_attempts, trials=1000, seed=0):
    if not templates:
        return 0.0
    rng = derive_rng(seed, "js")
    victim_rows = {t.row for t in templates}
    successes = 0
    for _ in range(trials):
        picks = rng.integers(1, total_rows - 1, size=aggressor_attempts)
        if any(int(v) in victim_rows for v in picks):
            successes += 1
    return successes / trials


def reference_scan(module, bank, rows, pressure):
    templates = []
    model = module.model
    for row in rows:
        cells = model.weak_cells(bank, row)
        if not len(cells):
            continue
        reachable = cells.hc_first <= pressure
        for bit, hc, anti in zip(
            cells.bits[reachable], cells.hc_first[reachable], cells.anti[reachable]
        ):
            templates.append(FlipTemplate(bank=bank, row=int(row), bit=int(bit),
                                          direction="0to1" if anti else "1to0",
                                          hc_first=float(hc)))
    return templates


def gallery_scan(date, seed, rows):
    """The attack gallery's scan of a full-scale vintage-``date`` module."""
    scenario = full_scale_scenario("B", date)
    module = scenario.make_module(serial=f"gallery-{date}", seed=seed)
    return scan_templates(module, 0, range(rows), scenario.attack_budget)


def pfn_templates(n):
    """``n`` templates on distinct rows, each inside the PTE PFN field."""
    return [FlipTemplate(bank=0, row=10 + i, bit=64 * i + 20, direction="1to0", hc_first=1.0)
            for i in range(n)]


def assert_estimates_match_reference(templates, total_rows, seed):
    for fraction in (0.01, 0.05, 0.35, 0.9):
        assert (pte_spray_success_probability(templates, fraction, seed=seed)
                == reference_pte_spray(templates, fraction, seed=seed))
    assert list(flip_feng_shui_templates(templates)) == reference_ffs(templates)
    for chunk in (8, 256):
        assert (drammer_success_probability(templates, total_rows, chunk, seed=seed)
                == reference_drammer(templates, total_rows, chunk, seed=seed))
    for attempts in (1, 200):
        assert (javascript_success_probability(templates, total_rows, attempts, seed=seed)
                == reference_javascript(templates, total_rows, attempts, seed=seed))


class TestScanTemplates:
    def test_scan_finds_templates(self):
        templates = make_templates()
        assert len(templates) > 0

    def test_pressure_monotonic(self):
        few = make_templates(pressure=12_000)
        many = make_templates(pressure=500_000)
        assert len(many) > len(few)

    def test_invulnerable_yields_none(self):
        module = DramModule(geometry=GEO, timing=DDR3_1333, profile=INVULNERABLE, seed=0)
        assert list(scan_templates(module, 0, range(100), 1e9)) == []

    def test_directions_consistent_with_polarity(self):
        templates = make_templates()
        assert {t.direction for t in templates} <= {"1to0", "0to1"}

    def test_word_bit_offset(self):
        t = FlipTemplate(bank=0, row=1, bit=130, direction="1to0", hc_first=1.0)
        assert t.word_bit_offset == 2

    @pytest.mark.parametrize("seed", SEEDS)
    def test_columns_equal_per_cell_construction(self, seed):
        module = DramModule(geometry=GEO, timing=DDR3_1333, profile=PROFILE, seed=seed)
        rows = range(10, 310)
        scan = scan_templates(module, 0, rows, 200_000)
        expected = reference_scan(module, 0, rows, 200_000)
        assert isinstance(scan, FlipTemplates)
        assert list(scan) == expected
        assert [scan[i] for i in range(len(scan))] == expected
        assert scan.bank.tolist() == [t.bank for t in expected]
        assert scan.row.tolist() == [t.row for t in expected]
        assert scan.bit.tolist() == [t.bit for t in expected]
        assert scan.anti.tolist() == [t.direction == "0to1" for t in expected]
        assert scan.hc_first.tolist() == [t.hc_first for t in expected]

    def test_columns_round_trip_through_a_list(self):
        scan = make_templates()
        again = FlipTemplates.of(list(scan))
        assert list(again) == list(scan)
        assert FlipTemplates.of(scan) is scan
        assert list(scan[3:7]) == list(scan)[3:7]


class TestPteSpray:
    def test_more_spray_more_success(self):
        # A handful of templates so neither setting saturates at 1.0.
        templates = make_templates(rows=6)
        low = pte_spray_success_probability(templates, spray_fraction=0.05, seed=1)
        high = pte_spray_success_probability(templates, spray_fraction=0.6, seed=1)
        assert high > low

    def test_no_templates_no_success(self):
        assert pte_spray_success_probability([], 0.5) == 0.0

    def test_bit_offset_filter(self):
        # A template outside the PFN field is useless.
        useless = [FlipTemplate(bank=0, row=1, bit=0, direction="1to0", hc_first=1.0)]
        assert pte_spray_success_probability(useless, 0.9) == 0.0
        useful = [FlipTemplate(bank=0, row=1, bit=20, direction="1to0", hc_first=1.0)]
        assert pte_spray_success_probability(useful, 0.9, trials=500) > 0.5

    def test_spray_fraction_validated(self):
        with pytest.raises(ValueError):
            pte_spray_success_probability([], 1.5)

    @pytest.mark.parametrize("n", [1, 5, SPRAY_PREFIX, SPRAY_PREFIX + 1, 100, 3000])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lazy_estimate_equals_full_draw_and_leaves_same_stream(self, n, seed, monkeypatch):
        # Both estimates draw from a derive_rng the test keeps, so the
        # generator's state afterwards can be compared as well.
        import repro.attacks.privilege as privilege

        templates = pfn_templates(n)
        for fraction in (0.01, 0.05, 0.35, 0.9):
            generators = []

            def keep(seed, label, generators=generators):
                generators.append(derive_rng(seed, label))
                return generators[-1]

            monkeypatch.setattr(privilege, "derive_rng", keep)
            lazy = pte_spray_success_probability(templates, fraction, trials=300, seed=seed)
            monkeypatch.setattr(privilege, "derive_rng", derive_rng)
            rng = derive_rng(seed, "pte-spray")
            full = 0
            for _ in range(300):
                full += bool(np.any((rng.random(n) < fraction) & (rng.random(n) < fraction)))
            assert lazy == full / 300
            assert generators[0].bit_generator.state == rng.bit_generator.state


class TestFlipFengShui:
    def test_predicate_filters(self):
        inside = FlipTemplate(bank=0, row=1, bit=1500 * 8, direction="1to0", hc_first=1.0)
        outside = FlipTemplate(bank=0, row=1, bit=10, direction="1to0", hc_first=1.0)
        assert list(flip_feng_shui_templates([inside])) == [inside]
        assert list(flip_feng_shui_templates([outside])) == []
        usable = flip_feng_shui_templates([inside, outside])
        assert list(usable) == [inside]

    def test_mask_bounds_of_the_page_quarter(self):
        edges = [FlipTemplate(bank=0, row=1, bit=byte * 8 + 7, direction="0to1", hc_first=1.0)
                 for byte in (1023, 1024, 2047, 2048, 4096 + 1024)]
        assert [t.bit // 8 for t in flip_feng_shui_templates(edges)] == [1024, 2047, 4096 + 1024]

    def test_dedup_placement_deterministic_success(self):
        templates = make_templates()
        usable = flip_feng_shui_templates(templates)
        # On a vulnerable 2013-class module there is always a usable spot.
        assert len(usable) > 0


class TestDrammerAndJs:
    def test_bigger_chunk_more_success(self):
        templates = make_templates()
        small = drammer_success_probability(templates, total_rows=1024, chunk_rows=8, seed=2)
        big = drammer_success_probability(templates, total_rows=1024, chunk_rows=512, seed=2)
        assert big > small

    def test_chunk_too_small_fails(self):
        templates = make_templates()
        assert drammer_success_probability(templates, total_rows=1024, chunk_rows=2) == 0.0

    def test_js_more_attempts_more_success(self):
        templates = make_templates()
        one = javascript_success_probability(templates, total_rows=1024, aggressor_attempts=1, seed=3)
        many = javascript_success_probability(templates, total_rows=1024, aggressor_attempts=200, seed=3)
        assert many > one

    def test_empty_templates(self):
        assert drammer_success_probability([], 1024, 64) == 0.0
        assert javascript_success_probability([], 1024, 10) == 0.0

    @pytest.mark.parametrize("high", [3000, 2**31 - 1, 2**31 + 12_345, 2**32 - 1, 2**32 + 12_345])
    def test_one_sized_draw_equals_one_draw_per_trial(self, high):
        # The estimates draw all trials at once; numpy yields the same
        # values as the per-trial calls, on both sides of 2**31 and 2**32,
        # including after an odd number of 32-bit draws.
        per_trial = np.random.default_rng(5)
        sized = np.random.default_rng(5)
        expected = [int(per_trial.integers(0, high)) for _ in range(101)]
        expected += [per_trial.integers(1, high, size=3).tolist() for _ in range(50)]
        got = sized.integers(0, high, size=101).tolist()
        got += sized.integers(1, high, size=(50, 3)).tolist()
        assert got == expected
        assert sized.bit_generator.state == per_trial.bit_generator.state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_drammer_above_2_31_rows_equals_reference(self, seed):
        total_rows = 2**33
        templates = [FlipTemplate(bank=0, row=i << 20, bit=20, direction="1to0", hc_first=1.0)
                     for i in range(1, 8192)]
        chunk = 1 << 19
        got = drammer_success_probability(templates, total_rows, chunk, trials=500, seed=seed)
        assert 0.0 < got < 1.0
        assert got == reference_drammer(templates, total_rows, chunk, trials=500, seed=seed)

    def test_gallery_js_reaches_the_top_of_its_scan(self, monkeypatch):
        """The gallery's estimates model its scan as rows
        ``0..rows_scanned-1``, so a template on the highest scanned row
        with both neighbours scanned is one the JavaScript picks bracket."""
        from repro.experiments import attacks as gallery

        def top_template(module, bank, rows, pressure):
            return FlipTemplates.of([FlipTemplate(bank=bank, row=rows[-2], bit=20,
                                                  direction="1to0", hc_first=1.0)])

        monkeypatch.setattr(gallery, "scan_templates", top_template)
        (row,) = gallery.attack_gallery(dates=(2011.0,), rows_scanned=8, seed=0)
        assert row["javascript"] > 0.9


class TestExactness:
    """Every estimate returns what the reference per-trial loops return."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_few_template_2011_scan(self, seed):
        templates = gallery_scan(2011.0, seed, rows=3000)
        assert 0 < len(templates) < SPRAY_PREFIX
        assert_estimates_match_reference(templates, total_rows=3000, seed=seed)

    @pytest.mark.parametrize("n", [SPRAY_PREFIX, SPRAY_PREFIX + 1])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_either_side_of_the_prefix(self, n, seed):
        assert_estimates_match_reference(pfn_templates(n), total_rows=200, seed=seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_2013_scan(self, seed):
        templates = gallery_scan(2013.2, seed, rows=50)
        assert len(templates) > 1000
        assert_estimates_match_reference(templates, total_rows=200, seed=seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_columns_and_list_give_the_same_estimates(self, seed):
        columns = gallery_scan(2013.2, seed, rows=50)
        listed = list(columns)
        assert (pte_spray_success_probability(columns, 0.35, seed=seed)
                == pte_spray_success_probability(listed, 0.35, seed=seed))
        assert list(flip_feng_shui_templates(columns)) == list(flip_feng_shui_templates(listed))
        assert (drammer_success_probability(columns, 200, 16, seed=seed)
                == drammer_success_probability(listed, 200, 16, seed=seed))
        assert (javascript_success_probability(columns, 200, 5, seed=seed)
                == javascript_success_probability(listed, 200, 5, seed=seed))
