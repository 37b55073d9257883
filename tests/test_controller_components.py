"""Tests for controller components: energy and refresh."""

import pytest

from repro.controller import (
    EnergyAccount,
    EnergyParams,
    RefreshEngine,
)
from repro.dram import DramGeometry, DramModule, VulnerabilityProfile
from repro.dram.timing import DDR3_1333

GEO = DramGeometry(banks=2, rows=128, row_bytes=256)
PROFILE = VulnerabilityProfile(weak_cell_density=0.02, hc_first_median=5_000, hc_first_min=1_000)


def make_module():
    return DramModule(geometry=GEO, timing=DDR3_1333, profile=PROFILE, seed=2)


class TestEnergyAccount:
    def test_dynamic_energy_sums(self):
        acct = EnergyAccount(params=EnergyParams(act_nj=2.0, pre_nj=1.0))
        acct.record("act", 3)
        acct.record("pre", 3)
        assert acct.dynamic_nj == pytest.approx(9.0)

    def test_unknown_command_rejected(self):
        acct = EnergyAccount()
        with pytest.raises(KeyError):
            acct.record("bogus")

    def test_refresh_share(self):
        acct = EnergyAccount()
        acct.record("refresh_row", 10)
        acct.record("act", 1)
        assert 0 < acct.refresh_share() < 1


class TestRefreshEngine:
    def test_covers_all_rows_each_window(self):
        module = make_module()
        engine = RefreshEngine(module, multiplier=1.0)
        window = module.timing.tREFW
        engine.tick(window * 1.001)
        # Every row in every bank refreshed at least once per window.
        assert engine.stats.rows_refreshed >= GEO.rows * GEO.banks

    def test_multiplier_scales_rate(self):
        module = make_module()
        base = RefreshEngine(module, multiplier=1.0)
        fast = RefreshEngine(make_module(), multiplier=4.0)
        assert fast.interval_ns == pytest.approx(base.interval_ns / 4)

    def test_refresh_interrupts_hammering(self):
        module = make_module()
        engine = RefreshEngine(module, multiplier=1.0)
        bank = module.bank(0)
        assert engine.rows_per_ref == 1  # one full pass is one REF per row
        # Accumulate pressure below thresholds, tick a full pass of
        # refreshes, continue: no flips because refresh reset victims.
        for chunk in range(4):
            bank.bulk_activate(60, 400)
            engine.tick(engine.next_ref_ns + engine.interval_ns * GEO.rows)
        module.settle()
        assert module.total_flips() == 0

    def test_due_and_tick_consume(self):
        module = make_module()
        engine = RefreshEngine(module)
        t = engine.next_ref_ns
        assert engine.due(t)
        engine.tick(t)
        assert not engine.due(t)
