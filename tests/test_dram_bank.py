"""Bank semantics — data, disturbance accounting, bulk path — on both
engines: the columnar production bank and the reference oracle."""

import numpy as np
import pytest

from repro.dram import ColumnarDramBank, DisturbanceModel, DramBank, DramGeometry, VulnerabilityProfile

GEO = DramGeometry(banks=2, rows=128, row_bytes=256)
PROFILE = VulnerabilityProfile(
    weak_cell_density=0.02,
    hc_first_median=5_000,
    hc_first_min=1_000,
    hc_first_sigma=0.4,
    distance2_weight=0.0,
)


class BankCase:
    """Builds banks of ``bank_class``: the production columnar bank
    here, the reference oracle in the ``...OnReference`` reruns below."""

    bank_class = ColumnarDramBank

    def make_bank(self, profile=PROFILE, seed=3, pattern="solid1"):
        model = DisturbanceModel(GEO, profile, seed)
        return self.bank_class(GEO, model, 0, default_pattern=pattern)


class TestDataAccess(BankCase):
    def test_default_fill(self):
        bank = self.make_bank()
        assert np.all(bank.row_bits(5) == 1)

    def test_write_read_roundtrip(self):
        bank = self.make_bank()
        data = np.zeros(GEO.row_bits, dtype=np.uint8)
        data[::7] = 1
        bank.write(10, data)
        assert np.array_equal(bank.read(10), data)

    def test_write_bytes_roundtrip(self):
        bank = self.make_bank()
        payload = bytes(range(256))
        bank.write_bytes(4, payload)
        assert bank.read_bytes(4) == payload

    def test_write_wrong_shape_rejected(self):
        bank = self.make_bank()
        with pytest.raises(ValueError):
            bank.write(0, np.ones(10, dtype=np.uint8))

    def test_rejected_write_changes_nothing(self):
        # The shape check runs before the write's activation: no ACT is
        # counted or queued, the open row stays, no neighbor is bumped.
        bank = self.make_bank()
        bank.activate(5)
        queued = list(getattr(bank, "_run", ()))
        with pytest.raises(ValueError):
            bank.write(10, np.ones(5, dtype=np.uint8))
        assert list(getattr(bank, "_run", ())) == queued
        assert bank.open_row == 5
        assert bank.stats.activations == 1
        assert [bank.pressure(r) for r in (4, 6, 9, 11)] == [1.0, 1.0, 0.0, 0.0]

    def test_write_bytes_wrong_size_rejected(self):
        bank = self.make_bank()
        with pytest.raises(ValueError):
            bank.write_bytes(0, b"short")

    def test_read_returns_copy(self):
        bank = self.make_bank()
        a = bank.read(3)
        a[:] = 0
        assert np.all(bank.read(3) == 1)

    def test_touched_rows(self):
        bank = self.make_bank()
        bank.read(7)
        bank.read(3)
        assert bank.touched_rows() == [3, 7]

    def test_open_row_tracking(self):
        bank = self.make_bank()
        bank.activate(9)
        assert bank.open_row == 9
        bank.precharge()
        assert bank.open_row is None


class TestDisturbanceAccounting(BankCase):
    def test_activation_pressures_neighbors(self):
        bank = self.make_bank()
        bank.activate(50)
        assert bank.pressure(49) == 1.0
        assert bank.pressure(51) == 1.0
        assert bank.pressure(50) == 0.0

    def test_own_activation_resets_pressure(self):
        bank = self.make_bank()
        for _ in range(10):
            bank.activate(50)
        assert bank.pressure(49) == 10.0
        bank.activate(49)
        assert bank.pressure(49) == 0.0

    def test_refresh_resets_pressure(self):
        bank = self.make_bank()
        bank.activate(50)
        bank.refresh_row(49)
        assert bank.pressure(49) == 0.0

    def test_bulk_activate_equivalent_to_loop(self):
        loop_bank = self.make_bank(seed=11)
        bulk_bank = self.make_bank(seed=11)
        for _ in range(3000):
            loop_bank.activate(60)
        bulk_bank.bulk_activate(60, 3000)
        loop_flips = loop_bank.refresh_row(61)
        bulk_flips = bulk_bank.refresh_row(61)
        assert np.array_equal(loop_flips, bulk_flips)
        assert loop_bank.stats.activations == bulk_bank.stats.activations

    def test_hammering_flips_victims(self):
        bank = self.make_bank()
        bank.bulk_activate(60, 100_000)
        flips = bank.refresh_row(61)
        assert len(flips) > 0

    def test_flips_persist_after_refresh(self):
        bank = self.make_bank()
        bank.bulk_activate(60, 100_000)
        bank.refresh_row(61)
        after = bank.row_bits(61)
        # Refresh does not restore disturbed data; the flip is persistent.
        assert np.count_nonzero(after == 0) > 0

    def test_write_clears_flips(self):
        bank = self.make_bank()
        bank.bulk_activate(60, 100_000)
        bank.settle()
        fresh = np.ones(GEO.row_bits, dtype=np.uint8)
        bank.write(61, fresh)
        assert np.all(bank.read(61) == 1)

    def test_refresh_before_threshold_prevents_flips(self):
        bank = self.make_bank()
        # Hammer in chunks below every threshold, refreshing in between.
        for _ in range(200):
            bank.bulk_activate(60, 500)  # floor is 1000
            bank.refresh_row(61)
            bank.refresh_row(59)
        bank.settle()
        assert bank.stats.flips_materialized == 0

    def test_no_refresh_same_total_does_flip(self):
        bank = self.make_bank()
        bank.bulk_activate(60, 200 * 500)
        bank.settle()
        assert bank.stats.flips_materialized > 0

    def test_stats_flip_log_matches_counter(self):
        bank = self.make_bank()
        bank.bulk_activate(60, 100_000)
        bank.settle()
        assert len(bank.stats.flip_log) == bank.stats.flips_materialized

    def test_distance2_coupling(self):
        profile = VulnerabilityProfile(
            weak_cell_density=0.02,
            hc_first_median=5_000,
            hc_first_min=1_000,
            distance2_weight=0.5,
        )
        bank = self.make_bank(profile=profile)
        bank.activate(50)
        assert bank.pressure(48) == 0.5
        assert bank.pressure(52) == 0.5

    def test_refresh_all_counts(self):
        bank = self.make_bank()
        bank.bulk_activate(60, 100_000)
        flips = bank.refresh_all()
        assert flips == bank.stats.flips_materialized
        assert flips > 0

    def test_edge_row_activation_safe(self):
        bank = self.make_bank()
        bank.activate(0)
        bank.activate(GEO.rows - 1)
        assert bank.pressure(1) == 1.0
        assert bank.pressure(GEO.rows - 2) == 1.0


class TestDataAccessOnReference(TestDataAccess):
    bank_class = DramBank


class TestDisturbanceAccountingOnReference(TestDisturbanceAccounting):
    bank_class = DramBank
