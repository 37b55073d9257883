"""Tests for the sanitizer: levels, registry, checkers, runner wiring.

Positive coverage (clean simulator state passes every level) lives
here; the paired negative proof — each chaos state-corruption injector
trips its invariant class — lives in ``test_state_corruption.py``.
"""

import numpy as np
import pytest

from repro.controller import RefreshEngine
from repro.dram import (
    ColumnarDramBank,
    DisturbanceModel,
    DramGeometry,
    DramModule,
    VulnerabilityProfile,
)
from repro.dram.timing import DDR3_1333
from repro.ecc import HammingSecded
from repro.experiments.result import ExperimentResult
from repro.experiments.runner import violation_subsystem
from repro.pcm import PcmArray, StartGap
from repro.sanitizer import runtime as sanit
from repro.telemetry import MetricsRegistry
from repro.telemetry import runtime as telem

GEO = DramGeometry(banks=2, rows=128, row_bytes=256)
PROFILE = VulnerabilityProfile(
    weak_cell_density=0.02,
    hc_first_median=5_000,
    hc_first_min=1_000,
    hc_first_sigma=0.4,
    distance2_weight=0.0,
)

EXPECTED_SUBSYSTEMS = {
    "dram.bank", "dram.refresh", "ecc.codec", "pcm.startgap",
}


def make_bank(seed=3, pattern="solid1"):
    model = DisturbanceModel(GEO, PROFILE, seed)
    return ColumnarDramBank(GEO, model, 0, default_pattern=pattern)


def make_module():
    return DramModule(geometry=GEO, timing=DDR3_1333, profile=PROFILE, seed=2)


# ----------------------------------------------------------------------
# Levels and guards
# ----------------------------------------------------------------------
class TestLevels:
    def test_set_level_drives_guards(self):
        sanit.set_level("off")
        assert not sanit.sanitize_on and not sanit.full_on
        previous = sanit.set_level("cheap")
        assert previous == "off"
        assert sanit.sanitize_on and not sanit.full_on
        assert sanit.set_level("full") == "cheap"
        assert sanit.sanitize_on and sanit.full_on
        assert sanit.current_level() == "full"

    def test_unknown_level_rejected(self):
        sanit.set_level("cheap")
        with pytest.raises(ValueError, match="unknown sanitize level"):
            sanit.set_level("paranoid")
        assert sanit.current_level() == "cheap"

    def test_sync_adopts_env(self, monkeypatch):
        monkeypatch.setenv(sanit.ENV_SANITIZE, "full")
        assert sanit.sync_from_env() == "full"
        assert sanit.full_on

    def test_sync_unknown_env_reads_off(self, monkeypatch):
        monkeypatch.setenv(sanit.ENV_SANITIZE, "bogus")
        assert sanit.sync_from_env() == "off"

    def test_sync_unset_env_keeps_level(self, monkeypatch):
        monkeypatch.delenv(sanit.ENV_SANITIZE, raising=False)
        sanit.set_level("cheap")
        assert sanit.sync_from_env() == "cheap"

    def test_sync_unset_env_applies_default(self, monkeypatch):
        monkeypatch.delenv(sanit.ENV_SANITIZE, raising=False)
        sanit.set_level("full")
        assert sanit.sync_from_env(default="off") == "off"


# ----------------------------------------------------------------------
# InvariantViolation and the violation() recorder
# ----------------------------------------------------------------------
class TestViolation:
    def test_message_shape_and_attributes(self):
        exc = sanit.InvariantViolation("pcm.startgap", "mapping lost bijectivity",
                                       "lines 1 and 2 collide")
        assert str(exc) == "[pcm.startgap] mapping lost bijectivity: lines 1 and 2 collide"
        assert exc.subsystem == "pcm.startgap"
        assert exc.invariant == "mapping lost bijectivity"
        assert exc.to_json_dict() == {
            "subsystem": "pcm.startgap",
            "invariant": "mapping lost bijectivity",
            "detail": "lines 1 and 2 collide",
        }

    def test_message_without_detail(self):
        exc = sanit.InvariantViolation("dram.bank", "open-row out of range")
        assert str(exc) == "[dram.bank] open-row out of range"

    def test_violation_raises_and_counts(self):
        with telem.observing(metrics=MetricsRegistry()):
            with pytest.raises(sanit.InvariantViolation):
                sanit.violation("pcm.startgap", "gap slot occupied", "line 3")
            counter = telem.counter("sanitizer_violations_total",
                                    subsystem="pcm.startgap")
            assert counter.value == 1


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_invariant_classes_registered(self):
        entries = sanit.registered()
        assert set(entries) == EXPECTED_SUBSYSTEMS
        for key, entry in entries.items():
            assert entry.subsystem == key
            assert entry.description

    def test_unregistered_subsystem_is_noop(self):
        sanit.set_level("full")
        sanit.check("no.such.subsystem", object())

    def test_note_is_noop_below_full(self):
        sanit.set_level("cheap")
        # Would raise AttributeError on a bare object if the hook ran.
        sanit.note("dram.bank", object(), row=0)


# ----------------------------------------------------------------------
# dram.bank
# ----------------------------------------------------------------------
class TestDramBankChecker:
    def test_clean_traffic_passes_full(self):
        sanit.set_level("full")
        bank = make_bank()
        data = np.zeros(GEO.row_bits, dtype=np.uint8)
        data[::5] = 1
        bank.write(10, data)
        bank.activate(10)
        bank.read(10)
        sanit.check("dram.bank", bank, row=10, force=True)

    def test_out_of_band_flip_detected(self):
        sanit.set_level("full")
        bank = make_bank()
        bank.write(10, np.ones(GEO.row_bits, dtype=np.uint8))
        bank.stored_bits(10)[0] ^= 1  # raw poke, bypassing the write path
        with pytest.raises(sanit.InvariantViolation) as info:
            sanit.check("dram.bank", bank, row=10)
        assert info.value.subsystem == "dram.bank"
        assert info.value.invariant == "stored-data digest mismatch"

    def test_modeled_flips_are_legitimate(self):
        sanit.set_level("full")
        bank = make_bank()
        bank.row_bits(4)
        bank.row_bits(6)
        bank.bulk_activate(5, 50_000)
        flipped = bank.settle()
        assert flipped > 0  # hammer far past hc_first_min must flip
        sanit.check("dram.bank", bank, force=True)

    def test_disabled_level_skips_detection(self, monkeypatch):
        monkeypatch.delenv(sanit.ENV_SANITIZE, raising=False)
        sanit.set_level("off")
        bank = make_bank()
        bank.write(10, np.ones(GEO.row_bits, dtype=np.uint8))
        bank.stored_bits(10)[0] ^= 1
        bank.activate(10)  # instrumented site: guard must stay cold

    def test_open_row_bound_is_cheap(self):
        sanit.set_level("cheap")
        bank = make_bank()
        bank.open_row = 999
        with pytest.raises(sanit.InvariantViolation, match="open-row out of range"):
            sanit.check("dram.bank", bank)

    def test_negative_charge_is_cheap(self):
        sanit.set_level("cheap")
        bank = make_bank()
        bank._cs.pressure[3] = -1.0  # corrupt the pressure column
        bank._cs.touch(3)
        with pytest.raises(sanit.InvariantViolation, match="negative disturbance charge"):
            sanit.check("dram.bank", bank, row=3)


# ----------------------------------------------------------------------
# dram.refresh
# ----------------------------------------------------------------------
class TestRefreshChecker:
    def test_fresh_engine_passes_full(self):
        sanit.set_level("full")
        engine = RefreshEngine(make_module())
        engine.tick(engine.interval_ns * 3)
        sanit.check("dram.refresh", engine)

    def test_cursor_skew_detected(self):
        sanit.set_level("cheap")
        engine = RefreshEngine(make_module())
        engine._cursor = GEO.rows + 13
        with pytest.raises(sanit.InvariantViolation) as info:
            sanit.check("dram.refresh", engine)
        assert info.value.subsystem == "dram.refresh"
        assert info.value.invariant == "refresh cursor out of range"

    def test_lost_deadline_detected(self):
        sanit.set_level("cheap")
        engine = RefreshEngine(make_module())
        engine.next_ref_ns = float("nan")
        with pytest.raises(sanit.InvariantViolation, match="refresh deadline lost"):
            sanit.check("dram.refresh", engine)

    def test_accounting_coherence_is_full_only(self):
        engine = RefreshEngine(make_module())
        engine.stats.rows_refreshed = 10**9  # impossible vs 0 REF commands
        sanit.set_level("cheap")
        sanit.check("dram.refresh", engine)  # cheap does not scan stats
        sanit.set_level("full")
        with pytest.raises(sanit.InvariantViolation, match="refresh accounting incoherent"):
            sanit.check("dram.refresh", engine)


# ----------------------------------------------------------------------
# ecc.codec
# ----------------------------------------------------------------------
class TestEccChecker:
    def test_healthy_codec_passes_full(self):
        sanit.set_level("full")
        sanit.check("ecc.codec", HammingSecded(16))

    def test_aliased_layout_detected(self):
        sanit.set_level("full")
        code = HammingSecded(16)
        code._data_positions[-1] = code._data_positions[0]
        with pytest.raises(sanit.InvariantViolation) as info:
            sanit.check("ecc.codec", code)
        assert info.value.subsystem == "ecc.codec"


# ----------------------------------------------------------------------
# pcm.startgap
# ----------------------------------------------------------------------
class TestStartGapChecker:
    def test_churned_startgap_passes_full(self):
        sanit.set_level("full")
        sg = StartGap(PcmArray(lines=9, seed=3), gap_period=4)
        for i in range(40):
            sg.write(i % sg.n_logical)
        sanit.check("pcm.startgap", sg)

    def test_aliased_mapping_detected(self):
        sanit.set_level("full")
        sg = StartGap(PcmArray(lines=9, seed=3), gap_period=4)
        sg._mapping[1] = sg._mapping[0]
        with pytest.raises(sanit.InvariantViolation) as info:
            sanit.check("pcm.startgap", sg)
        assert info.value.subsystem == "pcm.startgap"
        assert info.value.invariant == "mapping lost bijectivity"

    def test_gap_bound_is_cheap(self):
        sanit.set_level("cheap")
        sg = StartGap(PcmArray(lines=9, seed=3), gap_period=4)
        sg._gap = sg.n_logical + 5
        with pytest.raises(sanit.InvariantViolation, match="gap slot out of range"):
            sanit.check("pcm.startgap", sg)


# ----------------------------------------------------------------------
# Runner classification
# ----------------------------------------------------------------------
def result_with_error(error):
    return ExperimentResult(name="x", payload=None, seed=1, error=error)


class TestRunnerClassification:
    def test_outcome_classes(self):
        assert result_with_error(None).outcome == "ok"
        assert result_with_error("JobTimeout: 5s").outcome == "timeout"
        assert result_with_error(
            "InvariantViolation: [dram.bank] stored-data digest mismatch: row=3"
        ).outcome == "invariant"
        assert result_with_error("ValueError: nope").outcome == "error"

    def test_violation_subsystem_parsing(self):
        assert violation_subsystem(
            "InvariantViolation: [pcm.startgap] mapping lost bijectivity: x"
        ) == "pcm.startgap"
        assert violation_subsystem("InvariantViolation: malformed") == "unknown"
        assert violation_subsystem(None) == "unknown"
