"""Negative tests: every invariant class detects its paired corruption.

The sanitizer's value proposition is falsifiable: for each registered
invariant class there is a chaos state-corruption injector
(:mod:`repro.chaos.state`) that applies the smallest mutation breaking
that class's invariant, and an armed ``corrupt:sub=<subsystem>`` entry
must turn a legitimate model operation into an
:class:`~repro.sanitizer.runtime.InvariantViolation` attributed to that
subsystem.  These tests drive *real* model operations (not direct
checker calls), so the instrumented sites themselves are under test.
"""

import numpy as np
import pytest

from repro import chaos
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
from repro.ecc.accounting import evaluate_code_against_histogram
from repro.experiments.runner import execute_job_safe
from repro.pcm import PcmArray, StartGap
from repro.sanitizer import runtime as sanit

GEO = DramGeometry(banks=2, rows=128, row_bytes=256)
PROFILE = VulnerabilityProfile(
    weak_cell_density=0.02,
    hc_first_median=5_000,
    hc_first_min=1_000,
    hc_first_sigma=0.4,
    distance2_weight=0.0,
)


@pytest.fixture(autouse=True)
def _clean_chaos(monkeypatch):
    monkeypatch.delenv(chaos.ENV_CHAOS, raising=False)
    monkeypatch.delenv(chaos.ENV_CHAOS_STATE, raising=False)
    chaos.reset()
    prev = sanit.current_level()
    yield
    chaos.reset()
    sanit.set_level(prev)


def _arm(monkeypatch, subsystem):
    monkeypatch.setenv(chaos.ENV_CHAOS, f"corrupt:sub={subsystem}")
    chaos.reset()


# ----------------------------------------------------------------------
# Drivers: build clean state, return a legitimate model operation that
# passes through an instrumented check site for the subsystem.
# ----------------------------------------------------------------------
def _drive_dram_bank():
    bank = ColumnarDramBank(GEO, DisturbanceModel(GEO, PROFILE, 3), 0)
    bank.write(10, np.ones(GEO.row_bits, dtype=np.uint8))

    def op():
        bank.activate(10)
        bank.settle()  # the commit checks each row the run activates

    return op


def _drive_dram_refresh():
    engine = RefreshEngine(
        DramModule(geometry=GEO, timing=DDR3_1333, profile=PROFILE, seed=2)
    )
    return lambda: engine.tick(engine.interval_ns * 2)


def _drive_ecc_codec():
    code = HammingSecded(16)
    rng = np.random.default_rng(7)
    return lambda: evaluate_code_against_histogram(
        code, {1: 4}, rng, trials_per_class=4
    )


def _drive_pcm_startgap():
    sg = StartGap(PcmArray(lines=9, seed=3), gap_period=4)
    for i in range(8):
        sg.write(i % sg.n_logical)
    return lambda: sg.write(0)


DRIVERS = {
    "dram.bank": _drive_dram_bank,
    "dram.refresh": _drive_dram_refresh,
    "ecc.codec": _drive_ecc_codec,
    "pcm.startgap": _drive_pcm_startgap,
}


def test_pairing_is_complete():
    """Every invariant class has an injector, and vice versa — and the
    drivers above cover all of them."""
    assert set(chaos.INJECTORS) == set(sanit.registered())
    assert set(DRIVERS) == set(chaos.INJECTORS)


@pytest.mark.parametrize("subsystem", sorted(DRIVERS))
def test_injected_corruption_is_detected_and_attributed(subsystem, monkeypatch):
    sanit.set_level("full")
    op = DRIVERS[subsystem]()  # built before arming: setup stays clean
    _arm(monkeypatch, subsystem)
    with pytest.raises(sanit.InvariantViolation) as info:
        op()
    assert info.value.subsystem == subsystem
    assert str(info.value).startswith(f"[{subsystem}]")
    assert chaos.injected_counts() == {"corrupt": 1}


@pytest.mark.parametrize("subsystem", sorted(DRIVERS))
def test_corruption_fires_once(subsystem, monkeypatch):
    sanit.set_level("full")
    op = DRIVERS[subsystem]()
    _arm(monkeypatch, subsystem)
    with pytest.raises(sanit.InvariantViolation):
        op()
    # The once-by-default claim is consumed: a fresh object sails through.
    DRIVERS[subsystem]()()


def test_ineligible_sites_do_not_burn_the_claim(monkeypatch):
    """Eligibility (``can_apply``) is checked before the fault is
    claimed, so check sites on objects with nothing to corrupt leave
    the armed fault intact."""
    sanit.set_level("full")
    _arm(monkeypatch, "dram.bank")
    bank = ColumnarDramBank(GEO, DisturbanceModel(GEO, PROFILE, 3), 0)
    sanit.check("dram.bank", bank)  # no touched rows: ineligible
    bank.activate(10)
    bank.settle()  # the commit checks row 10 before any row is touched
    assert bank.touched_rows()
    assert chaos.injected_counts() == {}
    with pytest.raises(sanit.InvariantViolation):
        bank.activate(10)
        bank.settle()
    assert chaos.injected_counts() == {"corrupt": 1}


def test_corrupt_entry_requires_subsystem(monkeypatch):
    monkeypatch.setenv(chaos.ENV_CHAOS, "corrupt")
    chaos.reset()
    with pytest.raises(ValueError, match="needs a sub="):
        chaos.current_plan()


def test_runner_surfaces_violation_outcome(monkeypatch):
    """End to end through the serial runner path: an injected corruption
    becomes a structured, non-retryable ``invariant`` outcome."""
    monkeypatch.setenv(sanit.ENV_SANITIZE, "full")
    _arm(monkeypatch, "dram.bank")
    result = execute_job_safe("sidedness_ablation", seed=1)
    assert result.outcome == "invariant"
    assert result.error.startswith("InvariantViolation: [dram.bank]")
    assert chaos.injected_counts() == {"corrupt": 1}
