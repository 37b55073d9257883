"""§III-A2/§III-B NAND flash experiments: error-mix breakdown, FCR,
WARM, read-reference tuning, offline recovery (RFR/read-disturb/NAC),
and the two-step programming vulnerability."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.registry import experiment
from repro.flash.block import FlashBlock
from repro.flash.mitigations.fcr import fcr_sweep, lifetime_multiplier
from repro.flash.mitigations.nac import correct_wordline
from repro.flash.mitigations.rfr import read_disturb_recovery, recover_wordline
from repro.flash.mitigations.warm import WarmOutcome, warm_study
from repro.flash.params import MLC_1XNM
from repro.flash.ssd import error_breakdown, program_block_shadow
from repro.flash.twostep import exposure_experiment, lifetime_gain_fraction


# ----------------------------------------------------------------------
# C9: flash error breakdown + FCR
# ----------------------------------------------------------------------
@experiment(
    "flash_error_sweep",
    claim="Error mix vs wear: retention comes to dominate at high P/E counts",
    section="III-A2",
    tags=("flash", "errors"),
    aliases=("c9",),
)
def flash_error_sweep(
    pe_grid: Sequence[int] = (0, 3000, 8000, 15000, 25000),
    retention_days: float = 365.0,
    reads: int = 20_000,
    seed: int = 0,
) -> List[Dict]:
    """Error mix vs wear: retention comes to dominate."""
    rows = []
    for pe in pe_grid:
        breakdown = error_breakdown(pe, retention_days, reads, wordlines=8, cells=2048, seed=seed)
        rows.append(
            {
                "pe_cycles": pe,
                "wear_and_interference": breakdown.wear_and_interference,
                "retention": breakdown.retention,
                "read_disturb": breakdown.read_disturb,
                "dominant": breakdown.dominant(),
            }
        )
    return rows


@experiment(
    "fcr_study",
    claim="Flash Correct-and-Refresh: periodic remapping multiplies lifetime",
    section="III-B",
    tags=("flash", "mitigations", "fcr"),
    aliases=("c9-fcr",),
)
def fcr_study(seed: int = 0) -> Dict:
    """FCR lifetime sweep and its headline multiplier."""
    points = fcr_sweep(seed=seed, wordlines=4, cells=2048)
    return {
        "points": points,
        "lifetime_multiplier": lifetime_multiplier(points),
    }


@experiment(
    "warm_retention_study",
    claim="WARM: hot data needs no refresh, so WARM+FCR keeps FCR's lifetime at a fraction of its refresh wear",
    section="III-A2",
    tags=("flash", "mitigations", "warm"),
    aliases=("x2",),
)
def warm_retention_study(seed: int = 0) -> Dict[str, WarmOutcome]:
    """Baseline / FCR / WARM / WARM+FCR lifetimes ([71]): hot data
    (80 % of writes) is rewritten before it needs long retention, so
    only cold data pays for refresh."""
    return warm_study(seed=seed, wordlines=4, cells=1024, tolerance=1000)


@experiment(
    "vref_tuning_study",
    claim="Re-centering read references removes most retention errors (read-retry)",
    section="III-B",
    tags=("flash", "mitigations", "vref"),
    aliases=("vref",),
)
def vref_tuning_study(
    pe_cycles: int = 15_000,
    retention_days: float = 365.0,
    seed: int = 0,
) -> Dict:
    """Read-reference tuning: the SSD controller's first-line fix.

    §II-D's "intelligent controller" point in its most deployed form:
    after retention shifts the Vth distributions, re-centering the read
    references in the (moved) valleys removes most retention errors
    without any stronger ECC.  Real controllers do this via read-retry.
    """
    from repro.flash.vth import optimal_read_refs, state_from_bits

    block = FlashBlock(wordlines=8, cells=2048, seed=seed)
    block.set_pe_cycles(pe_cycles)
    program_block_shadow(block, seed=seed)
    block.age_retention(retention_days)
    factory_errors = sum(
        block.page_errors(wl, which)
        for wl in block.programmed_wordlines()
        for which in ("lsb", "msb")
    )
    # Tune on one wordline's known data (a controller uses a pilot page),
    # then apply the tuned references everywhere.
    pilot = 3
    states = state_from_bits(block.wl_state[pilot].true_lsb, block.wl_state[pilot].true_msb)
    tuned = optimal_read_refs(block.vth[pilot], states, block.params)
    tuned_errors = sum(
        block.page_errors(wl, which, read_refs=tuned)
        for wl in block.programmed_wordlines()
        for which in ("lsb", "msb")
    )
    return {
        "factory_errors": factory_errors,
        "tuned_errors": tuned_errors,
        "factory_refs": tuple(block.params.read_refs),
        "tuned_refs": tuned,
        "reduction_fraction": 1.0 - tuned_errors / max(factory_errors, 1),
    }


# ----------------------------------------------------------------------
# C10/C11: RFR, read-disturb recovery, NAC
# ----------------------------------------------------------------------
@experiment(
    "recovery_study",
    claim="Offline recovery: RFR, read-disturb recovery, and NAC all cut errors",
    section="III-B",
    tags=("flash", "mitigations", "recovery"),
    aliases=("c10-c11",),
)
def recovery_study(seed: int = 0) -> Dict:
    """Offline recovery mechanisms: RFR, read-disturb recovery, NAC."""
    block = FlashBlock(wordlines=8, cells=2048, seed=seed)
    block.set_pe_cycles(12_000)
    program_block_shadow(block, seed=seed)
    block.age_retention(365.0)
    rfr = recover_wordline(block, 3, seed=seed)

    block_rd = FlashBlock(wordlines=8, cells=2048, seed=seed + 1)
    block_rd.set_pe_cycles(8_000)
    program_block_shadow(block_rd, seed=seed + 1)
    block_rd.apply_read_disturb(150_000)
    rdr = read_disturb_recovery(block_rd, 3, seed=seed + 1)

    block_nac = FlashBlock(wordlines=8, cells=4096, params=MLC_1XNM, seed=seed + 2)
    block_nac.set_pe_cycles(15_000)
    program_block_shadow(block_nac, seed=seed + 2)
    nac = correct_wordline(block_nac, 3, seed=seed + 2)
    return {"rfr": rfr, "read_disturb_recovery": rdr, "nac": nac}


# ----------------------------------------------------------------------
# C12: two-step programming
# ----------------------------------------------------------------------
@experiment(
    "twostep_study",
    claim="The two-step programming exposure window corrupts partially-programmed LSBs",
    section="III-A2",
    tags=("flash", "twostep", "vulnerability"),
    aliases=("c12",),
)
def twostep_study(pe_cycles: int = 8000, seed: int = 0) -> Dict:
    """Exposure-window corruption and the buffering mitigation."""
    result = exposure_experiment(pe_cycles=pe_cycles, seed=seed)
    return {
        "exposed_errors": result.exposed_errors,
        "mitigated_errors": result.mitigated_errors,
        "control_errors": result.control_errors,
    }


@experiment(
    "twostep_lifetime_study",
    claim="Hardening two-step programming buys ~16% lifetime (paper figure)",
    section="III-A2",
    tags=("flash", "twostep", "lifetime"),
    aliases=("c12-lifetime",),
)
def twostep_lifetime_study(seed: int = 0, error_budget: int = 160) -> Dict:
    """Lifetime gain from hardening two-step programming (paper: ~16%)."""
    gain = lifetime_gain_fraction(error_budget=error_budget, seed=seed)
    return {"lifetime_gain_fraction": gain}
