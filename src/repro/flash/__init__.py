"""NAND flash substrate: MLC Vth model, error mechanisms, mitigations."""

from repro.flash.block import FlashBlock, WordlineState
from repro.flash.params import LSB_OF_STATE, MLC_1XNM, MLC_2XNM, MSB_OF_STATE, STATE_NAMES, FlashParams
from repro.flash.ssd import (
    ErrorBreakdown,
    Ssd,
    error_breakdown,
    lifetime_pe_cycles,
    program_block_shadow,
)
from repro.flash.twostep import (
    TwoStepResult,
    exposure_experiment,
    lifetime_gain_fraction,
    lifetime_with_exposure,
)
from repro.flash.vth import (
    bits_of_states,
    classify,
    optimal_read_refs,
    read_lsb,
    read_lsb_partial,
    read_msb,
    state_from_bits,
)

__all__ = [
    "FlashBlock",
    "WordlineState",
    "LSB_OF_STATE",
    "MLC_1XNM",
    "MLC_2XNM",
    "MSB_OF_STATE",
    "STATE_NAMES",
    "FlashParams",
    "ErrorBreakdown",
    "Ssd",
    "error_breakdown",
    "lifetime_pe_cycles",
    "program_block_shadow",
    "TwoStepResult",
    "exposure_experiment",
    "lifetime_gain_fraction",
    "lifetime_with_exposure",
    "bits_of_states",
    "classify",
    "optimal_read_refs",
    "read_lsb",
    "read_lsb_partial",
    "read_msb",
    "state_from_bits",
]
