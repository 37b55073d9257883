"""RowHammer mitigations: PARA, CRA, ANVIL, TRR, refresh scaling, retirement, ECC."""

from repro.mitigations.anvil import AnvilMitigation
from repro.mitigations.cra import CounterBasedMitigation, storage_overhead_table
from repro.mitigations.ecc_eval import (
    EccLadderEntry,
    evaluate_ladder,
    flip_histogram_from_hammer,
    multi_flip_word_fraction,
)
from repro.mitigations.para import (
    Para,
    failures_per_year,
    log10_failures_per_year,
    log10_survival_probability,
    performance_overhead_fraction,
    recommended_p,
    simulate_attempt_survival,
    survival_probability,
)
from repro.mitigations.refresh_scaling import (
    RefreshCost,
    attack_budget,
    multiplier_to_eliminate,
    refresh_cost,
)
from repro.mitigations.retire import RetirementResult, residual_flips, retire_vulnerable_rows
from repro.mitigations.trr import TrrMitigation

__all__ = [
    "AnvilMitigation",
    "CounterBasedMitigation",
    "storage_overhead_table",
    "EccLadderEntry",
    "evaluate_ladder",
    "flip_histogram_from_hammer",
    "multi_flip_word_fraction",
    "Para",
    "failures_per_year",
    "log10_failures_per_year",
    "log10_survival_probability",
    "performance_overhead_fraction",
    "recommended_p",
    "simulate_attempt_survival",
    "survival_probability",
    "RefreshCost",
    "attack_budget",
    "multiplier_to_eliminate",
    "refresh_cost",
    "RetirementResult",
    "residual_flips",
    "retire_vulnerable_rows",
    "TrrMitigation",
]
