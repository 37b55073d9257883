"""RowHammer attack patterns, invariant checkers, and exploitation models."""

from repro.attacks.hammer import (
    HammerResult,
    hammer_device,
    multibank_attack_scaling,
    neighbors,
    per_bank_budget_multibank,
)
from repro.attacks.invariants import IsolationReport, check_read_isolation, check_write_isolation
from repro.attacks.privilege import (
    PFN_BIT_RANGE,
    FlipTemplate,
    FlipTemplates,
    drammer_success_probability,
    flip_feng_shui_templates,
    javascript_success_probability,
    pte_spray_success_probability,
    scan_templates,
)

__all__ = [
    "HammerResult",
    "hammer_device",
    "multibank_attack_scaling",
    "neighbors",
    "per_bank_budget_multibank",
    "IsolationReport",
    "check_read_isolation",
    "check_write_isolation",
    "PFN_BIT_RANGE",
    "FlipTemplate",
    "FlipTemplates",
    "drammer_success_probability",
    "flip_feng_shui_templates",
    "javascript_success_probability",
    "pte_spray_success_probability",
    "scan_templates",
]
