"""OS-level structures: page tables in DRAM and the concrete exploit chain."""

from repro.os.exploit import ExploitOutcome, KernelExploitSimulation
from repro.os.pagetable import (
    PFN_SHIFT,
    PFN_WIDTH,
    PTE_BITS,
    Pte,
    encode_pte_page,
    encode_ptes,
    pte_diff,
    pte_words,
)

__all__ = [
    "ExploitOutcome",
    "KernelExploitSimulation",
    "PFN_SHIFT",
    "PFN_WIDTH",
    "PTE_BITS",
    "Pte",
    "encode_pte_page",
    "encode_ptes",
    "pte_diff",
    "pte_words",
]
