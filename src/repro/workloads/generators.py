"""Access-stream generators: benign workloads and attacker loops.

Benign streams price mitigations (what does PARA/refresh-scaling cost
a normal program?); attacker streams drive the security experiments.
A :data:`Trace` is a list of ``(bank, row, is_write)`` tuples, the
type :meth:`~repro.controller.controller.MemoryController.run_trace`
takes.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive

Trace = List[Tuple[int, int, bool]]


def random_access(n: int, banks: int, rows: int, seed: int = 0) -> Trace:
    """Uniformly random (bank, row) requests — row-buffer hostile."""
    check_positive("n", n)
    rng = derive_rng(seed, "random-access")
    bank_picks = rng.integers(0, banks, size=n)
    row_picks = rng.integers(0, rows, size=n)
    writes = rng.random(n) < 0.3
    return [(int(b), int(r), bool(w)) for b, r, w in zip(bank_picks, row_picks, writes)]


def mixed_with_attacker(
    benign: Trace, bank: int, aggressors, attacker_share: float = 0.5, seed: int = 0
) -> Trace:
    """Interleave a benign trace with an attacker loop (ANVIL's detection
    scenario: spotting the hammer inside normal traffic)."""
    rng = derive_rng(seed, "mixed")
    trace: Trace = []
    agg_idx = 0
    for access in benign:
        trace.append(access)
        while rng.random() < attacker_share:
            trace.append((bank, aggressors[agg_idx % len(aggressors)], False))
            agg_idx += 1
    return trace
