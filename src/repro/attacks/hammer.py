"""Hammering access patterns: single-, double-, and many-sided.

Two execution paths are provided, mirroring the two fidelity levels of
the simulator:

* the **device path** (:func:`hammer_device`) drives the bank's exact
  bulk accounting — used for large campaigns (field study, ECC
  histograms);
* the **controller path**
  (:meth:`~repro.controller.controller.MemoryController.run_activation_pattern`)
  runs the pattern through the full command pipeline — timing,
  auto-refresh, energy accounting, and any installed mitigation — used
  for mitigation effectiveness experiments.  The controller issues each
  stretch between refresh deadlines and mitigation actions as one bank
  run, with the same result as issuing every activation on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.dram.module import DramModule
from repro.dram.stream import CommandStream
from repro.utils.validation import check_positive


@dataclass
class HammerResult:
    """Outcome of one hammer session.

    Attributes:
        aggressors: physical rows hammered.
        activations_per_aggressor: bulk count applied to each.
        flips: (physical row, bit) pairs that flipped.
    """

    aggressors: Tuple[int, ...]
    activations_per_aggressor: int
    flips: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def flip_count(self) -> int:
        return len(self.flips)

    def victim_rows(self) -> List[int]:
        """Distinct rows containing flips."""
        return sorted({row for row, _bit in self.flips})


def hammer_device(
    module: DramModule, bank: int, aggressors: Sequence[int], count: int
) -> HammerResult:
    """Hammer each of ``aggressors`` ``count`` times, then settle (device
    fast path).  One row is single-sided hammering, a victim's
    :func:`neighbors` double-sided, any larger set TRRespass-style
    many-sided."""
    check_positive("count", count)
    aggressors = tuple(aggressors)
    stream = CommandStream()
    for aggressor in aggressors:
        stream.act(aggressor, count)
    dev = module.bank(bank)
    before = len(dev.stats.flip_log)
    dev.execute(stream.settle())
    return HammerResult(
        aggressors=aggressors,
        activations_per_aggressor=count,
        flips=[(row, bit) for row, bit, *_prov in dev.stats.flip_log[before:]],
    )


def neighbors(module: DramModule, victim: int) -> Tuple[int, ...]:
    """The double-sided aggressors of ``victim``: its in-range neighbors."""
    module.geometry.check_row(victim)
    return tuple(r for r in (victim - 1, victim + 1) if 0 <= r < module.geometry.rows)


def per_bank_budget_multibank(timing, n_banks: int, refresh_multiplier: float = 1.0) -> int:
    """Per-bank activation budget when hammering ``n_banks`` in parallel.

    A single-bank attacker is tRC-bound; a multi-bank attacker shares
    the rank's tRRD/tFAW activation rate across banks.  Total rank
    throughput rises with bank count until the rank limit saturates
    (at ``tRC * rank_rate`` banks), after which per-bank pressure falls
    — the engineering constraint behind multi-bank hammering.
    """
    check_positive("n_banks", n_banks)
    check_positive("refresh_multiplier", refresh_multiplier)
    per_bank_rate = min(1.0 / timing.tRC, timing.rank_activation_rate_per_ns / n_banks)
    return int(per_bank_rate * timing.tREFW / refresh_multiplier)


def multibank_attack_scaling(module_factory, bank_counts=(1, 2, 4, 8)) -> list:
    """Total victim flips vs simultaneously hammered banks.

    ``module_factory()`` must return a fresh module per configuration.
    Each hammered bank gets one double-sided victim at its per-bank
    budget (device path).  Shows throughput scaling and its tFAW
    saturation point.
    """
    out = []
    for n_banks in bank_counts:
        module = module_factory()
        budget = per_bank_budget_multibank(module.timing, n_banks)
        total = 0
        for bank in range(min(n_banks, module.geometry.banks)):
            result = hammer_device(module, bank, neighbors(module, 1000), budget // 2)
            total += sum(1 for row, _bit in result.flips if row == 1000)
        out.append(
            {
                "banks": n_banks,
                "per_bank_budget": budget,
                "victim_flips_total": total,
            }
        )
    return out

