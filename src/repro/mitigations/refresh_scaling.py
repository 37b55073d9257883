"""Refresh-rate scaling: the deployed immediate mitigation.

System vendors responded to RowHammer with BIOS patches that raise the
DRAM refresh rate.  Raising the rate by ``k`` shrinks the refresh
window to ``tREFW / k`` and with it the attacker's per-window
activation budget; once the budget drops below the module's weakest
``hc_first`` threshold, *no* error is inducible.  The paper reports
that eliminating every error seen across the 129 tested modules takes
roughly a **7x** increase — and stresses the energy/performance price.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.timing import TimingParams
from repro.telemetry import physics as phys
from repro.utils.validation import check_positive


def attack_budget(timing: TimingParams, multiplier: float = 1.0) -> int:
    """Max single-aggressor-pair activations inside one (scaled) window."""
    check_positive("multiplier", multiplier)
    return int(timing.tREFW / multiplier / timing.tRC)


def multiplier_to_eliminate(hc_min: float, timing: TimingParams) -> float:
    """Smallest refresh multiplier that denies ``hc_min`` activations.

    The attacker needs ``hc_min`` activations before the victim's next
    refresh; the window must shrink below ``hc_min * tRC``.
    """
    check_positive("hc_min", hc_min)
    return timing.tREFW / (timing.tRC * hc_min)


@dataclass(frozen=True)
class RefreshCost:
    """Overheads of running refresh at a given multiplier.

    Attributes:
        multiplier: the refresh-rate multiplier.
        bandwidth_overhead: fraction of time the rank is blocked by REF.
        refresh_energy_factor: refresh energy relative to 1x.
        budget: residual attacker activation budget per window.
    """

    multiplier: float
    bandwidth_overhead: float
    refresh_energy_factor: float
    budget: int


def refresh_cost(timing: TimingParams, multiplier: float) -> RefreshCost:
    """Compute the cost/protection point at ``multiplier``."""
    check_positive("multiplier", multiplier)
    cost = RefreshCost(
        multiplier=multiplier,
        bandwidth_overhead=timing.tRFC / (timing.tREFI / multiplier),
        refresh_energy_factor=multiplier,
        budget=attack_budget(timing, multiplier),
    )
    if phys.physics_on:
        phys.get_collector().audit(
            "refresh_scaling", "epoch", multiplier=cost.multiplier,
            bandwidth_overhead=cost.bandwidth_overhead,
            budget=cost.budget)
    return cost
