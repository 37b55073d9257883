"""WARM: Write-hotness Aware Retention Management (Luo+, MSST 2015).

Cited by the paper ([71]) among the flash retention solutions: pages
that are rewritten frequently (*hot* data) never need to survive long
retention periods, so they can be managed without retention
guardbanding — and without refresh — while only *cold* data pays for
retention (via FCR refresh).  The split relaxes the effective
retention requirement of most written bytes and cuts refresh-copy wear
to the cold fraction only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.flash.params import FlashParams
from repro.flash.ssd import lifetime_pe_cycles
from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class WarmOutcome:
    """Lifetime of one management policy.

    Attributes:
        policy: label.
        hot_lifetime_pe: sustainable wear for the hot partition.
        cold_lifetime_pe: sustainable wear for the cold partition.
        refresh_wear_fraction: fraction of write traffic added by
            refresh copies.
        device_lifetime_pe: the weaker partition's lifetime, which
            the device lasts.
    """

    policy: str
    hot_lifetime_pe: int
    cold_lifetime_pe: int
    refresh_wear_fraction: float
    device_lifetime_pe: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "device_lifetime_pe", min(self.hot_lifetime_pe, self.cold_lifetime_pe))


def warm_study(
    hot_write_fraction: float = 0.8,
    hot_rewrite_days: float = 1.0,
    retention_requirement_days: float = 365.0,
    fcr_interval_days: float = 21.0,
    params: FlashParams = FlashParams(),
    ecc_correctable_per_page: int = 40,
    seed: int = 0,
    **lifetime_kwargs,
) -> dict:
    """Compare baseline / FCR / WARM / WARM+FCR lifetimes.

    Args:
        hot_write_fraction: fraction of write traffic touching hot data.
        hot_rewrite_days: how often hot data is naturally rewritten —
            its effective retention requirement.
        retention_requirement_days: the nominal (cold-data) guarantee.
        fcr_interval_days: FCR refresh period where FCR applies.
    """
    check_probability("hot_write_fraction", hot_write_fraction)
    check_positive("hot_rewrite_days", hot_rewrite_days)
    check_positive("retention_requirement_days", retention_requirement_days)

    def lifetime(days: float) -> int:
        return lifetime_pe_cycles(
            retention_requirement_days=days,
            params=params,
            ecc_correctable_per_page=ecc_correctable_per_page,
            seed=seed,
            **lifetime_kwargs,
        )

    lt_full = lifetime(retention_requirement_days)
    lt_fcr = lifetime(min(retention_requirement_days, fcr_interval_days))
    lt_hot = lifetime(hot_rewrite_days)
    cold_fraction = 1.0 - hot_write_fraction

    outcomes = {
        "baseline": WarmOutcome(
            policy="baseline",
            hot_lifetime_pe=lt_full,
            cold_lifetime_pe=lt_full,
            refresh_wear_fraction=0.0,
        ),
        # FCR refreshes everything: all data relaxed to the interval, but
        # every page pays refresh-copy wear.
        "fcr": WarmOutcome(
            policy="fcr",
            hot_lifetime_pe=lt_fcr,
            cold_lifetime_pe=lt_fcr,
            refresh_wear_fraction=1.0,
        ),
        # WARM alone: hot data relaxed by its rewrite cadence; cold data
        # still needs the full guarantee (no refresh).
        "warm": WarmOutcome(
            policy="warm",
            hot_lifetime_pe=lt_hot,
            cold_lifetime_pe=lt_full,
            refresh_wear_fraction=0.0,
        ),
        # WARM + FCR: hot data refresh-free, cold data refreshed.
        "warm+fcr": WarmOutcome(
            policy="warm+fcr",
            hot_lifetime_pe=lt_hot,
            cold_lifetime_pe=lt_fcr,
            refresh_wear_fraction=cold_fraction,
        ),
    }
    return outcomes
