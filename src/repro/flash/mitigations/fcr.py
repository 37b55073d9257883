"""Flash Correct-and-Refresh (Cai+, ICCD 2012; §III-A2).

FCR periodically relocates (or reprograms in place) each block's data,
resetting its retention clock.  The retention requirement a block must
survive thus drops from the nominal guarantee (e.g. one year) to the
refresh interval (e.g. three days) — which, because retention errors
dominate at high wear, buys a large lifetime multiplier at the cost of
extra P/E cycles for the refresh copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.flash.params import FlashParams
from repro.flash.ssd import lifetime_pe_cycles
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class FcrPoint:
    """Lifetime at one refresh setting.

    Attributes:
        refresh_interval_days: FCR period (None = no refresh).
        raw_lifetime_pe: P/E cycles sustainable against the effective
            retention requirement.
        refresh_wear_per_year: P/E cycles consumed per year by the
            refresh copies themselves.
    """

    refresh_interval_days: Optional[float]
    raw_lifetime_pe: int
    refresh_wear_per_year: float


def fcr_sweep(
    retention_requirement_days: float = 365.0,
    refresh_intervals_days: Sequence[Optional[float]] = (None, 84.0, 21.0, 3.0),
    params: FlashParams = FlashParams(),
    ecc_correctable_per_page: int = 40,
    seed: int = 0,
    **lifetime_kwargs,
) -> List[FcrPoint]:
    """Lifetime versus refresh interval (the FCR headline curve).

    With no refresh, pages must survive the full retention requirement;
    with FCR at interval r, only r days — so sustainable wear rises
    steeply as r shrinks.
    """
    check_positive("retention_requirement_days", retention_requirement_days)
    points = []
    for interval in refresh_intervals_days:
        effective_days = retention_requirement_days if interval is None else min(
            retention_requirement_days, interval
        )
        lifetime = lifetime_pe_cycles(
            retention_requirement_days=effective_days,
            params=params,
            ecc_correctable_per_page=ecc_correctable_per_page,
            seed=seed,
            **lifetime_kwargs,
        )
        wear_per_year = 0.0 if interval is None else 365.0 / interval
        points.append(
            FcrPoint(
                refresh_interval_days=interval,
                raw_lifetime_pe=lifetime,
                refresh_wear_per_year=wear_per_year,
            )
        )
    return points


def lifetime_multiplier(points: Sequence[FcrPoint]) -> Optional[float]:
    """Best refreshed lifetime over the unrefreshed baseline.

    ``None`` when the baseline's lifetime is 0 P/E cycles — it misses the
    retention requirement even unworn — so no finite ratio exists.
    """
    baseline = next((p for p in points if p.refresh_interval_days is None), None)
    if baseline is None:
        raise ValueError("sweep must include a no-refresh baseline")
    if baseline.raw_lifetime_pe == 0:
        return None
    best = max(p.raw_lifetime_pe for p in points)
    return best / baseline.raw_lifetime_pe
