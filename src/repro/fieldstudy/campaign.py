"""The RowHammer test campaign that regenerates Figure 1.

The original methodology (ISCA 2014): for every row of every module,
alternately activate the two rows sandwiching it as fast as timing
allows for one full refresh window, with an adversarial data pattern,
then count flipped cells.  The victim therefore accumulates
``tREFW / tRC`` adjacent activations (both aggressors couple into it).

Two scan paths, statistically identical under the fault model:

* :func:`scan_module_rows` — device-level double-sided hammering of a
  row range through the exact bank accounting (used by tests to verify
  the fast path);
* :func:`whole_module_errors` — one vectorized draw of the *entire*
  module's weak-cell population (count ~ Binomial(cells, density),
  thresholds lognormal, polarity Bernoulli) evaluated against the test
  budget and pattern.  This is the same stochastic model sampled at
  module granularity, which makes testing 129 x 2 GiB modules feasible
  in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule
from repro.dram.stream import CommandStream
from repro.fieldstudy.population import ModuleSpec, build_population, instantiate
from repro.utils.rng import derive_rng
from repro.utils.units import GIGA


@dataclass
class ModuleTestResult:
    """Outcome of testing one module.

    Attributes:
        serial, manufacturer, date: module identity.
        errors: flipped cells observed.
        cells: cells tested (whole module for the vectorized path).
        budget: adjacent-activation pressure applied per victim.
    """

    serial: str
    manufacturer: str
    date: float
    errors: int
    cells: int
    budget: int

    @property
    def errors_per_billion(self) -> float:
        """Errors normalized per 10^9 cells (Figure 1's y-axis)."""
        return self.errors * GIGA / self.cells

    @property
    def year(self) -> int:
        """Manufacture year (Figure 1's x-axis bucket)."""
        return int(self.date)

    @property
    def vulnerable(self) -> bool:
        return self.errors > 0


def victim_pressure(module: DramModule, refresh_multiplier: float = 1.0) -> int:
    """Adjacent-activation pressure a double-sided sweep applies to each
    victim within one (scaled) refresh window."""
    timing = module.timing
    return int(timing.tREFW / refresh_multiplier / timing.tRC)


def whole_module_errors(
    module: DramModule,
    budget: Optional[int] = None,
    pattern: str = "rowstripe",
    refresh_multiplier: float = 1.0,
) -> ModuleTestResult:
    """Vectorized whole-module scan (see module docstring).

    Pattern semantics: the campaign (like the original study) runs each
    fill **and its inverse**, so every weak cell is exercised in its
    charged state in one of the two passes — hence every weak cell
    within budget counts.  ``rowstripe`` opposes aggressor and victim
    values so aggressor-sensitive cells get full coupling, whereas
    ``solid1`` leaves them relieved by ``dpd_relief``.
    """
    if pattern not in ("rowstripe", "solid1"):
        raise ValueError(f"unsupported campaign pattern {pattern!r}")
    profile = module.profile
    geometry = module.geometry
    if budget is None:
        budget = victim_pressure(module, refresh_multiplier)
    cells = geometry.total_cells
    if not profile.vulnerable:
        return _result(module, 0, cells, budget)
    rng = derive_rng(module.seed, "fullscan")
    n_weak = rng.binomial(cells, profile.weak_cell_density)
    if n_weak == 0:
        return _result(module, 0, cells, budget)
    # Exact binomial thinning of the per-cell model: a weak cell flips
    # iff its clipped-lognormal threshold (x dpd_relief for aggressor-
    # sensitive cells under a non-opposing pattern) is within budget.
    # The victim stores every cell charged under both campaign patterns
    # (true cells read 1, anti cells 0 in the per-row fill), so polarity
    # affects flip direction, not flip count.
    p_plain = _threshold_cdf(budget, profile)
    if pattern == "solid1":
        p_sensitive = _threshold_cdf(budget / profile.dpd_relief, profile)
        fs = profile.aggressor_sensitive_fraction
        p_flip = (1.0 - fs) * p_plain + fs * p_sensitive
    else:
        p_flip = p_plain
    errors = int(rng.binomial(n_weak, p_flip)) if p_flip > 0 else 0
    return _result(module, errors, cells, budget)


def _threshold_cdf(budget: float, profile) -> float:
    """P[threshold <= budget] for a clipped-lognormal hc_first cell."""
    if budget < profile.hc_first_min:
        return 0.0
    z = (np.log(budget) - np.log(profile.hc_first_median)) / profile.hc_first_sigma
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _result(module: DramModule, errors: int, cells: int, budget: int) -> ModuleTestResult:
    return ModuleTestResult(
        serial=module.serial,
        manufacturer=module.manufacturer,
        date=module.manufacture_date,
        errors=errors,
        cells=cells,
        budget=budget,
    )


def scan_module_rows(
    module: DramModule,
    bank: int,
    victims: Sequence[int],
    budget: Optional[int] = None,
) -> ModuleTestResult:
    """Device-level double-sided sweep over explicit victim rows.

    Exercises the exact bank accounting; each victim receives
    ``budget`` pressure (both neighbors hammered ``budget / 2`` times).
    Each victim runs as its own command stream because attribution
    needs per-victim flip-log boundaries — a single stream would let a
    later victim's aggressors disturb an earlier victim's neighborhood
    after its count was taken.
    """
    if budget is None:
        budget = victim_pressure(module)
    per_aggressor = budget // 2
    rows = module.geometry.rows
    dev = module.bank(bank)
    errors = 0
    for victim in victims:
        module.geometry.check_row(victim)
        stream = CommandStream()
        for aggressor in (victim - 1, victim + 1):
            if 0 <= aggressor < rows:
                stream.act(aggressor, per_aggressor)
        stream.settle()
        before = len(dev.stats.flip_log)
        dev.execute(stream)
        errors += sum(1 for row, *_rest in dev.stats.flip_log[before:]
                      if row == victim)
    cells = len(victims) * module.geometry.row_bits
    return _result(module, errors, cells, budget)


@dataclass
class CampaignSummary:
    """Aggregates over a full campaign (the Figure 1 dataset)."""

    results: List[ModuleTestResult]

    @property
    def modules_tested(self) -> int:
        return len(self.results)

    @property
    def modules_vulnerable(self) -> int:
        return sum(1 for r in self.results if r.vulnerable)

    @property
    def earliest_vulnerable_date(self) -> Optional[float]:
        dates = [r.date for r in self.results if r.vulnerable]
        return min(dates) if dates else None

    def all_vulnerable_between(self, start: float, end: float) -> bool:
        """Whether every module dated in [start, end) is vulnerable."""
        in_window = [r for r in self.results if start <= r.date < end]
        return bool(in_window) and all(r.vulnerable for r in in_window)

    def peak_errors_per_billion(self, manufacturer: Optional[str] = None) -> float:
        pool = [r for r in self.results if manufacturer is None or r.manufacturer == manufacturer]
        return max((r.errors_per_billion for r in pool), default=0.0)

    def yearly_mean_rate(self, manufacturer: str) -> Dict[int, float]:
        """Mean errors/10^9 cells per manufacture year (Figure 1 series)."""
        buckets: Dict[int, List[float]] = {}
        for r in self.results:
            if r.manufacturer == manufacturer:
                buckets.setdefault(r.year, []).append(r.errors_per_billion)
        return {year: float(np.mean(vals)) for year, vals in sorted(buckets.items())}


def run_campaign(
    specs: Optional[Sequence[ModuleSpec]] = None,
    geometry: Optional[DramGeometry] = None,
    seed: int = 0,
    pattern: str = "rowstripe",
    refresh_multiplier: float = 1.0,
) -> CampaignSummary:
    """Test every module in the population; return the Figure 1 dataset."""
    from repro.dram.geometry import DDR3_2GB

    if specs is None:
        specs = build_population()
    if geometry is None:
        geometry = DDR3_2GB
    results = []
    for spec in specs:
        module = instantiate(spec, geometry=geometry, seed=seed)
        results.append(
            whole_module_errors(module, pattern=pattern, refresh_multiplier=refresh_multiplier)
        )
    return CampaignSummary(results=results)
