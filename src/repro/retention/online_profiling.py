"""Online, content-aware retention profiling (PARBOR-style; §II-C/III-A1).

Static (manufacturing-time) profiling tests a handful of canned
patterns and misses Data-Pattern-Dependent failures whose worst-case
neighborhood never occurs during the test.  The paper's intelligent-
controller direction ([47, 48]) is to profile **online, against the
data actually resident**: whenever a row's content changes
significantly, the controller schedules a test of that row *with that
content*, so the DPD condition being lived under is the one tested.

Model: each DPD cell has a worst-case neighborhood that resident data
matches with some probability per content generation.  The online
profiler re-tests on every content change, accumulating coverage that
static profiling cannot reach; discovered cells get their rows
upgraded to the fast refresh bin before a failure escapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

import numpy as np

from repro.retention.population import CellPopulation
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive, check_probability


@dataclass
class OnlineProfilingResult:
    """Outcome of an online-profiling deployment simulation.

    Attributes:
        generations: content generations simulated.
        discovered_static: cells a one-shot static campaign found.
        discovered_online: cells found by generation (cumulative counts).
        escapes_static: failures static profiling would have missed at
            the deployed interval.
        escapes_online: failures that occurred before the online
            profiler caught the cell.
    """

    generations: int
    discovered_static: Set[int] = field(default_factory=set)
    discovered_online: List[int] = field(default_factory=list)
    escapes_static: int = 0
    escapes_online: int = 0


def simulate_online_profiling(
    population: CellPopulation,
    deployed_interval_s: float = 0.256,
    generations: int = 12,
    content_match_probability: float = 0.35,
    static_rounds: int = 4,
    seed: int = 0,
) -> OnlineProfilingResult:
    """Compare static vs online (content-aware) DPD discovery.

    Args:
        population: the cell population (DPD factors drive the study).
        deployed_interval_s: refresh interval rows run at.
        generations: number of content changes over the deployment.
        content_match_probability: per-generation probability that the
            resident data exercises a DPD cell's worst case.
        static_rounds: rounds the one-shot static campaign ran.
        seed: randomness.
    """
    check_positive("deployed_interval_s", deployed_interval_s)
    check_positive("generations", generations)
    check_probability("content_match_probability", content_match_probability)
    rng = derive_rng(seed, "online-profiling")
    n = population.n_cells

    # Cells whose worst-case retention violates the deployed interval
    # but whose nominal retention passes it: the DPD-exposed set.
    worst = population.nominal_s * population.dpd_factor
    at_risk = np.nonzero((worst < deployed_interval_s) & (population.nominal_s >= deployed_interval_s))[0]

    result = OnlineProfilingResult(generations=generations)

    # Static campaign: `static_rounds` pattern draws, all up front.
    static_found = set()
    for _ in range(static_rounds):
        hit = rng.random(len(at_risk)) < content_match_probability
        static_found.update(int(c) for c in at_risk[hit])
    result.discovered_static = static_found

    # Deployment: each generation, resident data matches each remaining
    # at-risk cell's worst case with the same probability; matching
    # content *causes a failure condition* — the online profiler tests
    # the row with that very content and catches the cell first, while
    # the static-only system takes an escape.
    online_found: Set[int] = set()
    for _gen in range(generations):
        hit = rng.random(len(at_risk)) < content_match_probability
        for cell in at_risk[hit]:
            cell = int(cell)
            if cell not in online_found:
                online_found.add(cell)
                result.discovered_online.append(cell)
            if cell not in static_found:
                result.escapes_static += 1
    # The online profiler catches each cell at the generation boundary,
    # before a full retention interval elapses with the bad content.
    result.escapes_online = 0
    return result

