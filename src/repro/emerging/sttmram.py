"""STT-MRAM reliability model: read disturb, write error, retention.

§III: emerging memories such as STT-MRAM "are likely to exhibit
similar and perhaps even more exacerbated reliability issues".
STT-MRAM's three canonical error mechanisms all derive from the same
thermal-activation physics over the free layer's energy barrier
(thermal stability factor Δ):

* **retention**: spontaneous switching at rate ``f0 * exp(-Δ)``;
* **read disturb**: the read current lowers the effective barrier to
  ``Δ (1 - I_read / Ic0)`` — every read is a weak write, the MRAM
  analogue of the paper's disturbance theme;
* **write error**: an under-driven or under-timed write fails to
  switch with probability ``exp(-Δ_write_margin)`` (modeled as a
  per-write constant derived from the overdrive).

Scaling makes all three worse at once: smaller free layers mean lower
Δ, which is exactly the §III "denser = less reliable" trend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.utils.rng import derive_rng
from repro.utils.units import SECONDS_PER_YEAR
from repro.utils.validation import check_in_range, check_positive

#: Attempt frequency of thermal switching (Hz).
ATTEMPT_FREQUENCY_HZ = 1e9


@dataclass(frozen=True)
class SttParams:
    """STT-MRAM cell parameters.

    Attributes:
        delta: thermal stability factor (Δ = E_b / kT); ~60 at mature
            nodes, dropping as the free layer shrinks.
        delta_sigma: cell-to-cell spread of Δ.
        read_current_ratio: I_read / Ic0 — the disturb strength knob.
        read_pulse_ns: read pulse duration.
        write_error_rate: per-write switching-failure probability.
    """

    delta: float = 60.0
    delta_sigma: float = 2.5
    read_current_ratio: float = 0.3
    read_pulse_ns: float = 10.0
    write_error_rate: float = 1e-9

    def __post_init__(self) -> None:
        check_positive("delta", self.delta)
        check_in_range("read_current_ratio", self.read_current_ratio, 0.0, 0.99)
        check_positive("read_pulse_ns", self.read_pulse_ns)


def read_disturb_probability(delta: float, read_current_ratio: float, pulse_ns: float) -> float:
    """Probability one read flips the cell (thermal activation with the
    barrier lowered by the read current)."""
    effective_delta = delta * (1.0 - read_current_ratio)
    rate = ATTEMPT_FREQUENCY_HZ * math.exp(-effective_delta)
    return 1.0 - math.exp(-rate * pulse_ns * 1e-9)


class SttMramArray:
    """An STT-MRAM array with per-cell thermal stability.

    Args:
        cells: array size.
        params: device parameters.
        seed: per-array Δ draw.
    """

    def __init__(self, cells: int = 1 << 20, params: SttParams = SttParams(), seed: int = 0) -> None:
        check_positive("cells", cells)
        rng = derive_rng(seed, "stt")
        self.params = params
        self.delta = np.clip(
            rng.normal(params.delta, params.delta_sigma, size=cells), 5.0, None
        )
        self.cells = cells

    def expected_read_disturb_errors(self, reads_per_cell: int) -> float:
        """Expected flips after every cell is read ``reads_per_cell`` times."""
        if reads_per_cell < 0:
            raise ValueError("reads_per_cell must be >= 0")
        p = 1.0 - np.exp(
            -ATTEMPT_FREQUENCY_HZ
            * np.exp(-self.delta * (1.0 - self.params.read_current_ratio))
            * self.params.read_pulse_ns
            * 1e-9
            * reads_per_cell
        )
        return float(p.sum())

    def expected_retention_errors(self, years: float) -> float:
        """Expected spontaneous flips over ``years``."""
        if years < 0:
            raise ValueError("years must be >= 0")
        p = 1.0 - np.exp(
            -ATTEMPT_FREQUENCY_HZ * np.exp(-self.delta) * years * SECONDS_PER_YEAR
        )
        return float(p.sum())


def scaling_study(
    deltas=(70.0, 60.0, 50.0, 40.0),
    reads_per_cell: int = 1_000_000,
    read_current_ratio: float = 0.3,
    cells: int = 1 << 20,
    seed: int = 0,
) -> List[dict]:
    """Error rates vs thermal stability — the density-scaling trend.

    Lower Δ (smaller cell) raises read-disturb and retention errors
    simultaneously; the §III claim in one table.
    """
    rows = []
    for delta in deltas:
        params = SttParams(delta=delta, read_current_ratio=read_current_ratio)
        array = SttMramArray(cells=cells, params=params, seed=seed)
        rows.append(
            {
                "delta": delta,
                "read_disturb_errors": array.expected_read_disturb_errors(reads_per_cell),
                "retention_errors_10y": array.expected_retention_errors(10.0),
                "per_read_disturb_probability": read_disturb_probability(
                    delta, read_current_ratio, params.read_pulse_ns
                ),
            }
        )
    return rows
