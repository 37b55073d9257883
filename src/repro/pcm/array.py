"""Phase-Change Memory endurance model.

PCM cells wear out after a bounded number of writes (~10^7-10^8); §III
lists PCM among the emerging technologies whose reliability limits can
become *security* problems — a malicious workload that pins writes to
one line kills it quickly unless wear leveling intervenes (the
start-gap line of work [82] the paper cites).

Endurance is per-*line* (the write granularity), lognormally spread
around the process mean.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry import runtime as telem
from repro.utils.rng import derive_rng
from repro.utils.validation import check_int, check_nonnegative, check_positive

#: Per-line wear histogram edges (writes), log-spaced to endurance scale.
_PCM_WEAR_BUCKETS = (1e3, 1e4, 1e5, 1e6, 3e6, 1e7, 3e7, 1e8)


class PcmArray:
    """A PCM array of write lines with per-line endurance.

    Args:
        lines: number of physical lines.
        endurance_mean: median writes-to-failure per line.
        endurance_sigma: lognormal spread of endurance.
        seed: deterministic endurance draw.
    """

    def __init__(
        self,
        lines: int,
        endurance_mean: float = 1e7,
        endurance_sigma: float = 0.15,
        seed: int = 0,
    ) -> None:
        check_int("lines", lines)
        check_positive("lines", lines)
        check_positive("endurance_mean", endurance_mean)
        check_nonnegative("endurance_sigma", endurance_sigma)
        rng = derive_rng(seed, "pcm-endurance")
        self.lines = lines
        self.endurance = np.exp(
            rng.normal(np.log(endurance_mean), endurance_sigma, size=lines)
        )
        self.writes = np.zeros(lines, dtype=np.float64)

    def write(self, line: int, count: int = 1) -> None:
        """Apply ``count`` writes to a physical line."""
        if not 0 <= line < self.lines:
            raise IndexError(f"line {line} out of range")
        if count < 0:
            raise ValueError("count must be >= 0")
        self.writes[line] += count
        if telem.metrics_on:
            telem.counter("pcm_writes_total").inc(count)
            telem.histogram("pcm_line_writes", edges=_PCM_WEAR_BUCKETS).observe(
                self.writes[line])

    def failed_lines(self) -> np.ndarray:
        """Indices of lines past their endurance."""
        failed = np.nonzero(self.writes > self.endurance)[0]
        if telem.metrics_on:
            telem.gauge("pcm_failed_lines").set_max(len(failed))
        return failed

    @property
    def any_failed(self) -> bool:
        return bool(np.any(self.writes > self.endurance))

    @property
    def total_writes(self) -> float:
        return float(self.writes.sum())

    def headroom(self) -> float:
        """Smallest remaining write budget across lines."""
        return float((self.endurance - self.writes).min())
