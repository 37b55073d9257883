"""The auto-refresh engine.

Issues REF operations every ``tREFI / multiplier`` nanoseconds; each
REF refreshes the next round-robin chunk of physical rows in every
bank, so that all rows are refreshed once per ``tREFW / multiplier``.
The ``multiplier`` is the knob behind the industry's immediate
RowHammer mitigation (BIOS patches raising the refresh rate), whose
cost/effectiveness curve bench C3 regenerates.

The engine also supports RAIDR-style **multi-rate refresh**: an
optional per-row bin assignment where a row in bin ``b`` is refreshed
only on every ``2^b``-th pass.  That saves refresh energy — and, as
the security-interaction experiment shows, quietly multiplies the
RowHammer activation budget against rows in slow bins, the very
"new vulnerabilities opened by the solution" risk §III-A1 warns about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.dram.module import DramModule
from repro.dram.timing import TimingParams
from repro.sanitizer import runtime as sanit
from repro.telemetry import runtime as telem
from repro.utils.validation import check_positive


@dataclass
class RefreshStats:
    """Counters for refresh activity."""

    ref_commands: int = 0
    rows_refreshed: int = 0
    flips_caught_late: int = 0  # flips already present when refresh arrived


class RefreshEngine:
    """Round-robin auto-refresh over a module's physical rows.

    Args:
        module: the device being refreshed.
        multiplier: refresh-rate multiplier (1.0 = nominal 64 ms window).
    """

    def __init__(
        self,
        module: DramModule,
        multiplier: float = 1.0,
        row_bins: Optional[np.ndarray] = None,
    ) -> None:
        check_positive("multiplier", multiplier)
        self.module = module
        self.multiplier = multiplier
        timing: TimingParams = module.timing
        self.interval_ns = timing.tREFI / multiplier
        commands_per_window = max(1, timing.refresh_commands_per_window)
        rows = module.geometry.rows
        self.rows_per_ref = max(1, rows // commands_per_window)
        self.next_ref_ns = self.interval_ns
        self._cursor = 0
        self.stats = RefreshStats()
        if row_bins is not None:
            row_bins = np.asarray(row_bins, dtype=np.int64)
            if row_bins.shape != (rows,):
                raise ValueError(f"row_bins must have shape ({rows},)")
            if row_bins.min() < 0:
                raise ValueError("row bins must be >= 0")
        self.row_bins = row_bins
        self._pass_index = 0

    def due(self, time_ns: float) -> bool:
        """Whether a REF is due at ``time_ns``."""
        return time_ns >= self.next_ref_ns

    def tick(self, time_ns: float) -> int:
        """Issue all REF commands due by ``time_ns``; return rows refreshed."""
        if sanit.sanitize_on:
            sanit.check("dram.refresh", self)
        refreshed = 0
        with telem.span("ctrl.refresh_tick"):
            while self.due(time_ns):
                refreshed += self.issue_ref(self.next_ref_ns)
                self.next_ref_ns += self.interval_ns
        return refreshed

    def next_rows(self) -> List[int]:
        """The physical rows the next REF refreshes, in every bank."""
        rows = self.module.geometry.rows
        rows_due = []
        for offset in range(self.rows_per_ref):
            row = (self._cursor + offset) % rows
            if self.row_bins is not None:
                # A row in bin b participates in every 2^b-th pass only.
                period = 1 << int(self.row_bins[row])
                if self._pass_index % period:
                    continue
            rows_due.append(row)
        return rows_due

    def issue_ref(self, time_ns: float) -> int:
        """Issue one REF at ``time_ns``: refresh the next round-robin
        chunk of rows in every bank; return rows refreshed."""
        rows = self.module.geometry.rows
        self.stats.ref_commands += 1
        if telem.metrics_on:
            telem.counter("dram_ref_commands_total").inc()
        rows_due = self.next_rows()
        count = 0
        if rows_due:
            # Banks are independent, so each bank takes its whole chunk
            # in one batched call (the columnar engine materializes the
            # chunk as one pass; the reference engine loops per row).
            for bank in range(self.module.geometry.banks):
                flips = self.module.refresh_physical_rows(bank, rows_due, time_ns)
                self.stats.flips_caught_late += flips
                count += len(rows_due)
        self._cursor = (self._cursor + self.rows_per_ref) % rows
        if self._cursor < self.rows_per_ref:
            self._pass_index += 1
        self.stats.rows_refreshed += count
        return count

