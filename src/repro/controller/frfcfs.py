"""FR-FCFS request scheduling (First-Ready, First-Come-First-Served).

The production scheduling policy the simple in-order
:class:`~repro.controller.scheduler.CommandScheduler` approximates
away: within a reorder window, requests that *hit the open row* of
their bank are served before older row-miss requests, maximizing
row-buffer locality.

FR-FCFS is what makes hammering *possible* from user space: an
attacker's alternating-row pattern defeats the row buffer by
construction, so the scheduler cannot coalesce it.  Like the in-order
scheduler, this is a standalone request-timing model exercised by tests
(``tests/test_extensions.py``); no experiment prices mitigation overhead
with it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.controller.energy import EnergyAccount
from repro.controller.request import MemRequest
from repro.controller.scheduler import T_BURST_NS, SchedulerStats, record_scheduler_metrics
from repro.dram.timing import TimingParams
from repro.telemetry import runtime as telem
from repro.utils.validation import check_positive


class FrFcfsScheduler:
    """FR-FCFS over one rank with a bounded reorder window.

    Args:
        banks: number of banks.
        timing: DDR timing parameters.
        window: max queued requests inspected when picking the next one.
        refresh_multiplier: REF rate scaling.
        energy: optional energy account.
    """

    def __init__(
        self,
        banks: int,
        timing: TimingParams,
        window: int = 16,
        refresh_multiplier: float = 1.0,
        energy: Optional[EnergyAccount] = None,
    ) -> None:
        check_positive("banks", banks)
        check_positive("window", window)
        check_positive("refresh_multiplier", refresh_multiplier)
        self.banks = banks
        self.timing = timing
        self.window = window
        self.energy = energy
        self.ref_interval_ns = timing.tREFI / refresh_multiplier
        self._next_ref_ns = self.ref_interval_ns
        self._bank_ready = [0.0] * banks
        self._open_row: List[Optional[int]] = [None] * banks
        self._bus_ready = 0.0
        self._now = 0.0

    def _refresh_stall(self, t: float, stats: SchedulerStats) -> float:
        while t >= self._next_ref_ns:
            ref_end = self._next_ref_ns + self.timing.tRFC
            if t < ref_end:
                stats.refresh_stall_ns += ref_end - t
                t = ref_end
            if self.energy is not None:
                self.energy.record("refresh_row", count=8)
            self._next_ref_ns += self.ref_interval_ns
        return t

    def _pick(self, pending: List[MemRequest]) -> int:
        """Index of the next request: oldest row-hit in the window, else
        the oldest request overall (FCFS fallback)."""
        horizon = min(self.window, len(pending))
        for i in range(horizon):
            req = pending[i]
            if req.arrival_ns <= self._now and self._open_row[req.bank] == req.row:
                return i
        return 0

    def _service(self, req: MemRequest, stats: SchedulerStats) -> None:
        timing = self.timing
        start = max(req.arrival_ns, self._bank_ready[req.bank], self._bus_ready)
        start = self._refresh_stall(start, stats)
        if self._open_row[req.bank] == req.row:
            stats.row_hits += 1
            data_at = start + timing.tCL
            self._bank_ready[req.bank] = start + T_BURST_NS
        else:
            stats.row_misses += 1
            data_at = start + timing.tRP + timing.tRCD + timing.tCL
            self._bank_ready[req.bank] = start + timing.tRP + timing.tRC
            self._open_row[req.bank] = req.row
            if self.energy is not None:
                self.energy.record("pre")
                self.energy.record("act")
        if self.energy is not None:
            self.energy.record("write" if req.is_write else "read")
        complete = data_at + T_BURST_NS
        self._bus_ready = data_at + T_BURST_NS
        self._now = max(self._now, complete)
        req.completed_ns = complete
        stats.requests += 1
        stats.total_latency_ns += complete - req.arrival_ns
        stats.latencies.append(complete - req.arrival_ns)
        stats.finish_ns = max(stats.finish_ns, complete)

    def execute(self, requests: List[MemRequest]) -> SchedulerStats:
        """Schedule all requests (sorted by arrival); returns statistics."""
        with telem.span("sched.execute", policy="frfcfs"):
            return self._execute_body(requests)

    def _execute_body(self, requests: List[MemRequest]) -> SchedulerStats:
        stats = SchedulerStats()
        pending = sorted(requests)
        for req in pending:
            if not 0 <= req.bank < self.banks:
                raise IndexError(f"bank {req.bank} out of range")
        while pending:
            if pending[0].arrival_ns > self._now:
                self._now = pending[0].arrival_ns
            if len(pending) > stats.queue_depth_peak:
                stats.queue_depth_peak = len(pending)
            index = self._pick(pending)
            self._service(pending.pop(index), stats)
        if telem.metrics_on:
            record_scheduler_metrics(stats, policy="frfcfs")
        return stats
