"""An open-page, timing-respecting request scheduler.

It services a request trace against DDR timing, stalling for REF commands
(whose rate scales with the refresh multiplier) and for any extra
activations a mitigation injects.  It is a standalone request-timing
model exercised by tests (``tests/test_controller_scheduler.py``,
``tests/test_extensions.py``): no experiment, bench or perfbench
workload builds it or :class:`~repro.controller.frfcfs.FrFcfsScheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.controller.energy import EnergyAccount
from repro.controller.request import MemRequest
from repro.dram.timing import TimingParams
from repro.telemetry import runtime as telem
from repro.utils.validation import check_positive

#: Data-burst occupancy on the bus per column access (8 beats, DDR3-1333).
T_BURST_NS = 6.0

#: Request-latency histogram edges (ns).
LATENCY_BUCKETS_NS = (25, 50, 100, 200, 400, 800, 1600, 3200, 6400, 12800)


@dataclass
class SchedulerStats:
    """Aggregate results of scheduling one trace."""

    requests: int = 0
    row_hits: int = 0
    row_misses: int = 0
    total_latency_ns: float = 0.0
    finish_ns: float = 0.0
    refresh_stall_ns: float = 0.0
    queue_depth_peak: int = 0
    latencies: List[float] = field(default_factory=list)

    @property
    def avg_latency_ns(self) -> float:
        """Mean request latency."""
        return self.total_latency_ns / self.requests if self.requests else 0.0

    @property
    def hit_rate(self) -> float:
        """Row-buffer hit rate."""
        return self.row_hits / self.requests if self.requests else 0.0

    @property
    def throughput_rps(self) -> float:
        """Requests per second of simulated time."""
        return self.requests / (self.finish_ns * 1e-9) if self.finish_ns > 0 else 0.0


def record_scheduler_metrics(stats: SchedulerStats, policy: str) -> None:
    """Feed one trace's aggregate scheduling results into telemetry.

    Called once per :meth:`execute` (not per request) so the scheduler
    hot loop never pays a telemetry lookup.
    """
    telem.counter("sched_requests_total", policy=policy).inc(stats.requests)
    telem.counter("sched_row_hits_total", policy=policy).inc(stats.row_hits)
    telem.counter("sched_row_misses_total", policy=policy).inc(stats.row_misses)
    telem.counter("sched_refresh_stall_ns_total", policy=policy).inc(stats.refresh_stall_ns)
    telem.gauge("sched_queue_depth_peak", policy=policy).set_max(stats.queue_depth_peak)
    hist = telem.histogram("sched_latency_ns", edges=LATENCY_BUCKETS_NS, policy=policy)
    for latency in stats.latencies:
        hist.observe(latency)


class CommandScheduler:
    """Schedules row-granular requests over one rank.

    Args:
        banks: number of banks.
        timing: DDR timing parameters.
        refresh_multiplier: scales the REF rate (the mitigation knob).
        energy: optional energy account to charge.
    """

    def __init__(
        self,
        banks: int,
        timing: TimingParams,
        refresh_multiplier: float = 1.0,
        energy: Optional[EnergyAccount] = None,
    ) -> None:
        check_positive("banks", banks)
        check_positive("refresh_multiplier", refresh_multiplier)
        self.banks = banks
        self.timing = timing
        self.refresh_multiplier = refresh_multiplier
        self.energy = energy
        self.ref_interval_ns = timing.tREFI / refresh_multiplier
        self._next_ref_ns = self.ref_interval_ns
        self._bank_ready = [0.0] * banks
        self._open_row: List[Optional[int]] = [None] * banks
        self._bus_ready = 0.0

    def _refresh_stall(self, t: float, stats: SchedulerStats) -> float:
        """Apply any REF blocking that precedes time ``t``; return new time."""
        while t >= self._next_ref_ns:
            ref_end = self._next_ref_ns + self.timing.tRFC
            if t < ref_end:
                stats.refresh_stall_ns += ref_end - t
                t = ref_end
            if self.energy is not None:
                # One REF covers a chunk of rows; charge a representative
                # per-command cost (rows_per_ref internal row refreshes).
                self.energy.record("refresh_row", count=8)
            self._next_ref_ns += self.ref_interval_ns
        return t

    def execute(self, requests: Iterable[MemRequest]) -> SchedulerStats:
        """Service ``requests`` (must be sorted by arrival); fills their
        ``completed_ns`` and returns aggregate statistics."""
        with telem.span("sched.execute", policy="inorder"):
            return self._execute_body(requests)

    def _execute_body(self, requests: Iterable[MemRequest]) -> SchedulerStats:
        stats = SchedulerStats()
        timing = self.timing
        for req in requests:
            if not 0 <= req.bank < self.banks:
                raise IndexError(f"bank {req.bank} out of range")
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
            req.completed_ns = complete
            stats.requests += 1
            stats.total_latency_ns += complete - req.arrival_ns
            stats.latencies.append(complete - req.arrival_ns)
            stats.finish_ns = max(stats.finish_ns, complete)
        if self.energy is not None:
            self.energy.advance(stats.finish_ns - self.energy.elapsed_ns if stats.finish_ns > self.energy.elapsed_ns else 0.0)
        if telem.metrics_on:
            record_scheduler_metrics(stats, policy="inorder")
        return stats
