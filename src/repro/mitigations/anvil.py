"""ANVIL-style software mitigation (Aweke+, ASPLOS 2016).

A software agent samples hardware performance counters at a fixed
interval; when the activation rate to a single row exceeds a threshold,
it explicitly refreshes (reads) that row's neighbors.  The paper calls
this "a promising area of research" but notes it is intrusive and
requires system-software changes.

Modeled costs and weaknesses:

* detection happens only at **sample boundaries** — an attacker gets a
  free window of ``sample_interval_ns`` before the first response;
* each sample consumes CPU time (``sample_cost_ns``), an overhead the
  mitigation-comparison bench charges;
* detection relies on the counters' top-k visibility — more parallel
  aggressor pairs than ``top_k`` can hide below the reporting cutoff.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import repeat

from repro.telemetry import physics as phys
from repro.utils.validation import check_positive


class AnvilMitigation:
    """Sampling-based software RowHammer detector.

    Args:
        sample_interval_ns: time between counter samples.
        rate_threshold: per-sample activation count that flags a row.
        top_k: rows visible per sample (counter hardware limit).
        sample_cost_ns: CPU time charged per sample.
    """

    def __init__(
        self,
        sample_interval_ns: float = 1_000_000.0,
        rate_threshold: int = 3000,
        top_k: int = 4,
        sample_cost_ns: float = 2_000.0,
    ) -> None:
        check_positive("sample_interval_ns", sample_interval_ns)
        check_positive("rate_threshold", rate_threshold)
        check_positive("top_k", top_k)
        self.name = f"anvil(int={sample_interval_ns:g}ns,th={rate_threshold})"
        self.sample_interval_ns = sample_interval_ns
        self.rate_threshold = rate_threshold
        self.top_k = top_k
        self.sample_cost_ns = sample_cost_ns
        self._window_start = 0.0
        self._counts: Counter = Counter()
        self._extra_refreshes = 0
        self.samples = 0
        self.detections = 0

    def on_activate(self, controller, bank: int, logical_row: int, time_ns: float) -> None:
        """Accumulate counts; evaluate the detector at sample boundaries."""
        while time_ns >= self._window_start + self.sample_interval_ns:
            self._sample(controller)
        self._counts[(bank, logical_row)] += 1

    def scan(self, controller, bank: int, rows, times) -> int:
        """Count activations up to the next sample boundary."""
        quiet = bisect_left(times, self._window_start + self.sample_interval_ns)
        self._counts.update(zip(repeat(bank), rows[:quiet]))
        return quiet

    def _sample(self, controller) -> None:
        self.samples += 1
        if phys.physics_on:
            phys.get_collector().audit_count("anvil", "sample")
        controller.time_ns += self.sample_cost_ns
        visible = self._counts.most_common(self.top_k)
        for (bank, row), count in visible:
            if count >= self.rate_threshold:
                self.detections += 1
                if phys.physics_on:
                    phys.get_collector().audit(
                        "anvil", "detect", self._window_start, bank=bank,
                        aggressor=row, count=count,
                        threshold=self.rate_threshold)
                self._extra_refreshes += controller.refresh_neighbors(bank, row, 1)
        self._counts.clear()
        self._window_start += self.sample_interval_ns

    def extra_refresh_ops(self) -> int:
        """Victim refreshes injected so far."""
        return self._extra_refreshes

    def cpu_overhead_ns(self) -> float:
        """Total CPU time spent sampling."""
        return self.samples * self.sample_cost_ns
