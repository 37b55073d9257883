"""Counter-based aggressor identification (CRA / "sixth solution").

§II-C: "accurately identifying a row as a hammered row requires
keeping track of access counters for a large number of rows in the
memory controller, leading to very large hardware area and power
consumption, and potentially performance, overheads."

Two variants are modeled:

* **Full counters** — one counter per row: perfect detection, maximal
  storage (the overhead the paper criticizes).
* **Counter table** — a bounded CAM of (row -> count) entries with
  evict-minimum replacement; cheaper, but a many-aggressor access
  pattern can thrash the table and let aggressors escape, which the
  ablation bench (C6) quantifies.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.telemetry import physics as phys
from repro.utils.validation import check_positive


class CounterBasedMitigation:
    """Track per-row activation counts; refresh neighbors at a threshold.

    Args:
        threshold: activations within one refresh window that mark a row
            as an aggressor (set below the module's weakest ``hc_first``
            with a safety margin).
        window_ns: counter-reset period (one refresh window).
        table_entries: CAM capacity; ``None`` = full per-row counters.
    """

    def __init__(
        self,
        threshold: int = 32_768,
        window_ns: float = 64e6,
        table_entries: Optional[int] = None,
    ) -> None:
        check_positive("threshold", threshold)
        check_positive("window_ns", window_ns)
        if table_entries is not None:
            check_positive("table_entries", table_entries)
        kind = "full" if table_entries is None else f"table{table_entries}"
        self.name = f"cra({kind},th={threshold})"
        self.threshold = threshold
        self.window_ns = window_ns
        self.table_entries = table_entries
        self._counts: Dict[Tuple[int, int], int] = {}
        self._window_start = 0.0
        self._extra_refreshes = 0
        self.detections = 0
        self.evictions = 0

    def on_activate(self, controller, bank: int, logical_row: int, time_ns: float) -> None:
        """Count the activation; trigger victim refresh at the threshold."""
        if time_ns - self._window_start >= self.window_ns:
            self._counts.clear()
            self._window_start += self.window_ns * math.floor((time_ns - self._window_start) / self.window_ns)
            if phys.physics_on:
                phys.get_collector().audit_count("cra", "window_reset")
        key = (bank, logical_row)
        count = self._count(key)
        if count >= self.threshold:
            self.detections += 1
            if phys.physics_on:
                phys.get_collector().audit(
                    "cra", "detect", time_ns, bank=bank,
                    aggressor=logical_row, count=count,
                    threshold=self.threshold)
            self._extra_refreshes += controller.refresh_neighbors(bank, logical_row, 1)
            self._counts[key] = 0

    def scan(self, controller, bank: int, rows, times) -> int:
        """Count activations up to a window reset or a threshold
        crossing (table evictions are internal)."""
        counts = self._counts
        for i, row in enumerate(rows):
            key = (bank, row)
            if (times[i] - self._window_start >= self.window_ns
                    or counts.get(key, 0) + 1 >= self.threshold):
                return i
            self._count(key)
        return len(rows)

    def _count(self, key: Tuple[int, int]) -> int:
        """Count one activation of ``key``; return its new count."""
        count = self._counts.get(key, 0) + 1
        if key not in self._counts and self.table_entries is not None and len(self._counts) >= self.table_entries:
            # Evict the coldest entry; its history is lost (undercounting).
            coldest = min(self._counts, key=self._counts.get)
            del self._counts[coldest]
            self.evictions += 1
            if phys.physics_on:
                phys.get_collector().audit_count("cra", "evict")
        self._counts[key] = count
        return count

    def extra_refresh_ops(self) -> int:
        """Victim refreshes injected so far."""
        return self._extra_refreshes

    # ------------------------------------------------------------------
    # Hardware-cost analysis
    # ------------------------------------------------------------------
    def counter_bits(self) -> int:
        """Width of one activation counter."""
        return max(1, math.ceil(math.log2(self.threshold + 1)))

    def storage_bits(self, rows: int, banks: int) -> int:
        """Total counter storage for a module of ``banks x rows``.

        Full variant: one counter per row.  Table variant: each entry
        additionally stores a (bank, row) tag.
        """
        check_positive("rows", rows)
        check_positive("banks", banks)
        counter = self.counter_bits()
        if self.table_entries is None:
            return rows * banks * counter
        tag = math.ceil(math.log2(rows)) + math.ceil(math.log2(banks))
        return self.table_entries * (counter + tag)


def storage_overhead_table(rows: int, banks: int, thresholds, table_sizes) -> list:
    """Sweep (threshold, table size) -> storage bits, for the C6 bench.

    ``table_sizes`` may include ``None`` for the full-counter variant.
    """
    out = []
    for th in thresholds:
        for size in table_sizes:
            mit = CounterBasedMitigation(threshold=th, table_entries=size)
            out.append(
                {
                    "threshold": th,
                    "table_entries": size if size is not None else rows * banks,
                    "variant": "full" if size is None else "table",
                    "storage_bits": mit.storage_bits(rows, banks),
                }
            )
    return out
