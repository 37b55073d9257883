"""Hardware-performance-counter model.

ANVIL-style software mitigations (§II-C) sample CPU performance
counters to spot hammering: an extreme rate of row activations (cache
misses to the same DRAM row) inside a sampling window.  This model
exposes exactly what such a detector can see — per-window aggregate
activation counts and the hottest (bank, row) sources — without giving
it device internals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Sequence, Tuple


@dataclass
class WindowSample:
    """One completed sampling window.

    Attributes:
        start_ns, end_ns: window bounds.
        total_activations: activations observed in the window.
        hot_rows: the top (bank, row) activation sources, descending.
    """

    start_ns: float
    end_ns: float
    total_activations: int
    hot_rows: List[Tuple[Tuple[int, int], int]] = field(default_factory=list)

    @property
    def peak_row_count(self) -> int:
        """Activation count of the hottest row in the window."""
        return self.hot_rows[0][1] if self.hot_rows else 0


class PerfCounters:
    """Windowed activation counters the controller feeds.

    Args:
        window_ns: sampling window length.
        top_k: number of hot rows retained per window.
    """

    def __init__(self, window_ns: float = 1_000_000.0, top_k: int = 8) -> None:
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        self.window_ns = window_ns
        self.top_k = top_k
        self.window_start = 0.0
        self._counts: Counter = Counter()
        self.samples: List[WindowSample] = []

    def record_activate(self, bank: int, row: int, time_ns: float) -> None:
        """Feed one activation; closes windows as time advances."""
        while time_ns >= self.window_start + self.window_ns:
            self._close_window()
        self._counts[(bank, row)] += 1

    def record_run(self, bank: int, rows: Sequence[int], time_ns: float) -> None:
        """Feed activations of ``rows`` in order, the last one at
        ``time_ns``; the earlier ones must fall in the open window.
        Equivalent to one :meth:`record_activate` per row."""
        self._counts.update(zip(repeat(bank), rows[:-1]))
        self.record_activate(bank, rows[-1], time_ns)

    def _close_window(self) -> None:
        hot = self._counts.most_common(self.top_k)
        self.samples.append(
            WindowSample(
                start_ns=self.window_start,
                end_ns=self.window_start + self.window_ns,
                total_activations=sum(self._counts.values()),
                hot_rows=hot,
            )
        )
        self._counts.clear()
        self.window_start += self.window_ns

    def flush(self, time_ns: float) -> None:
        """Close any windows pending up to ``time_ns``."""
        while time_ns >= self.window_start + self.window_ns:
            self._close_window()

    def current_counts(self) -> Dict[Tuple[int, int], int]:
        """Counts accumulated in the open window."""
        return dict(self._counts)
