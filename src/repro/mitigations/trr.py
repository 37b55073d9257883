"""In-DRAM Targeted Row Refresh (TRR-like sampler).

Models the DRAM-chip-side mitigation family the paper points to via
Intel's targeted-refresh-command patent [11]: the device itself keeps a
small sampler of recent aggressors and, periodically, refreshes the
physical neighbors of the hottest tracked rows.  Because it lives in
the DRAM, it uses **true physical adjacency** — no SPD needed — which
is exactly the deployment advantage §II-C describes for in-chip PARA.

The known structural weakness is the bounded sampler: access patterns
with more simultaneous aggressors than ``tracker_entries`` (many-sided
hammering) can evict each other from the sampler and slip through —
the TRRespass-style bypass the extension bench demonstrates.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.telemetry import physics as phys
from repro.utils.validation import check_positive


class TrrMitigation:
    """Sampler-based in-DRAM targeted refresh.

    Args:
        tracker_entries: aggressor slots per bank.
        refresh_period_acts: every this many activations (per bank), the
            top tracked aggressor's neighbors get a targeted refresh.
    """

    def __init__(self, tracker_entries: int = 4, refresh_period_acts: int = 2048) -> None:
        check_positive("tracker_entries", tracker_entries)
        check_positive("refresh_period_acts", refresh_period_acts)
        self.name = f"trr(k={tracker_entries},T={refresh_period_acts})"
        self.tracker_entries = tracker_entries
        self.refresh_period_acts = refresh_period_acts
        self._trackers: Dict[int, Dict[int, int]] = {}
        self._acts_since_refresh: Dict[int, int] = {}
        self._extra_refreshes = 0
        self.targeted_refreshes = 0
        self.evictions = 0

    def on_activate(self, controller, bank: int, logical_row: int, time_ns: float) -> None:
        """Track the (physical) aggressor; fire targeted refresh periodically."""
        physical = controller.module.remapper.to_physical(logical_row)
        tracker = self._trackers.setdefault(bank, {})
        if phys.physics_on:
            phys.get_collector().audit_count("trr", "sample")
        self._track(bank, tracker, physical, time_ns)
        acts = self._acts_since_refresh.get(bank, 0) + 1
        if acts >= self.refresh_period_acts:
            acts = 0
            self._fire(controller, bank, tracker)
        self._acts_since_refresh[bank] = acts

    def scan(self, controller, bank: int, rows, times) -> int:
        """Track activations up to the one that reaches the refresh
        period (evictions are internal, not controller actions)."""
        acts = self._acts_since_refresh.get(bank, 0)
        quiet = min(len(rows), self.refresh_period_acts - 1 - acts)
        if quiet <= 0:
            return 0
        to_physical = controller.module.remapper.to_physical
        physical = {row: to_physical(row) for row in set(rows[:quiet])}
        tracker = self._trackers.setdefault(bank, {})
        if phys.physics_on:
            phys.get_collector().audit_count("trr", "sample", quiet)
        for i in range(quiet):
            self._track(bank, tracker, physical[rows[i]], times[i])
        self._acts_since_refresh[bank] = acts + quiet
        return quiet

    def _track(self, bank: int, tracker: Dict[int, int], physical: int,
               time_ns: float) -> None:
        """Sample one activation of ``physical`` into ``tracker``."""
        if physical in tracker:
            tracker[physical] += 1
        elif len(tracker) < self.tracker_entries:
            tracker[physical] = 1
        else:
            # Replace the coldest tracked aggressor (decay-and-swap sampler).
            coldest = min(tracker, key=tracker.get)
            if tracker[coldest] <= 1:
                del tracker[coldest]
                tracker[physical] = 1
                self.evictions += 1
                if phys.physics_on:
                    phys.get_collector().audit(
                        "trr", "evict", time_ns, bank=bank,
                        evicted=coldest, inserted=physical)
            else:
                tracker[coldest] -= 1

    def _fire(self, controller, bank: int, tracker: Dict[int, int]) -> None:
        if not tracker:
            return
        hottest = max(tracker, key=tracker.get)
        module = controller.module
        victims = list(module.remapper.physical_neighbors(hottest, 1))
        for victim in victims:
            module.refresh_physical_row(bank, victim, controller.time_ns)
            controller.time_ns += module.timing.tRC
            controller.energy.record("refresh_row")
            self._extra_refreshes += 1
        tracker[hottest] = 0
        self.targeted_refreshes += 1
        if phys.physics_on:
            phys.get_collector().audit(
                "trr", "targeted_refresh", controller.time_ns, bank=bank,
                aggressor=hottest, victims=victims)

    def extra_refresh_ops(self) -> int:
        """Victim refreshes injected so far."""
        return self._extra_refreshes
