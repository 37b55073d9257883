"""Domain (physics) observability: where flips happen and why.

The generic telemetry layers count *how much* happened —
activations, refreshes, flips.  This module records the paper's
actual story, which is spatial and causal:

* **per-row disturbance heat maps** — compact per-bank accumulators
  of activations, peak hammer pressure, and bit flips per row;
* **flip provenance aggregates** — flips grouped by (bank, victim
  row, dominant aggressor row, data pattern), with the peak hammer
  count and the refresh-epoch window they were observed in;
* **mitigation decision audit trail** — typed events (plus cheap
  counters for high-volume decisions) from PARA draws/refreshes, TRR
  samples/triggers, ANVIL/CRA detections, refresh-scaling epochs,
  and ECC correct-vs-detect outcomes.

Like every other telemetry signal the collector is **off by
default**: instrument sites guard on the module global
``physics_on`` — one attribute read and a falsy branch when
disabled (the overhead benchmark covers this guard too).  The
collector speaks the same snapshot/merge protocol as
:class:`~repro.telemetry.metrics.MetricsRegistry`, so per-job
physics travels inside :class:`~repro.experiments.result.ExperimentResult`,
survives the result cache, and adds up across process-pool workers.

This module is a leaf: it imports only the metrics primitives (for
Prometheus exposition of the aggregates), never the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "physics_on",
    "AuditEvent",
    "PhysicsCollector",
    "enable_physics",
    "disable_physics",
    "get_collector",
]

#: Hot-path guard.  Read directly (``phys.physics_on``) by instrument
#: sites; mutate only through :func:`enable_physics`/:func:`disable_physics`
#: or :func:`repro.telemetry.runtime.observing`.
physics_on: bool = False

#: Default bound on the audit event list.
DEFAULT_AUDIT_CAP = 10_000


@dataclass(frozen=True)
class AuditEvent:
    """One mitigation decision: who decided what, when, about which rows.

    ``mitigation`` names the deciding module (``para``, ``trr``,
    ``anvil``, ``cra``, ``refresh_scaling``, ``ecc``), ``decision``
    the outcome class (``refresh``, ``detect``, ``evict``, …), and
    ``detail`` carries the decision-specific JSON-safe payload (rows,
    thresholds, multipliers).
    """

    mitigation: str
    decision: str
    time_ns: Optional[float] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mitigation": self.mitigation,
            "decision": self.decision,
            "time_ns": self.time_ns,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "AuditEvent":
        return cls(
            mitigation=str(record["mitigation"]),
            decision=str(record["decision"]),
            time_ns=record.get("time_ns"),
            detail=dict(record.get("detail") or {}),
        )


class PhysicsCollector:
    """Per-row heat, flip provenance, and the mitigation audit trail.

    All accumulators are mergeable: counts add, peaks max-merge,
    epoch windows widen.  The audit *counts* are always complete;
    the audit *event list* is bounded by ``audit_cap`` (default
    10 000, ``None`` for unbounded) with overflow counted in
    ``audit_dropped`` — the same drop-don't-lie contract as the
    flip log cap.
    """

    def __init__(self, audit_cap: Optional[int] = DEFAULT_AUDIT_CAP) -> None:
        # (bank, row) -> [activations, peak_pressure, flips]
        self._heat: Dict[Tuple[int, int], List[float]] = {}
        # (bank, victim, aggressor, pattern)
        #   -> [flips, max_hammer, first_epoch, last_epoch]
        self._prov: Dict[Tuple[int, int, int, str], List[float]] = {}
        # (mitigation, decision) -> count
        self._audit_counts: Dict[Tuple[str, str], int] = {}
        self._audit_events: List[AuditEvent] = []
        self.audit_cap = audit_cap
        self.audit_dropped = 0

    def __bool__(self) -> bool:
        return bool(self._heat or self._prov or self._audit_counts
                    or self._audit_events or self.audit_dropped)

    # ------------------------------------------------------------------
    # Recording (call only behind the ``physics_on`` guard)
    # ------------------------------------------------------------------
    def record_activation(self, bank: int, row: int, count: int = 1) -> None:
        """Row ``row`` of ``bank`` was activated ``count`` times."""
        cell = self._heat.get((bank, row))
        if cell is None:
            self._heat[(bank, row)] = [count, 0.0, 0]
        else:
            cell[0] += count

    def record_activation_batch(self, bank: int,
                                rows: Iterable[int],
                                counts: Iterable[int]) -> None:
        """Batched form of :meth:`record_activation` (columnar engine)."""
        heat = self._heat
        for row, count in zip(rows, counts):
            cell = heat.get((bank, row))
            if cell is None:
                heat[(bank, row)] = [int(count), 0.0, 0]
            else:
                cell[0] += int(count)

    def record_flip_window(self, bank: int, row: int, flips: int,
                           hammer: float, aggressor: int,
                           pattern: str, epoch: int) -> None:
        """``flips`` bits flipped in one materialization window of
        ``row``, under ``hammer`` accumulated pressure dominated by
        ``aggressor`` (``-1`` when none), while ``pattern`` was the
        stored data pattern, during refresh epoch ``epoch``."""
        cell = self._heat.get((bank, row))
        if cell is None:
            self._heat[(bank, row)] = [0, hammer, flips]
        else:
            if hammer > cell[1]:
                cell[1] = hammer
            cell[2] += flips
        key = (bank, row, aggressor, pattern)
        agg = self._prov.get(key)
        if agg is None:
            self._prov[key] = [flips, hammer, epoch, epoch]
        else:
            agg[0] += flips
            if hammer > agg[1]:
                agg[1] = hammer
            if epoch < agg[2]:
                agg[2] = epoch
            if epoch > agg[3]:
                agg[3] = epoch

    def audit_count(self, mitigation: str, decision: str, n: int = 1) -> None:
        """Count a high-volume decision without materializing an event
        (PARA per-activation draws, ECC per-word outcomes)."""
        key = (mitigation, decision)
        self._audit_counts[key] = self._audit_counts.get(key, 0) + n

    def audit(self, mitigation: str, decision: str,
              time_ns: Optional[float] = None, **detail: Any) -> None:
        """Record a typed audit event (and bump its count)."""
        self.audit_count(mitigation, decision)
        cap = self.audit_cap
        if cap is not None and len(self._audit_events) >= cap:
            self.audit_dropped += 1
            return
        self._audit_events.append(
            AuditEvent(mitigation, decision, time_ns, detail))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def heat_rows(self) -> List[Tuple[int, int, int, float, int]]:
        """``(bank, row, activations, peak_pressure, flips)`` sorted by
        flips then pressure, hottest first."""
        rows = [(bank, row, int(acts), float(peak), int(flips))
                for (bank, row), (acts, peak, flips) in self._heat.items()]
        rows.sort(key=lambda r: (-r[4], -r[3], r[0], r[1]))
        return rows

    def provenance_rows(self) -> List[Tuple[int, int, int, str, int, float, int, int]]:
        """``(bank, victim, aggressor, pattern, flips, max_hammer,
        first_epoch, last_epoch)`` sorted by flips, heaviest first."""
        rows = [(bank, victim, agg, pattern, int(flips), float(hammer),
                 int(first), int(last))
                for (bank, victim, agg, pattern), (flips, hammer, first, last)
                in self._prov.items()]
        rows.sort(key=lambda r: (-r[4], r[0], r[1], r[2], r[3]))
        return rows

    def audit_counts(self) -> Dict[Tuple[str, str], int]:
        return dict(self._audit_counts)

    def audit_events(self) -> List[AuditEvent]:
        return list(self._audit_events)

    def total_flips(self) -> int:
        return sum(int(cell[2]) for cell in self._heat.values())

    def total_provenance_flips(self) -> int:
        return sum(int(agg[0]) for agg in self._prov.values())

    def total_activations(self) -> int:
        return sum(int(cell[0]) for cell in self._heat.values())

    # ------------------------------------------------------------------
    # Snapshot / merge (the cross-process protocol)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump, sorted for stable output."""
        return {
            "heat": [
                [bank, row, int(acts), float(peak), int(flips)]
                for (bank, row), (acts, peak, flips) in sorted(self._heat.items())
            ],
            "provenance": [
                [bank, victim, agg, pattern, int(flips), float(hammer),
                 int(first), int(last)]
                for (bank, victim, agg, pattern), (flips, hammer, first, last)
                in sorted(self._prov.items())
            ],
            "audit_counts": [
                [mitigation, decision, int(n)]
                for (mitigation, decision), n in sorted(self._audit_counts.items())
            ],
            "audit_events": [event.to_dict() for event in self._audit_events],
            "audit_dropped": int(self.audit_dropped),
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Absorb a snapshot: counts add, peaks max-merge, epoch
        windows widen, bounded event lists concatenate (overflow goes
        to ``audit_dropped``)."""
        for bank, row, acts, peak, flips in snapshot.get("heat", ()):
            key = (int(bank), int(row))
            cell = self._heat.get(key)
            if cell is None:
                self._heat[key] = [int(acts), float(peak), int(flips)]
            else:
                cell[0] += int(acts)
                if peak > cell[1]:
                    cell[1] = float(peak)
                cell[2] += int(flips)
        for bank, victim, agg, pattern, flips, hammer, first, last in \
                snapshot.get("provenance", ()):
            key = (int(bank), int(victim), int(agg), str(pattern))
            entry = self._prov.get(key)
            if entry is None:
                self._prov[key] = [int(flips), float(hammer), int(first), int(last)]
            else:
                entry[0] += int(flips)
                if hammer > entry[1]:
                    entry[1] = float(hammer)
                if first < entry[2]:
                    entry[2] = int(first)
                if last > entry[3]:
                    entry[3] = int(last)
        for mitigation, decision, n in snapshot.get("audit_counts", ()):
            key = (str(mitigation), str(decision))
            self._audit_counts[key] = self._audit_counts.get(key, 0) + int(n)
        cap = self.audit_cap
        for record in snapshot.get("audit_events", ()):
            if cap is not None and len(self._audit_events) >= cap:
                self.audit_dropped += 1
                continue
            self._audit_events.append(AuditEvent.from_dict(record))
        self.audit_dropped += int(snapshot.get("audit_dropped", 0))

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "PhysicsCollector":
        collector = cls()
        collector.merge(snapshot)
        return collector

    @classmethod
    def from_snapshots(cls, snapshots: Iterable[Optional[Mapping[str, Any]]]
                       ) -> "PhysicsCollector":
        collector = cls()
        for snapshot in snapshots:
            if snapshot:
                collector.merge(snapshot)
        return collector

    # ------------------------------------------------------------------
    # Prometheus exposition
    # ------------------------------------------------------------------
    def to_registry(self) -> MetricsRegistry:
        """Bank-level aggregates as a metrics registry, ready for
        :func:`repro.telemetry.export.render_exposition` (per-row
        series would explode scrape cardinality, so rows aggregate
        per bank; the full resolution lives in the snapshot)."""
        registry = MetricsRegistry()
        per_bank: Dict[int, List[float]] = {}
        for (bank, _row), (acts, peak, flips) in self._heat.items():
            agg = per_bank.setdefault(bank, [0, 0.0, 0, 0])
            agg[0] += int(acts)
            if peak > agg[1]:
                agg[1] = float(peak)
            agg[2] += int(flips)
            if flips:
                agg[3] += 1
        for bank in sorted(per_bank):
            acts, peak, flips, disturbed = per_bank[bank]
            registry.counter("physics_row_activations_total", bank=bank).inc(int(acts))
            registry.counter("physics_flips_total", bank=bank).inc(int(flips))
            registry.gauge("physics_row_peak_pressure", bank=bank).set(float(peak))
            registry.gauge("physics_rows_disturbed", bank=bank).set(int(disturbed))
        for (mitigation, decision), n in sorted(self._audit_counts.items()):
            registry.counter("physics_audit_events_total",
                             mitigation=mitigation, decision=decision).inc(n)
        if self.audit_dropped:
            registry.counter("physics_audit_dropped_total").inc(self.audit_dropped)
        return registry


_collector = PhysicsCollector()


# ----------------------------------------------------------------------
# Switches and sink management (mirrors repro.telemetry.runtime)
# ----------------------------------------------------------------------
def enable_physics(fresh: bool = False) -> PhysicsCollector:
    """Turn physics collection on; optionally start from an empty collector."""
    global physics_on, _collector
    if fresh:
        _collector = PhysicsCollector()
    physics_on = True
    return _collector


def disable_physics() -> None:
    global physics_on
    physics_on = False


def get_collector() -> PhysicsCollector:
    return _collector
