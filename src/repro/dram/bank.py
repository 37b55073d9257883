"""One DRAM bank: row buffer state, stored data, disturbance accounting.

The bank operates purely in **physical** row space; the module layer
translates logical (externally visible) rows through the remapper.

Disturbance bookkeeping per row:

* ``pressure`` — weighted adjacent-row activations since the row was
  last refreshed (by REF, or implicitly by its own activation).
* ``peak`` — the maximum pressure reached since flips were last
  materialized into the stored data.

Flips are materialized lazily whenever the row's cells are next sensed
(own activation or refresh), which is exact: a weak cell flips iff the
pressure crossed its threshold at any point while the data was resident.

This class is the **reference** engine: per-row dicts mutated one
command at a time, obviously faithful to the prose above.  Production
modules build :class:`repro.dram.columnar.ColumnarDramBank` (dense
numpy state, a batched :class:`~repro.dram.stream.CommandStream`
executor, deferred activation runs); this class is the oracle the
differential harness (:mod:`repro.dram.differential`) and the
controller oracle hold it to.  Both engines implement the same public
API, including the read accessors (``pressure``, ``peak``,
``last_aggressor``, ``disturbed_rows``, ``stored_bits``,
``touched_rows``) that sanitizer checkers, chaos injectors and the
oracle use instead of private state.

Both engines share one command front end (this class's
``bulk_activate``, ``activate_run``, ``read``, ``write`` and
``execute`` dispatch loop)
and one event vocabulary (:class:`BankStats`'s ``on_*`` and ``trace_*``
methods: the activation/read/write/refresh counters, the ``dram_*``
metrics, the flip log, the ``activate``/``refresh``/``bit_flip`` trace
events and the physics records), so they differ only in state layout
and kernels.  Trace events leave through one :class:`TraceLine` per
module, in command order on both engines.
The sanitizer reads stored data and charge through
:meth:`DramBank.stored_copy` and :meth:`DramBank.stored_charge`, which
both engines implement without changing any state.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.dram.datapatterns import PatternFn, get_pattern
from repro.dram.disturbance import DisturbanceModel
from repro.dram.geometry import DramGeometry
from repro.dram.stream import (
    OP_ACT,
    OP_PRE,
    OP_READ,
    OP_REF_ALL,
    OP_REF_ROW,
    OP_SETTLE,
    OP_WRITE,
    CommandStream,
)
from repro.sanitizer import runtime as sanit
from repro.telemetry import physics as phys
from repro.telemetry import runtime as telem

#: Bucket edges for the flips-per-materialization histogram.
_FLIP_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Default per-bank flip-log bound — large enough for every experiment
#: in the repo, small enough that a fleet sweep cannot eat the heap.
DEFAULT_FLIP_LOG_CAP = 1_000_000


class _Place:
    """A bank's place in a :class:`TraceLine`: activations ``start`` to
    ``stop`` of its pending run, and their trace events once the bank
    fills the place (``None`` until then)."""

    __slots__ = ("start", "stop", "events")

    def __init__(self, start: int, stop: int) -> None:
        self.start = start
        self.stop = stop
        self.events: Optional[List[tuple]] = None


class TraceLine:
    """The trace events of one module's banks, in command order.

    The columnar engine traces a queued activation only when it commits
    it, or at a quiet deferral.  So while tracing is on, each stretch of
    one bank's consecutive queued activations takes a *place* in line,
    which the bank fills with their events when it traces them.  Every
    other event of the module's banks goes straight to the tracer while
    no place is unfilled, and otherwise waits behind the unfilled places
    until they are filled.  The reference engine takes no place, so its
    events go straight out.  A module's banks share one line; a bank
    outside a module has its own.
    """

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        #: Unfilled or filled places and waiting ``(kind, t, fields)``
        #: events, oldest first; empty, or headed by an unfilled place.
        self._queue: deque = deque()

    def emit(self, kind: str, t: float, fields: Dict[str, Any]) -> None:
        """Trace one event, or queue it behind the unfilled places."""
        if self._queue:
            self._queue.append((kind, t, fields))
        else:
            telem.trace(kind, t=t, **fields)

    def hold(self, places: List[_Place], start: int, stop: int) -> None:
        """Hold activations ``start`` to ``stop`` of a bank's pending run
        in line, whose unfilled places are ``places``: they join the
        bank's last place if it ends at ``start`` and nothing entered
        the line after it, else take a new place at the back."""
        queue = self._queue
        if places and queue[-1] is places[-1] and places[-1].stop == start:
            places[-1].stop = stop
        else:
            place = _Place(start, stop)
            queue.append(place)
            places.append(place)

    def flush(self) -> None:
        """Trace the events at the front of the line, up to the first
        unfilled place."""
        queue = self._queue
        while queue:
            item = queue[0]
            if type(item) is _Place:
                if item.events is None:
                    return
                events = item.events
            else:
                events = (item,)
            queue.popleft()
            for kind, t, fields in events:
                telem.trace(kind, t=t, **fields)


@dataclass
class BankStats:
    """Activity counters for one bank.

    ``flip_log`` holds at most ``flip_log_cap`` (``None``: unbounded)
    entries of ``(row, bit, time, aggressor, hammer, pattern, epoch)`` — each
    flip's full provenance: the dominant aggressor row at flip time
    (``-1`` when none claimed the victim), the accumulated hammer
    pressure that tripped the cell, the stored data pattern, and the
    refresh epoch (``refresh_epoch``, bumped once per bank-wide REF)
    the flip was observed in.  Overflow is counted in ``flips_dropped``
    instead of grown without bound (``flips_materialized`` always
    counts every flip).

    ``line`` (not a field) is the :class:`TraceLine` the bank's trace
    events go through; a module hands its banks one shared line.
    """

    activations: int = 0
    refreshes: int = 0
    reads: int = 0
    writes: int = 0
    flips_materialized: int = 0
    flip_log: List[tuple] = field(default_factory=list)
    flip_log_cap: Optional[int] = DEFAULT_FLIP_LOG_CAP
    flips_dropped: int = 0
    bank_index: int = 0
    refresh_epoch: int = 0

    def __post_init__(self) -> None:
        self.line = TraceLine()

    # ------------------------------------------------------------------
    # The DRAM event vocabulary.  Both engines emit every counter bump,
    # ``dram_*`` metric, flip-log entry, trace event and physics record
    # through these methods, so the engines cannot drift apart, and
    # every trace event through the bank's :class:`TraceLine`, so they
    # leave in command order.
    # ------------------------------------------------------------------
    def on_activate(self, row: int, time: float,
                    count: Optional[int] = None) -> None:
        """``count`` back-to-back activations of ``row``; ``None`` is one
        scalar ACT, whose ``activate`` trace event has no ``count``."""
        n = 1 if count is None else count
        self.activations += n
        if telem.metrics_on:
            telem.counter("dram_activations_total", bank=self.bank_index).inc(n)
        if telem.trace_on:
            fields = {"bank": self.bank_index, "row": row}
            if count is not None:
                fields["count"] = count
            self.line.emit("activate", time, fields)
        if phys.physics_on:
            phys.get_collector().record_activation(self.bank_index, row, n)

    def on_activate_run(self, rows: Sequence[int]) -> None:
        """One scalar ACT of each of ``rows``: the counters, metrics and
        physics heat of as many :meth:`on_activate` calls, recorded at
        once.  Untraced: the columnar engine queues these activations,
        holds their place in line, and fills it with :meth:`trace_run`."""
        n = len(rows)
        self.activations += n
        if telem.metrics_on:
            telem.counter("dram_activations_total", bank=self.bank_index).inc(n)
        if phys.physics_on:
            heat = Counter(rows)
            phys.get_collector().record_activation_batch(
                self.bank_index, heat, heat.values())

    def on_read(self) -> None:
        """One row read."""
        self.reads += 1
        if telem.metrics_on:
            telem.counter("dram_reads_total", bank=self.bank_index).inc()

    def on_write(self) -> None:
        """One row write."""
        self.writes += 1
        if telem.metrics_on:
            telem.counter("dram_writes_total", bank=self.bank_index).inc()

    def on_refresh(self, rows: Sequence[int], time: float,
                   flipped: Optional[Dict[int, int]] = None) -> None:
        """A refresh of each of ``rows`` (repeats count every time).
        ``flipped`` maps each row whose refresh flipped bits (already
        logged by :meth:`on_flips`) to its flip count: that row's
        ``bit_flip`` event follows its first ``refresh`` event, as the
        reference's one-row refreshes trace them."""
        n = len(rows)
        if not n:
            return
        self.refreshes += n
        if telem.metrics_on:
            telem.counter("dram_refreshes_total", bank=self.bank_index).inc(n)
        if telem.trace_on:
            bank = self.bank_index
            emit = self.line.emit
            left = dict(flipped) if flipped else {}
            for row in rows:
                row = int(row)
                emit("refresh", time, {"bank": bank, "row": row})
                bits = left.pop(row, 0)
                if bits:
                    emit("bit_flip", float(time), {"bank": bank, "row": row,
                                                   "bits": bits,
                                                   "cause": "refresh"})

    def flip_metrics(self, cause: str):
        """Resolved ``(counter, histogram)`` for flips of ``cause``, or
        ``None`` when metrics are off.  Registry lookups hash a sorted
        label key, so per-window loops resolve the series once."""
        if not telem.metrics_on:
            return None
        return (telem.counter("dram_bit_flips_total",
                              bank=self.bank_index, cause=cause),
                telem.histogram("dram_flips_per_event", edges=_FLIP_BUCKETS))

    def on_flips(self, rows: Sequence[int], times: Sequence[float],
                 flips: Sequence[np.ndarray], aggressors: Sequence[int],
                 hammers: Sequence[float], pattern: str, cause: str,
                 metrics=None) -> None:
        """Materialization windows that flipped bits, in log order:
        window ``k`` of row ``rows[k]`` flipped the bits ``flips[k]``
        (non-empty) at ``times[k]``, under ``hammers[k]`` accumulated
        pressure dominated by aggressor ``aggressors[k]`` (``-1``: none)
        while ``pattern`` was stored.  Every flip counts; the log keeps
        each with its provenance up to ``flip_log_cap``; metrics and
        physics record once per window.  ``metrics`` is
        :meth:`flip_metrics`'s result for ``cause`` when the caller
        resolved it once per batch.  Untraced: an engine places each
        window's ``bit_flip`` event with :meth:`trace_flips`,
        :meth:`trace_run` or :meth:`on_refresh`."""
        bank = self.bank_index
        epoch = self.refresh_epoch
        log = self.flip_log
        cap = self.flip_log_cap
        if telem.metrics_on:
            counter, histogram = metrics or self.flip_metrics(cause)
        collector = phys.get_collector() if phys.physics_on else None
        for row, time, bits, agg, hammer in zip(rows, times, flips,
                                                aggressors, hammers):
            n = len(bits)
            self.flips_materialized += n
            if telem.metrics_on:
                counter.inc(n)
                histogram.observe(n)
            if collector is not None:
                collector.record_flip_window(bank, int(row), n, float(hammer),
                                             int(agg), pattern, epoch)
            if cap is not None and cap - len(log) < n:
                room = max(cap - len(log), 0)
                self.flips_dropped += n - room
                bits, n = bits[:room], room
            log.extend(zip(repeat(int(row), n), bits.tolist(),
                           repeat(float(time), n), repeat(int(agg), n),
                           repeat(float(hammer), n), repeat(pattern, n),
                           repeat(epoch, n)))

    def trace_flips(self, rows: Sequence[int], times: Sequence[float],
                    counts: Sequence[int], cause: str) -> None:
        """The ``bit_flip`` events of materialization windows, in order:
        window ``k`` of row ``rows[k]`` flipped ``counts[k]`` bits at
        ``times[k]`` (windows that flipped nothing emit no event)."""
        if not telem.trace_on:
            return
        for row, time, n in zip(rows, times, counts):
            if n:
                self.line.emit("bit_flip", float(time),
                               {"bank": self.bank_index, "row": int(row),
                                "bits": int(n), "cause": cause})

    def trace_run(self, rows: Sequence[int], times: Sequence[float],
                  closers: Sequence[int], counts: Sequence[int],
                  places: List[_Place]) -> None:
        """Fill ``places``, the bank's unfilled places in line, with the
        trace events of the activations they hold of a run of scalar
        ACTs, in command order: each ``activate``, followed by the
        ``bit_flip`` of the window it closed.  Activation ``i`` opened
        ``rows[i]`` at ``times[i]``; window ``k`` was closed by
        activation ``closers[k]`` and flipped ``counts[k]`` bits.  Then
        the line moves on, and ``places`` is left empty."""
        flipped = {int(c): int(n) for c, n in zip(closers, counts) if n}
        bank = self.bank_index
        for place in places:
            events = []
            for i in range(place.start, place.stop):
                row, time = rows[i], times[i]
                events.append(("activate", time, {"bank": bank, "row": row}))
                n = flipped.get(i)
                if n:
                    events.append(("bit_flip", float(time),
                                   {"bank": bank, "row": int(row), "bits": n,
                                    "cause": "activate"}))
            place.events = events
        places.clear()
        self.line.flush()

    def on_settle(self, rows_touched: int) -> None:
        """A settle pass over a bank holding ``rows_touched`` rows."""
        if telem.metrics_on:
            telem.histogram("dram_rows_touched").observe(rows_touched)


class DramBank:
    """A single DRAM bank with disturbance-aware storage.

    This class's method bodies are the per-command **reference**
    implementation; modules build :class:`ColumnarDramBank` banks.
    The command front end is shared: ``bulk_activate``, ``read``,
    ``write`` and the ``execute`` dispatch loop live here only, and the
    columnar engine overrides the state-specific hooks they call
    (``_commit``, ``_bulk_activate_body``, ``_activate_run_body``,
    ``_read_row``, ``_store_row``, ``_flush_acts``).

    Args:
        geometry: module organization (rows/row size are read from it).
        model: the module's disturbance model.
        index: bank index within the module.
        default_pattern: fill applied to rows never explicitly written.
    """

    #: Engine label (observations and reports name the engine by it).
    engine = "reference"

    def __init__(
        self,
        geometry: DramGeometry,
        model: DisturbanceModel,
        index: int,
        default_pattern: str = "solid1",
    ) -> None:
        geometry.check_bank(index)
        self.geometry = geometry
        self.model = model
        self.index = index
        self.default_pattern_name = default_pattern
        self._default_pattern: PatternFn = get_pattern(default_pattern)
        self.open_row: Optional[int] = None
        self._stats = BankStats(bank_index=index)
        self._init_storage()

    @property
    def stats(self) -> BankStats:
        """The bank's counters and flip log."""
        return self._stats

    def _init_storage(self) -> None:
        """Install the per-row state containers (engine-specific)."""
        self._data: Dict[int, np.ndarray] = {}
        self._pressure: Dict[int, float] = {}
        self._peak: Dict[int, float] = {}
        self._last_aggressor: Dict[int, int] = {}

    def _commit(self) -> None:
        """Apply deferred activations (the reference defers nothing)."""

    # ------------------------------------------------------------------
    # Data access (physical rows)
    # ------------------------------------------------------------------
    def row_bits(self, row: int) -> np.ndarray:
        """The stored bit array of ``row`` (instantiated on first touch)."""
        self.geometry.check_row(row)
        bits = self._data.get(row)
        if bits is None:
            fill = self._default_pattern(row, self.geometry.row_bytes)
            bits = np.unpackbits(fill, bitorder="little")
            self._data[row] = bits
            if sanit.sanitize_on:
                sanit.note("dram.bank", self, row=row)
        return bits

    def set_default_pattern(self, name: str) -> None:
        """Change the background fill for untouched rows."""
        self._default_pattern = get_pattern(name)
        self.default_pattern_name = name

    # ------------------------------------------------------------------
    # Disturbance bookkeeping
    # ------------------------------------------------------------------
    def pressure(self, row: int) -> float:
        """Current accumulated pressure of ``row``."""
        return self._pressure.get(row, 0.0)

    def peak(self, row: int) -> float:
        """Peak pressure of ``row`` since its flips last materialized."""
        return self._peak.get(row, 0.0)

    def last_aggressor(self, row: int) -> Optional[int]:
        """The immediate neighbor that last disturbed ``row``, if any."""
        return self._last_aggressor.get(row)

    def stored_charge(self, row: int) -> tuple:
        """``(pressure, peak)`` of ``row`` as they stand.  The
        sanitizer's read: like :meth:`stored_copy` it commits no
        pending run on either engine."""
        return self._pressure.get(row, 0.0), self._peak.get(row, 0.0)

    def disturbed_rows(self) -> List[int]:
        """Rows holding disturbance state, in the order first touched
        (the order ``refresh_all`` and ``settle`` visit them)."""
        return list(self._peak)

    def _bump(self, victim: int, weight: float, aggressor: int, record_aggressor: bool = True) -> None:
        if not 0 <= victim < self.geometry.rows:
            return
        new = self._pressure.get(victim, 0.0) + weight
        self._pressure[victim] = new
        if new > self._peak.get(victim, 0.0):
            self._peak[victim] = new
        if record_aggressor:
            # Only immediate neighbors determine the coupling data
            # pattern; weak distance-2 bumps don't claim aggressor-ship.
            self._last_aggressor[victim] = aggressor

    def _materialize(self, row: int, time: float, cause: str = "activate") -> np.ndarray:
        """Apply any pending flips of ``row`` to its stored data."""
        peak = self._peak.get(row, 0.0)
        if peak <= 0:
            return np.empty(0, dtype=np.int64)
        bits = self.row_bits(row)
        aggressor = self._last_aggressor.get(row)
        agg_bits = self.row_bits(aggressor) if aggressor is not None else None
        flipped = self.model.apply_flips(self.index, row, peak, bits, agg_bits)
        self._peak[row] = 0.0
        if len(flipped):
            if sanit.sanitize_on:
                sanit.note("dram.bank", self, row=row)
            self._stats.on_flips(
                (row,), (time,), (flipped,),
                (-1 if aggressor is None else aggressor,), (peak,),
                self.default_pattern_name, cause)
            self._stats.trace_flips((row,), (time,), (len(flipped),), cause)
        return flipped

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def activate(self, row: int, time: float = 0.0) -> None:
        """Open ``row``: sense its cells (materializing flips, resetting its
        disturbance state) and disturb its neighbors."""
        self.geometry.check_row(row)
        if sanit.sanitize_on:
            sanit.check("dram.bank", self, row=row)
        self._stats.on_activate(row, time)
        self._materialize(row, time)
        self._pressure[row] = 0.0
        self._peak[row] = 0.0
        self.open_row = row
        self._bump(row - 1, 1.0, row)
        self._bump(row + 1, 1.0, row)
        d2 = self.model.profile.distance2_weight
        if d2 > 0:
            self._bump(row - 2, d2, row, record_aggressor=False)
            self._bump(row + 2, d2, row, record_aggressor=False)

    def activate_run(self, rows: Sequence[int], times: Sequence[float]) -> None:
        """Activate each of ``rows`` at the matching ``times``, in order.

        Equivalent to :meth:`activate` per pair, but every row is
        validated first, so an out-of-range row raises before any state
        changes.  The reference loops :meth:`activate`; the columnar
        engine queues the whole run at once.
        """
        if len(rows) != len(times):
            raise ValueError(f"{len(rows)} rows but {len(times)} times")
        self._check_rows(rows)
        self._activate_run_body(rows, times)

    def _activate_run_body(self, rows: Sequence[int],
                           times: Sequence[float]) -> None:
        """Issue a validated run: one :meth:`activate` per pair."""
        for row, time in zip(rows, times):
            self.activate(row, time)

    def _check_rows(self, rows: Sequence[int]) -> None:
        """Raise :meth:`DramGeometry.check_row`'s error for the first
        out-of-range row of ``rows``."""
        n_rows = self.geometry.rows
        if len(rows) and (min(rows) < 0 or max(rows) >= n_rows):
            self.geometry.check_row(
                next(row for row in rows if not 0 <= row < n_rows))

    def bulk_activate(self, row: int, count: int, time: float = 0.0) -> None:
        """Apply ``count`` back-to-back activations of ``row`` in one call.

        Exact fast path for hammering loops: pressure accumulation is
        linear in the activation count and thresholds are only checked
        at materialization, so ``count`` activations with no interleaved
        refresh are equivalent to one bulk update.
        """
        self.geometry.check_row(row)
        if count <= 0:
            return
        self._commit()
        if sanit.sanitize_on:
            sanit.check("dram.bank", self, row=row)
        self._stats.on_activate(row, time, count)
        self.open_row = row
        if telem.spans_on:
            with telem.span("dram.bulk_activate"):
                return self._bulk_activate_body(row, count, time)
        return self._bulk_activate_body(row, count, time)

    def _bulk_activate_body(self, row: int, count: int, time: float) -> None:
        """The state change of ``count`` ACTs of ``row`` (already counted)."""
        self._materialize(row, time)
        self._pressure[row] = 0.0
        self._peak[row] = 0.0
        self._bump(row - 1, float(count), row)
        self._bump(row + 1, float(count), row)
        d2 = self.model.profile.distance2_weight
        if d2 > 0:
            self._bump(row - 2, d2 * count, row, record_aggressor=False)
            self._bump(row + 2, d2 * count, row, record_aggressor=False)

    def precharge(self) -> None:
        """Close the open row."""
        self.open_row = None

    def read(self, row: int, time: float = 0.0) -> np.ndarray:
        """Activate-and-read: return a copy of the row's bits."""
        if self.open_row != row:
            self.activate(row, time)
        elif sanit.sanitize_on:
            sanit.check("dram.bank", self, row=row)
        self._stats.on_read()
        return self._read_row(row)

    def _read_row(self, row: int) -> np.ndarray:
        """A copy of the open ``row``'s bits."""
        return self.row_bits(row).copy()

    def write(self, row: int, bits: np.ndarray, time: float = 0.0) -> None:
        """Activate-and-write: replace the row's contents.  Data of the
        wrong shape raises before the row is activated."""
        expected = self.geometry.row_bits
        if bits.shape != (expected,):
            raise ValueError(f"row data must have shape ({expected},), got {bits.shape}")
        if self.open_row != row:
            self.activate(row, time)
        elif sanit.sanitize_on:
            sanit.check("dram.bank", self, row=row)
        self._stats.on_write()
        self._store_row(row, bits)
        if sanit.sanitize_on:
            sanit.note("dram.bank", self, row=row)

    def _store_row(self, row: int, bits: np.ndarray) -> None:
        """Replace the open ``row``'s data and reset its disturbance
        state."""
        self._data[row] = bits.astype(np.uint8, copy=True)
        self._pressure[row] = 0.0
        self._peak[row] = 0.0

    def write_bytes(self, row: int, data: bytes, time: float = 0.0) -> None:
        """Write raw bytes (must be exactly one row)."""
        arr = np.frombuffer(bytes(data), dtype=np.uint8)
        if arr.size != self.geometry.row_bytes:
            raise ValueError(f"expected {self.geometry.row_bytes} bytes, got {arr.size}")
        self.write(row, np.unpackbits(arr, bitorder="little"), time)

    def read_bytes(self, row: int, time: float = 0.0) -> bytes:
        """Read one row as raw bytes."""
        return np.packbits(self.read(row, time), bitorder="little").tobytes()

    def refresh_row(self, row: int, time: float = 0.0) -> np.ndarray:
        """Refresh ``row``: materialize pending flips, reset disturbance state.

        Returns the bit indices that flipped before this refresh caught
        the row (useful for mitigation-effectiveness accounting).
        """
        self.geometry.check_row(row)
        if sanit.sanitize_on:
            sanit.check("dram.bank", self, row=row)
        self._stats.on_refresh((row,), time)
        if not self._peak.get(row) and not self._pressure.get(row):
            # Undisturbed row: refresh is a no-op for the model.
            return np.empty(0, dtype=np.int64)
        flipped = self._materialize(row, time, cause="refresh")
        self._pressure[row] = 0.0
        self._peak[row] = 0.0
        return flipped

    def refresh_rows(self, rows: Sequence[int], time: float = 0.0) -> int:
        """Refresh a batch of physical rows; return the flip count.

        Equivalent to calling :meth:`refresh_row` per row in order (the
        columnar engine overrides this with one batched pass).
        """
        flips = 0
        for row in rows:
            flips += len(self.refresh_row(row, time))
        return flips

    def refresh_all(self, time: float = 0.0) -> int:
        """Refresh every row that has any accumulated state; return flip count."""
        with telem.span("dram.refresh_all"):
            flips = self.refresh_rows(list(self._peak), time)
            # Flips caught by this REF belong to the epoch that just
            # ended; the next epoch starts after materialization.
            self._stats.refresh_epoch += 1
            return flips

    def settle(self, time: float = 0.0) -> int:
        """Materialize pending flips everywhere without resetting counters'
        refresh semantics — used by checkers at end of an experiment."""
        with telem.span("dram.settle"):
            flips = 0
            for row in list(self._peak):
                flips += len(self._materialize(row, time, cause="settle"))
            self._stats.on_settle(len(self._data))
            return flips

    # ------------------------------------------------------------------
    # Command streams
    # ------------------------------------------------------------------
    def execute(self, stream: CommandStream) -> int:
        """Run a :class:`~repro.dram.stream.CommandStream`; return the
        number of flips materialized while it ran.

        This is both engines' dispatch loop.  ACT/PRE entries only do
        the eager bookkeeping (row check, sanitizer check, counters,
        ``open_row``) and gather into an uninterrupted *ACT run*; any
        other entry first hands the run to :meth:`_flush_acts`, then
        dispatches to the matching scalar command.  So a run's
        ``activate`` trace events precede its ``bit_flip`` events on
        both engines.
        """
        with telem.span("dram.execute"):
            before = self.stats.flips_materialized
            stats = self._stats
            rows: List[int] = []
            counts: List[int] = []
            times: List[float] = []
            for cmd in stream:
                op = cmd.op
                if op == OP_ACT:
                    self.geometry.check_row(cmd.row)
                    if cmd.count <= 0:
                        continue
                    if sanit.sanitize_on:
                        sanit.check("dram.bank", self, row=cmd.row)
                    stats.on_activate(cmd.row, cmd.time, cmd.count)
                    rows.append(cmd.row)
                    counts.append(cmd.count)
                    times.append(cmd.time)
                    self.open_row = cmd.row
                    continue
                if op == OP_PRE:
                    self.open_row = None
                    continue
                if rows:
                    self._flush_acts(rows, counts, times)
                    rows, counts, times = [], [], []
                if op == OP_REF_ROW:
                    self.refresh_row(cmd.row, cmd.time)
                elif op == OP_REF_ALL:
                    self.refresh_all(cmd.time)
                elif op == OP_SETTLE:
                    self.settle(cmd.time)
                elif op == OP_WRITE:
                    self.write(cmd.row, stream.payload(cmd.index), cmd.time)
                elif op == OP_READ:
                    self.read(cmd.row, cmd.time)
                else:  # pragma: no cover - builder can't produce this
                    raise ValueError(f"unknown stream opcode {op}")
            if rows:
                self._flush_acts(rows, counts, times)
            return stats.flips_materialized - before

    def _flush_acts(self, rows: List[int], counts: List[int],
                    times: List[float]) -> None:
        """Apply one uninterrupted ACT run of a stream (already counted);
        the reference replays it one bulk activation at a time."""
        for row, count, time in zip(rows, counts, times):
            self._bulk_activate_body(row, count, time)

    def touched_rows(self) -> List[int]:
        """Rows whose data has been instantiated."""
        return sorted(self._data)

    def stored_bits(self, row: int) -> Optional[np.ndarray]:
        """The authoritative stored bit array of ``row`` (mutating it
        mutates the row), or ``None`` if the row was never instantiated.
        Unlike :meth:`row_bits` this never instantiates the row."""
        return self._data.get(row)

    def stored_copy(self, row: int) -> Optional[np.ndarray]:
        """A copy of ``row``'s stored bits, or ``None`` if the row was
        never instantiated.  The sanitizer's read: on both engines it
        changes nothing (no commit, no instantiation, no change in how
        the row is held)."""
        bits = self._data.get(row)
        return None if bits is None else bits.copy()
