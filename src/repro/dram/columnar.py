"""The columnar batched DRAM engine.

:class:`ColumnarDramBank` keeps the exact :class:`~repro.dram.bank.DramBank`
public API and semantics, but stores per-bank state **densely**:

* ``pressure`` / ``peak`` — float64 arrays indexed by physical row;
* ``last_agg`` — int64 array of dominant-aggressor rows (-1 = none);
* ``touched`` + ``touch_order`` — the reference engine's dict-key
  insertion order (which fixes ``refresh_all``/``settle`` iteration and
  therefore flip-log order), as a bool array plus an ordered list;
* stored data **sparsely**: an ``instantiated`` row mask, a ``store``
  dict of rows whose full bit array has been materialized, and a
  ``flips`` dict of flipped-bit indices for rows still representable as
  "background pattern XOR flips".  A 2 GiB-geometry hammering run never
  allocates its 64 K-bit row arrays unless someone actually reads them.

The command front end is :class:`DramBank`'s: ``bulk_activate``,
``read``, ``write`` and the ``execute`` dispatch loop are inherited,
and every counter, ``dram_*`` metric, trace event and physics record
goes through :class:`~repro.dram.bank.BankStats`'s event methods.  This
class overrides only state-specific hooks and kernels.

Whole :class:`~repro.dram.stream.CommandStream` ACT/PRE runs execute as
array programs (``_flush_acts``, the hook ``execute`` hands each
uninterrupted ACT run to): neighbor and distance-2 bumps become one
event table (scattered via ``lexsort`` + prefix sums), per-reset window
pressures and dominant aggressors come from segmented scans, and
materialization evaluates :meth:`DisturbanceModel.flip_mask_batch` over
pre-filtered candidate cells.

Scalar commands have their own columnar bodies; none runs the
reference engine's per-command ``activate``.  ``activate`` (and the
activation inside ``read``/``write``) only appends ``(row, time)`` to
the bank's **pending run**; ``activate_run`` (the controller's pattern
segments) appends a whole run, with its accounting done once.  The run
is committed, in command order, by the first call that can observe or
change what it touches: ``refresh_row``, ``refresh_all`` or
``settle``; a ``refresh_rows`` of a row within distance 2 of a row the
run activates or of a row holding a live window (``peak > 0``);
``execute``, ``bulk_activate`` or a stream ACT run (``_flush_acts``);
``row_bits``; every read accessor (``pressure``, ``peak``,
``last_aggressor``, ``disturbed_rows``, ``stored_bits``,
``touched_rows``), which chaos injectors and the oracle use on both
engines; ``set_default_pattern``; reading the ``stats`` attribute; the
``_RUN_LIMIT``-th queued activation; and a ``read`` or ``write`` while
the run is not **quiet** (:meth:`ColumnarDramBank._quiet`: some
window it closes may reach the flip floor).  A quiet run flips nothing
and reads no row's content, so a read returns the row as it stands
and a write of the row the run's last activation opened stores its
data at once, with the run left pending (that activation resets and
touches the row when the run commits).  Any other ``refresh_rows`` (an
auto-refresh chunk far from a hammer loop) reads and writes nothing
the run touches and flips nothing, so it runs with the run left
pending.  ``open_row`` and the activation counters update eagerly.

The commit replays the run's resets and neighbor bumps on a small
row-keyed overlay in plain float arithmetic, per row in the same order
as the reference's ``_bump`` calls, so pressures, peaks and each
window's ``hammer`` are bit-identical to the reference.  A long run
that cycles a short pattern (a hammer loop) is stepped for two to
three periods only: the rest repeats the last stepped period's windows,
and the rows it never activates fold their remaining bumps in one
``np.add.accumulate``.  The commit writes the touched rows back to the
columns once and hands every closed window with peak > 0 to the
batched materializer, which applies them in command order.

Observers never choose the path: commits fall, and windows
materialize, exactly as above whether or not the sanitizer or tracing
is on.  A commit checks each row the run activates before applying it
and notes the shadow digest of every row it instantiates or flips; the
checker reads rows through :meth:`stored_copy` and charge through
:meth:`stored_charge`, which change nothing.
While tracing is on, each stretch of the bank's consecutive queued
activations holds one place in its module's
:class:`~repro.dram.bank.TraceLine`, and every other event of the
module's banks waits behind the unfilled places.  A commit fills the
run's places in command order (each ``activate``, then the
``bit_flip`` of the window it closed), so where commits fall does not
change the trace.  A quiet read or write checks the activations
queued since the last one and fills their places (a quiet prefix has
no ``bit_flip``); the commit then checks and traces only the rest.  A
batched refresh traces each ``refresh`` followed by that row's
``bit_flip``, as the reference's one-row refreshes do.  A stream ACT
run emits all its ``activate`` events before the run's ``bit_flip``
events on both engines, so a ``bit_flip`` can follow an ``activate``
with a later time.

Equivalence contract: for any command sequence, this engine and the
reference engine produce identical flip logs, ``BankStats``, sanitizer
shadow digests, stored data, touch order, and trace events in the same
order.  Scalar commands are float-exact as well.  Only ``execute`` ACT runs may move pressure/peak
(and so a flip's ``hammer``) at the ulp level: they add each window once
via prefix sums where the reference accumulates per command.
:mod:`repro.dram.differential` enforces the contract on randomized
streams and scalar scripts.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dram.bank import BankStats, DramBank, _Place
from repro.dram.disturbance import BLOCK_ROWS, WeakCellSet, _sorted_unique
from repro.sanitizer import runtime as sanit
from repro.telemetry import runtime as telem

__all__ = ["ColumnarDramBank"]

#: Cached background-pattern byte rows (sparse value gathers read the
#: fill without unpacking whole rows); oldest-inserted evicted first.
_FILL_CACHE_LIMIT = 4096

_EMPTY_BITS = np.empty(0, dtype=np.int64)

#: Longest pending activation run before ``activate`` commits it.  A
#: commit is exact at any point, so the cap only bounds the memory a
#: long run holds (a SoftMC hammer loop; a controller hammer loop, whose
#: auto-refreshes of far rows leave it pending).
_RUN_LIMIT = 2048

#: The per-period replay of :meth:`ColumnarDramBank._apply_acts`: a
#: committed run takes it when it is at least ``_PERIODIC_MIN_RUN``
#: activations long and its rows repeat with a period ``P`` of at most
#: ``_PERIOD_MAX`` that fits in it ``_PERIODIC_MIN_PERIODS`` times.
#: Measured crossover (best of 30 commits on a fresh bank, the
#: experiments' scaled profile, a 2-vCPU shared Linux VM, Python 3.11):
#: a 2048-activation run takes the loop 2.1-2.5 ms and the replay 0.17 ms
#: at P = 2, 0.4 ms at P = 18 and 1.0 ms at P = 64; the replay first
#: wins at n = 64 for P = 2, n = 128 for P = 8, n = 256 for P = 18 and
#: n = 512 for P = 32, and only ties at P = 128.  Exactness holds for
#: any run of two periods or more; these bounds only pick the faster
#: path.
_PERIODIC_MIN_RUN = 64
_PERIODIC_MIN_PERIODS = 16
_PERIOD_MAX = 64

#: :meth:`ColumnarDramBank._quiet` compares a run's bound with the flip
#: floor scaled by this margin: the run's bumps add up one float
#: addition at a time, each rounding by at most half an ulp, so over
#: ``_RUN_LIMIT`` activations the sums can exceed their exact values by
#: a relative 1e-12 at most.
_QUIET_MARGIN = 1.0 - 1e-9


class _ColumnarState:
    """Dense per-bank state backing the columnar engine.

    Columns allocate lazily on first access: a module constructs one
    state per bank, but untouched banks never pay for their arrays
    (the reference engine's empty dicts are equally free).
    """

    __slots__ = (
        "rows",
        "_pressure",
        "_peak",
        "_last_agg",
        "_touched",
        "touch_order",
        "_instantiated",
        "store",
        "flips",
        "fill_cache",
    )

    def __init__(self, rows: int) -> None:
        self.rows = rows
        self._pressure: Optional[np.ndarray] = None
        self._peak: Optional[np.ndarray] = None
        self._last_agg: Optional[np.ndarray] = None
        self._touched: Optional[np.ndarray] = None
        self.touch_order: List[int] = []
        self._instantiated: Optional[np.ndarray] = None
        self.store: Dict[int, np.ndarray] = {}
        self.flips: Dict[int, np.ndarray] = {}
        self.fill_cache: Dict[int, np.ndarray] = {}

    @property
    def pressure(self) -> np.ndarray:
        if self._pressure is None:
            self._pressure = np.zeros(self.rows, dtype=np.float64)
        return self._pressure

    @property
    def peak(self) -> np.ndarray:
        if self._peak is None:
            self._peak = np.zeros(self.rows, dtype=np.float64)
        return self._peak

    @property
    def last_agg(self) -> np.ndarray:
        if self._last_agg is None:
            self._last_agg = np.full(self.rows, -1, dtype=np.int64)
        return self._last_agg

    @property
    def touched(self) -> np.ndarray:
        if self._touched is None:
            self._touched = np.zeros(self.rows, dtype=bool)
        return self._touched

    @property
    def instantiated(self) -> np.ndarray:
        if self._instantiated is None:
            self._instantiated = np.zeros(self.rows, dtype=bool)
        return self._instantiated

    def touch(self, row: int) -> None:
        touched = self.touched
        if not touched[row]:
            touched[row] = True
            self.touch_order.append(int(row))


def _first_occurrence(values: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct value, ascending
    by position (order-preserving dedup without hash-based np.unique)."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    first = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    return np.sort(order[first])


def _run_period(rows: List[int]) -> int:
    """The shortest period ``P`` of ``rows`` (``rows[i] == rows[i + P]``
    throughout) that is at most ``_PERIOD_MAX`` and fits in the run
    ``_PERIODIC_MIN_PERIODS`` times, or 0 if there is none."""
    first = rows[0]
    for p in range(1, min(_PERIOD_MAX, len(rows) // _PERIODIC_MIN_PERIODS) + 1):
        if rows[p] == first and rows[p:] == rows[:-p]:
            return p
    return 0


def _fold_periods(overlay: Dict[int, list], resolved: Dict[int, tuple],
                  template: List[int], reps: int, bumps: tuple) -> None:
    """Apply ``reps`` more periods of the activation pattern ``template``
    to the overlay cells no activation resets (those not in
    ``resolved``).  ``bumps`` lists ``(offset, weight)`` in the
    reference's bump order.

    Such a cell only accumulates: one padded 2-D ``np.add.accumulate``
    folds every cell's bumps left to right from its pressure, the same
    additions in the same order as the loop (a 0.0 pad adds nothing).
    Bumps are non-negative, so the last sum is the running maximum and
    the peak is the larger of it and the old peak.  The cell's last
    aggressor stays: the last period claims it as ``template`` did.
    """
    weights: Dict[int, List[float]] = {}
    for row in template:
        for off, weight in bumps:
            cell = row + off
            if cell in overlay and cell not in resolved:
                weights.setdefault(cell, []).append(weight)
    if not weights:
        return
    cells = list(weights)
    width = max(map(len, weights.values()))
    steps = np.zeros((len(cells), reps, width))
    for k, cell in enumerate(cells):
        steps[k, :, :len(weights[cell])] = weights[cell]
    steps = steps.reshape(len(cells), reps * width)
    # The fold's first addition, pressure + first bump, then the rest.
    steps[:, 0] += [overlay[cell][0] for cell in cells]
    for cell, total in zip(cells, np.add.accumulate(steps, axis=1)[:, -1].tolist()):
        entry = overlay[cell]
        entry[0] = total
        if total > entry[1]:
            entry[1] = total


class ColumnarDramBank(DramBank):
    """Columnar batched engine behind the :class:`DramBank` API."""

    engine = "columnar"

    def _init_storage(self) -> None:
        self._cs = _ColumnarState(self.geometry.rows)
        #: Deferred activations in command order: their rows, and
        #: their times in a parallel list.
        self._run: List[int] = []
        self._run_times: List[float] = []
        #: The bank's unfilled places in its module's trace line
        #: (:class:`~repro.dram.bank.TraceLine`), oldest first.
        self._places: List[_Place] = []
        #: ``(lo, hi, scanned)``: every row within distance 2 of the
        #: run's first ``scanned`` activations lies in ``[lo, hi]``.
        self._reach = (self.geometry.rows, -1, 0)
        #: ``(top, scanned)``: the largest stored pressure or peak of
        #: the rows the run's first ``scanned`` activations open.
        self._charge = (0.0, 0)
        #: The run's first ``_traced`` activations are already checked
        #: and traced (a quiet prefix, see :meth:`_quiet`).
        self._traced = 0

    @property
    def stats(self) -> BankStats:
        """The bank's counters and flip log, pending run applied."""
        if self._run:
            self._commit()
        return self._stats

    # ------------------------------------------------------------------
    # Sparse storage
    # ------------------------------------------------------------------
    def _fill_bytes(self, row: int) -> np.ndarray:
        """The row's background-fill bytes (shared, treat as read-only).

        Patterns that declare a ``row_period`` repeat every few rows, so
        the cache keys on ``row % period`` and one buffer serves every
        row of the class; aperiodic patterns cache per row.
        """
        state = self._cs
        period = getattr(self._default_pattern, "row_period", 0)
        key = row % period if period else row
        fill = state.fill_cache.get(key)
        if fill is None:
            fill = self._default_pattern(row, self.geometry.row_bytes)
            while state.fill_cache and len(state.fill_cache) >= _FILL_CACHE_LIMIT:
                state.fill_cache.pop(next(iter(state.fill_cache)))
            state.fill_cache[key] = fill
        return fill

    def _held_bits(self, row: int) -> np.ndarray:
        """A fresh array of the row's background fill XOR its pending
        flips (what a row outside ``store`` holds)."""
        bits = np.unpackbits(self._fill_bytes(row), bitorder="little")
        flips = self._cs.flips.get(row)
        if flips is not None:
            bits[flips] ^= 1
        return bits

    def _row_array(self, row: int) -> np.ndarray:
        """The row's full bit array, materialized into ``store``."""
        state = self._cs
        bits = state.store.get(row)
        if bits is None:
            bits = self._held_bits(row)
            state.flips.pop(row, None)
            state.store[row] = bits
            state.instantiated[row] = True
        return bits

    def _instantiate(self, rows) -> None:
        """Mark ``rows`` (one row or an array) instantiated: their data
        now exists, held as fill XOR flips.  Each newly instantiated
        row's shadow digest is noted."""
        instantiated = self._cs.instantiated
        fresh = ([row for row in dict.fromkeys(np.atleast_1d(rows).tolist())
                  if not instantiated[row]] if sanit.full_on else ())
        instantiated[rows] = True
        for row in fresh:
            sanit.note("dram.bank", self, row=row)

    def _row_values(self, row: int, bits: np.ndarray) -> np.ndarray:
        """Stored 0/1 values of ``row`` at bit positions ``bits`` without
        materializing the row."""
        state = self._cs
        arr = state.store.get(row)
        if arr is not None:
            return arr[bits]
        fill = self._fill_bytes(row)
        values = (fill[bits >> 3] >> (bits & 7).astype(np.uint8)) & 1
        flips = state.flips.get(row)
        if flips is not None and len(flips):
            # flips is kept sorted, so membership is a searchsorted probe
            # (np.isin pays a large dispatch overhead per call).
            slot = np.minimum(np.searchsorted(flips, bits), len(flips) - 1)
            values = values ^ (flips[slot] == bits)
        return values.astype(np.uint8, copy=False)

    def _apply_row_flips(self, row: int, flipped: np.ndarray) -> None:
        """Record flipped bits for ``row``.  ``flipped`` must be sorted
        ascending (CSR cell slices already are) so first-time rows store
        it directly; merges re-sort."""
        state = self._cs
        arr = state.store.get(row)
        if arr is not None:
            arr[flipped] ^= 1
        else:
            previous = state.flips.get(row)
            state.flips[row] = (
                flipped if previous is None
                else np.sort(np.concatenate([previous, flipped]))
            )
            state.instantiated[row] = True
        if sanit.full_on:
            sanit.note("dram.bank", self, row=row)

    def row_bits(self, row: int) -> np.ndarray:
        self.geometry.check_row(row)
        self._commit()
        return self._sensed(row)

    def _sensed(self, row: int) -> np.ndarray:
        """:meth:`row_bits` of a valid row, without a commit (the caller
        committed the pending run, or it is quiet)."""
        fresh = not self._cs.instantiated[row]
        bits = self._row_array(row)
        if fresh and sanit.sanitize_on:
            sanit.note("dram.bank", self, row=row)
        return bits

    # ------------------------------------------------------------------
    # Read accessors (each commits the pending run first)
    # ------------------------------------------------------------------
    def _column_value(self, column: str, row: int, default):
        """``column``'s value at ``row`` if the row is touched, else
        ``default`` (untouched rows never allocate a column)."""
        self._commit()
        state = self._cs
        if (state._touched is None or not 0 <= row < state.rows
                or not state._touched[row]):
            return default
        return getattr(state, column).item(row)

    def pressure(self, row: int) -> float:
        return self._column_value("pressure", row, 0.0)

    def peak(self, row: int) -> float:
        return self._column_value("peak", row, 0.0)

    def last_aggressor(self, row: int) -> Optional[int]:
        agg = self._column_value("last_agg", row, -1)
        return agg if agg >= 0 else None

    def stored_charge(self, row: int) -> tuple:
        # No commit: the columns as they stand, before any pending window.
        state = self._cs
        if state._touched is None or not state._touched[row]:
            return 0.0, 0.0
        return state.pressure.item(row), state.peak.item(row)

    def disturbed_rows(self) -> List[int]:
        self._commit()
        return list(self._cs.touch_order)

    def touched_rows(self) -> List[int]:
        self._commit()
        mask = self._cs._instantiated
        return [] if mask is None else np.nonzero(mask)[0].tolist()

    def _is_instantiated(self, row: int) -> bool:
        mask = self._cs._instantiated
        return mask is not None and 0 <= row < self._cs.rows and bool(mask[row])

    def stored_bits(self, row: int) -> Optional[np.ndarray]:
        # An instantiated row still held as "pattern XOR flips" gets its
        # full array now, so in-place edits reach the authoritative copy.
        self._commit()
        return self._row_array(row) if self._is_instantiated(row) else None

    def stored_copy(self, row: int) -> Optional[np.ndarray]:
        # No commit: the data as it stands, before any pending window.
        if not self._is_instantiated(row):
            return None
        bits = self._cs.store.get(row)
        return self._held_bits(row) if bits is None else bits.copy()

    def set_default_pattern(self, name: str) -> None:
        # Pending windows flip (and log) against the old pattern, and
        # instantiated rows keep their data: rows still held as "pattern
        # XOR flips" get their full arrays before the fill changes.
        self._commit()
        mask = self._cs._instantiated
        if mask is not None:
            for row in np.nonzero(mask)[0].tolist():
                self._row_array(row)
        super().set_default_pattern(name)
        # Cached fill rows came from the previous pattern.
        self._cs.fill_cache.clear()

    # ------------------------------------------------------------------
    # Scalar commands: deferred activation runs
    # ------------------------------------------------------------------
    def activate(self, row: int, time: float = 0.0) -> None:
        """Open ``row``.  The activation joins the pending run: its
        materialization, neighbor bumps, sanitizer check and trace
        event happen at the next commit."""
        self.geometry.check_row(row)
        self._stats.on_activate_run((row,))
        self.open_row = row
        run = self._run
        if telem.trace_on:
            self._stats.line.hold(self._places, len(run), len(run) + 1)
        run.append(row)
        self._run_times.append(time)
        if len(run) >= _RUN_LIMIT:
            self._commit()

    def _activate_run_body(self, rows: Sequence[int],
                           times: Sequence[float]) -> None:
        """Queue the run onto the pending run, with the bank's accounting
        done once.  The pending run commits at the same activations as
        if they were queued one by one."""
        if not len(rows):
            return
        self._stats.on_activate_run(rows)
        self.open_row = rows[-1]
        start = 0
        while len(self._run) + len(rows) - start >= _RUN_LIMIT:
            stop = start + _RUN_LIMIT - len(self._run)
            self._queue(rows[start:stop], times[start:stop])
            self._commit()
            start = stop
        self._queue(rows[start:], times[start:])

    def _queue(self, rows: Sequence[int], times: Sequence[float]) -> None:
        """Append activations to the pending run, holding their place
        in line while tracing is on."""
        run = self._run
        if telem.trace_on and len(rows):
            self._stats.line.hold(self._places, len(run), len(run) + len(rows))
        run += rows
        self._run_times += times

    def _bulk_activate_body(self, row: int, count: int, time: float) -> None:
        _closers, counts = self._apply_acts((row,), (time,), count)
        self._stats.trace_flips([row] * len(counts), [time] * len(counts),
                                counts, "activate")

    def _read_row(self, row: int) -> np.ndarray:
        # A quiet run flips nothing, so the row holds what it will hold
        # once the run commits.
        if self._run and self._quiet():
            self._trace_prefix()
        else:
            self._commit()
        return self._sensed(row).copy()

    def _store_row(self, row: int, bits: np.ndarray) -> None:
        state = self._cs
        run = self._run
        # A quiet run reads no row's content, so the write need not
        # wait for it; the run's last activation, which opened this row,
        # resets and touches it in command order when the run commits.
        # Otherwise pending windows read this row's old content.
        deferred = bool(run) and run[-1] == row and self._quiet()
        if deferred:
            self._trace_prefix()
        else:
            self._commit()
        state.store[row] = bits.astype(np.uint8, copy=True)
        state.flips.pop(row, None)
        state.instantiated[row] = True
        if not deferred:
            state.pressure[row] = 0.0
            state.peak[row] = 0.0
            state.touch(row)

    def refresh_row(self, row: int, time: float = 0.0) -> np.ndarray:
        self.geometry.check_row(row)
        self._commit()
        if sanit.sanitize_on:
            sanit.check("dram.bank", self, row=row)
        self._stats.on_refresh((row,), time)
        state = self._cs
        if state._touched is None or not state._touched[row]:
            # Undisturbed row: refresh is a no-op for the model.
            return _EMPTY_BITS
        peak = state.peak.item(row)
        if not peak and not state.pressure[row]:
            return _EMPTY_BITS
        flipped = _EMPTY_BITS
        if peak > 0:
            flipped = self._materialize_window(
                row, peak, state.last_agg.item(row), time, "refresh")
            self._stats.trace_flips((row,), (time,), (len(flipped),),
                                    "refresh")
        state.pressure[row] = 0.0
        state.peak[row] = 0.0
        return flipped

    def _commit(self) -> None:
        """Apply the pending activation run, if any: check each row it
        activates, apply it, and fill its places in line (all past the
        quiet prefix :meth:`_quiet` already checked and traced)."""
        if self._run:
            rows, self._run = self._run, []
            times, self._run_times = self._run_times, []
            start, self._traced = self._traced, 0
            places, self._places = self._places, []
            self._reach = (self._cs.rows, -1, 0)
            self._charge = (0.0, 0)
            if sanit.sanitize_on:
                for row in dict.fromkeys(rows[start:]):
                    sanit.check("dram.bank", self, row=row)
            closers, counts = self._apply_acts(rows, times, 1)
            if places:
                self._stats.trace_run(rows, times, closers, counts, places)

    def _quiet(self) -> bool:
        """Whether no window the pending run closes can reach the flip
        floor, so the run flips nothing and reads no row's content.

        A window closed at a row the run activates peaks at most at the
        row's stored pressure or peak plus what the run's activations
        before it added, and each adds at most ``max(1, d2)`` to any one
        row.  So the run is quiet when the largest stored pressure or
        peak of its rows plus its length times that bump lies below the
        floor (by a margin for the rounding of the bumps' sums).  The
        rows' stored charge is scanned once per activation: nothing
        that leaves the run pending raises it.  Only bank state decides:
        an observer on or off makes the same call.
        """
        run = self._run
        n = len(run)
        bump = max(1.0, self.model.profile.distance2_weight)
        floor = self._flip_floor() * _QUIET_MARGIN
        if n * bump >= floor:  # a long run: no need to scan its rows
            return False
        top, scanned = self._charge
        if scanned < n:
            state = self._cs
            queued = dict.fromkeys(run[scanned:])
            top = max(top, max(map(state.pressure.item, queued)),
                      max(map(state.peak.item, queued)))
            self._charge = (top, n)
        return top + n * bump < floor

    def _trace_prefix(self) -> None:
        """Check the quiet run's activations queued since the last call
        and fill their places in line (a quiet run has no
        ``bit_flip``), as a commit would; the run stays pending."""
        run = self._run
        start = self._traced
        if sanit.sanitize_on:
            for row in dict.fromkeys(run[start:]):
                sanit.check("dram.bank", self, row=row)
        if self._run is run:  # a chaos injector's accessor may commit
            if self._places:
                self._stats.trace_run(run, self._run_times, (), (),
                                      self._places)
            self._traced = len(run)

    def _refresh_defers(self, rows: List[int]) -> bool:
        """Whether a refresh of ``rows`` may run with the pending run
        still pending: no refreshed row lies within distance 2 of a row
        the run activates (so the run reads and writes none of their
        state) and none holds a live window (so the refresh flips and
        logs nothing, and the flip log keeps its order).  The reach is
        an interval, so it may commit more often than needed, which is
        always exact."""
        lo, hi, scanned = self._reach
        run = self._run
        if scanned < len(run):
            queued = run[scanned:]
            lo = min(lo, min(queued) - 2)
            hi = max(hi, max(queued) + 2)
            self._reach = (lo, hi, len(run))
        if any(lo <= row <= hi for row in rows):
            return False
        peak = self._cs._peak
        return peak is None or max(map(peak.item, rows)) <= 0

    def _apply_acts(self, rows: Sequence[int], times: Sequence[float],
                    count: int) -> tuple:
        """Apply activations of ``rows`` at ``times`` in command order,
        each ``count`` back-to-back ACTs of its row, exactly as the
        reference's scalar ``activate``/``bulk_activate`` do.

        Resets and bumps replay on a row-keyed overlay of ``[pressure,
        peak, last aggressor]`` in plain float arithmetic: per row, the
        same additions in the same order as the reference's ``_bump``
        calls, so every value is bit-identical (nothing is derived by
        subtracting prefix sums).  Each distinct activated row resolves
        its own cell and its in-range neighbor cells once, at its first
        activation, so the per-activation loop does no bounds checks
        and no neighbor lookups.  A cell's first load appends its row to
        the touch order where the reference's first dict insertion
        would: at the first activation that touches it, in bump order
        (a row's later activations touch no new cells).

        A long run whose rows repeat with a short period ``P`` (a hammer
        loop) is stepped only for its first two to three periods, up to
        the position in phase with its last activation.  From the second
        period on, the state of each row the pattern activates repeats
        every period (each window starts from 0.0 and sees the same
        bumps), so the rest of the run repeats the last stepped period's
        windows and leaves those rows as the stepping did.  The cells no
        activation resets fold their remaining bumps with
        :func:`_fold_periods`.

        The overlay is written back once; then every window an
        activation closed with peak > 0 materializes, in command order.
        Returns each window's closing activation (an index into
        ``rows``) and flip count.
        """
        state = self._cs
        pressure, peak, last_agg = state.pressure, state.peak, state.last_agg
        touched, touch_order = state.touched, state.touch_order
        n_rows = state.rows
        weight = float(count)
        d2 = self.model.profile.distance2_weight
        far_weight = d2 * count
        # The reference's bump order: row-1, row+1 (claiming), row-2, row+2.
        offsets = (0, -1, 1, -2, 2) if d2 > 0 else (0, -1, 1)
        n = len(rows)
        period = _run_period(rows) if count == 1 and n >= _PERIODIC_MIN_RUN else 0
        stepped = 2 * period + (n - 2 * period) % period if period else n
        overlay: Dict[int, list] = {}
        #: row -> (own cell, in-range distance-1 cells, distance-2 cells)
        resolved: Dict[int, tuple] = {}
        closers: List[int] = []
        peaks: List[float] = []
        aggs: List[int] = []
        for i in range(stepped):
            row = rows[i]
            entry = resolved.get(row)
            if entry is None:
                cells = []
                for off in offsets:
                    r = row + off
                    if not 0 <= r < n_rows:
                        cells.append(None)
                        continue
                    cell = overlay.get(r)
                    if cell is None:
                        if not touched[r]:
                            touched[r] = True
                            touch_order.append(int(r))
                        cell = overlay[r] = [pressure.item(r), peak.item(r),
                                             last_agg.item(r)]
                    cells.append(cell)
                entry = resolved[row] = (
                    cells[0],
                    [c for c in cells[1:3] if c is not None],
                    [c for c in cells[3:] if c is not None])
            own, near, far = entry
            if own[1] > 0:
                closers.append(i)
                peaks.append(own[1])
                aggs.append(own[2])
            own[0] = own[1] = 0.0
            for cell in near:
                new = cell[0] + weight
                cell[0] = new
                if new > cell[1]:
                    cell[1] = new
                cell[2] = row
            for cell in far:
                new = cell[0] + far_weight
                cell[0] = new
                if new > cell[1]:
                    cell[1] = new
        reps = (n - stepped) // period if period else 0
        if reps:
            bumps = ((-1, weight), (1, weight))
            if d2 > 0:
                bumps += ((-2, far_weight), (2, far_weight))
            _fold_periods(overlay, resolved, rows[stepped - period:stepped],
                          reps, bumps)
        for row, (p, k, agg) in overlay.items():
            pressure[row] = p
            peak[row] = k
            last_agg[row] = agg
        if not closers:
            return (), ()
        w_idx = np.array(closers, dtype=np.int64)
        w_peak = np.array(peaks, dtype=np.float64)
        w_agg = np.array(aggs, dtype=np.int64)
        if reps:
            # Windows closed from the second period on recur every
            # period.  Those below the flip floor only instantiate their
            # rows, which their stepped copies already did, so only the
            # live ones repeat.
            first = bisect_left(closers, stepped - period)
            live = first + np.flatnonzero(w_peak[first:] >= self._flip_floor())
            if len(live):
                shifts = np.arange(period, reps * period + 1, period)
                w_idx = np.concatenate(
                    (w_idx, (w_idx[live] + shifts[:, None]).ravel()))
                w_peak = np.concatenate((w_peak, np.tile(w_peak[live], reps)))
                w_agg = np.concatenate((w_agg, np.tile(w_agg[live], reps)))
        at = w_idx.tolist()
        w_row = np.array([rows[i] for i in at], dtype=np.int64)
        w_time = np.array([times[i] for i in at], dtype=np.float64)
        return w_idx, self._materialize_batch(w_row, w_peak, w_agg, w_time,
                                              "activate")

    # ------------------------------------------------------------------
    # Batched materialization
    # ------------------------------------------------------------------
    def _materialize_batch(
        self,
        vrows: np.ndarray,
        peaks: np.ndarray,
        aggs: np.ndarray,
        times: np.ndarray,
        cause: str,
    ) -> np.ndarray:
        """Materialize a sequence of pending-flip windows in order and
        return each window's flip count.

        ``vrows``/``peaks``/``aggs``/``times`` are parallel arrays in
        reference materialization order; every ``peaks`` entry is > 0
        and ``aggs`` uses -1 for "no recorded aggressor".  Flips apply
        in window order, so later windows read data already disturbed
        by earlier ones — exactly the reference's sequential behavior.

        A window whose peak sits below the lowest threshold any cell can
        have (the profile floor) flips nothing, reads nothing and
        invalidates nothing: it only instantiates its rows, so a batch
        drops it up front.  The common case of what remains (distinct
        victim rows) runs as one array program over every window's
        candidate cells; repeated victims fall back to the per-window
        loop.  The flips are recorded here; the caller traces them,
        since only it knows where each ``bit_flip`` event belongs.
        """
        if len(vrows) > 1:
            live = self._flip_floor() <= peaks
            if not live.all():
                self._instantiate(vrows)
                self._instantiate(aggs[aggs >= 0])
                counts = np.zeros(len(vrows), dtype=np.int64)
                if live.any():
                    counts[live] = self._materialize_batch(
                        vrows[live], peaks[live], aggs[live], times[live],
                        cause)
                return counts
            srt = np.sort(vrows)
            if not (srt[1:] == srt[:-1]).any():
                return self._materialize_vectorized(vrows, peaks, aggs,
                                                    times, cause)
        metrics = self._stats.flip_metrics(cause)
        return np.array([len(self._materialize_window(
            int(vrows[i]), float(peaks[i]), int(aggs[i]), float(times[i]),
            cause, metrics)) for i in range(len(vrows))], dtype=np.int64)

    def _flip_floor(self) -> float:
        """The lowest pressure at which any cell of the profile can flip.

        Aggressor-sensitive relief normally *raises* thresholds; only a
        relief factor below 1 could let hc_first > peak cells flip.
        """
        profile = self.model.profile
        return profile.hc_first_min * min(1.0, profile.dpd_relief)

    def _flip_row_now(self, row: int, peak: float, agg: int) -> np.ndarray:
        """Bit indices of ``row`` that flip at ``peak`` against the
        *current* stored content (not yet applied)."""
        model = self.model
        # Content-independent prechecks: no threshold sits below the
        # profile floor, and no cell in the row sits below its min_hc —
        # either one above the peak means nothing can flip (and the
        # first avoids fetching the weak-cell block at all).
        if self._flip_floor() > peak:
            return _EMPTY_BITS
        relief_floor = min(1.0, model.profile.dpd_relief)
        block = model.weak_cells_block(self.index, row)
        rel = row - block.start
        if block.min_hc[rel] * relief_floor > peak:
            return _EMPTY_BITS
        lo, hi = int(block.offsets[rel]), int(block.offsets[rel + 1])
        hc = block.hc_first[lo:hi]
        candidate = hc * relief_floor <= peak
        cbits = block.bits[lo:hi][candidate]
        victim_vals = self._row_values(row, cbits)
        agg_vals = self._row_values(agg, cbits) if agg >= 0 else None
        subset = WeakCellSet(
            bits=cbits,
            hc_first=hc[candidate],
            anti=block.anti[lo:hi][candidate],
            aggressor_sensitive=block.aggressor_sensitive[lo:hi][candidate],
        )
        mask = model.flip_mask_batch(subset, peak, victim_vals, agg_vals)
        return cbits[mask]

    def _materialize_window(self, row: int, peak: float, agg: int,
                            time: float, cause: str,
                            metrics=None) -> np.ndarray:
        """Materialize one pending-flip window of ``row`` (``peak`` > 0),
        record its flips and return the flipped bit indices.
        ``metrics`` is :meth:`BankStats.flip_metrics`'s result for
        ``cause``."""
        self._instantiate(row)
        if agg >= 0:
            self._instantiate(agg)
        flipped = self._flip_row_now(row, peak, agg)
        if len(flipped):
            self._apply_row_flips(row, flipped)
            self._stats.on_flips((row,), (time,), (flipped,), (agg,), (peak,),
                                 self.default_pattern_name, cause, metrics)
        return flipped

    def _materialize_vectorized(
        self,
        vrows: np.ndarray,
        peaks: np.ndarray,
        aggs: np.ndarray,
        times: np.ndarray,
        cause: str,
    ) -> np.ndarray:
        """One array program per weak-cell block over every window's
        candidate cells; returns each window's flip count.

        Victim rows are distinct here, so windows can only interact
        through a *dominant aggressor* whose own row flipped earlier in
        the batch; gathers run optimistically against batch-start
        content and any window whose aggressor row got dirtied earlier
        re-evaluates sequentially (rare: aggressors are usually the
        hammered rows, which accumulate little pressure themselves).
        """
        model = self.model
        bank_index = self.index
        state = self._cs
        relief_floor = min(1.0, model.profile.dpd_relief)
        self._instantiate(vrows)
        self._instantiate(aggs[aggs >= 0])

        starts = vrows - vrows % BLOCK_ROWS
        store, sflips = state.store, state.flips
        #: window index -> (bits, mask, chunk start, chunk end, flip count)
        chunks: Dict[int, tuple] = {}
        for start in sorted(set(starts.tolist())):
            block = model.weak_cells_block(bank_index, int(start))
            sel = np.nonzero(starts == start)[0]
            rel = vrows[sel] - start
            # The row's lowest threshold decides whether any candidate
            # cell exists at its peak; windows that can't flip need no
            # gather (and can't be invalidated either — the precheck is
            # content-independent).
            live = block.min_hc[rel] * relief_floor <= peaks[sel]
            sel = sel[live]
            if not len(sel):
                continue
            rel = rel[live]
            lo = block.offsets[rel]
            hi = block.offsets[rel + 1]
            lens = hi - lo
            total_cells = int(lens.sum())
            if total_cells == 0:
                continue
            cum = np.cumsum(lens)
            # Ragged gather: window j's cells occupy block CSR indices
            # [lo[j], hi[j]) — one shifted arange covers all windows.
            idx = np.arange(total_cells, dtype=np.int64) + np.repeat(
                lo - np.concatenate(([0], cum[:-1])), lens)
            hc = block.hc_first[idx]
            cell_peak = np.repeat(peaks[sel], lens)
            candidate = hc * relief_floor <= cell_peak
            cidx = idx[candidate]
            bits = block.bits[cidx]
            hc = hc[candidate]
            cell_peak = cell_peak[candidate]
            anti = block.anti[cidx]
            sens = block.aggressor_sensitive[cidx]
            win_id = np.repeat(np.arange(len(sel)), lens)[candidate]
            bounds = np.searchsorted(win_id, np.arange(len(sel) + 1))

            # Gather victim/aggressor values through one fill-byte
            # matrix; rows holding explicit storage get patched below.
            # Periodic patterns need one matrix row per fill class, not
            # per distinct row.
            wrows = vrows[sel]
            waggs = aggs[sel]
            wvalid = waggs >= 0
            period = getattr(self._default_pattern, "row_period", 0)
            if period:
                fill_mat = np.stack(
                    [self._fill_bytes(c) for c in range(period)])
                vcls = wrows % period
                acls = np.where(wvalid, waggs % period, 0)
            else:
                distinct = _sorted_unique(
                    np.concatenate([wrows, waggs[wvalid]]))
                fill_mat = np.empty(
                    (len(distinct), self.geometry.row_bytes), dtype=np.uint8)
                for k, row in enumerate(distinct.tolist()):
                    fill_mat[k] = self._fill_bytes(row)
                vcls = np.searchsorted(distinct, wrows)
                acls = np.searchsorted(
                    distinct, np.where(wvalid, waggs, distinct[0]))
            chunk_lens = np.diff(bounds)
            byte_idx = bits >> 3
            shift = (bits & 7).astype(np.uint8)
            victim_vals = (fill_mat[np.repeat(vcls, chunk_lens), byte_idx]
                           >> shift) & 1
            agg_vals = (fill_mat[np.repeat(acls, chunk_lens), byte_idx]
                        >> shift) & 1
            agg_valid = np.repeat(wvalid, chunk_lens)
            if store or sflips:
                for j in range(len(sel)):
                    s, e = int(bounds[j]), int(bounds[j + 1])
                    if s == e:
                        continue
                    row = int(wrows[j])
                    if row in store or row in sflips:
                        victim_vals[s:e] = self._row_values(row, bits[s:e])
                    agg = int(waggs[j])
                    if agg >= 0 and (agg in store or agg in sflips):
                        agg_vals[s:e] = self._row_values(agg, bits[s:e])

            mask = model.flip_mask_batch(
                WeakCellSet(bits=bits, hc_first=hc, anti=anti,
                            aggressor_sensitive=sens),
                cell_peak, victim_vals, agg_vals, agg_valid)
            flip_cum = np.concatenate(([0], np.cumsum(mask)))
            counts = flip_cum[bounds[1:]] - flip_cum[bounds[:-1]]
            for j in range(len(sel)):
                chunks[int(sel[j])] = (bits, mask, int(bounds[j]),
                                       int(bounds[j + 1]), int(counts[j]))

        # Apply in window order.  Victims are distinct, so a window's
        # gather is stale only if its aggressor row flipped earlier in
        # the batch: that window re-evaluates against current content.
        dirty: set = set()
        counts = np.zeros(len(vrows), dtype=np.int64)
        rows_l: List[int] = []
        times_l: List[float] = []
        flips_l: List[np.ndarray] = []
        aggs_l: List[int] = []
        peaks_l: List[float] = []
        for i in sorted(chunks):
            bits, mask, s, e, count = chunks[i]
            row = int(vrows[i])
            agg = int(aggs[i])
            if agg in dirty:
                flipped = self._flip_row_now(row, float(peaks[i]), agg)
            elif count:
                flipped = bits[s:e][mask[s:e]]
            else:
                continue
            if not len(flipped):
                continue
            self._apply_row_flips(row, flipped)
            dirty.add(row)
            rows_l.append(row)
            times_l.append(float(times[i]))
            flips_l.append(flipped)
            aggs_l.append(agg)
            peaks_l.append(float(peaks[i]))
            counts[i] = len(flipped)
        if rows_l:
            self._stats.on_flips(rows_l, times_l, flips_l, aggs_l, peaks_l,
                                 self.default_pattern_name, cause)
        return counts

    # ------------------------------------------------------------------
    # Batched refresh/settle
    # ------------------------------------------------------------------
    def _materialize_rows(self, rows: np.ndarray, time: float,
                          cause: str) -> Dict[int, int]:
        """Materialize the live (peak > 0) windows of distinct ``rows``,
        in order, all at ``time``; return each flipped row's flip count,
        in order.  Untraced; leaves the rows' pressure and peak for the
        caller to reset."""
        state = self._cs
        peaks = state.peak[rows]
        live = peaks > 0
        if not live.any():
            return {}
        victims = rows[live]
        counts = self._materialize_batch(
            victims, peaks[live], state.last_agg[victims],
            np.full(len(victims), float(time)), cause)
        return {row: n for row, n in zip(victims.tolist(), counts.tolist())
                if n}

    def refresh_all(self, time: float = 0.0) -> int:
        with telem.span("dram.refresh_all"):
            self._commit()
            state = self._cs
            rows = list(state.touch_order)
            if sanit.sanitize_on:
                for row in rows:
                    sanit.check("dram.bank", self, row=row)
            flipped = {}
            if rows:
                row_arr = np.asarray(rows, dtype=np.int64)
                flipped = self._materialize_rows(row_arr, time, "refresh")
                state.pressure[row_arr] = 0.0
                state.peak[row_arr] = 0.0
            self._stats.on_refresh(rows, time, flipped)
            # Epoch advances per bank-wide REF even with nothing to
            # refresh — the reference loop body is simply empty.
            self._stats.refresh_epoch += 1
            return sum(flipped.values())

    def refresh_rows(self, rows: Sequence[int], time: float = 0.0) -> int:
        state = self._cs
        # Batches are small (an auto-refresh chunk is a few rows), so
        # validation runs on plain ints rather than numpy reductions.
        rows = [int(row) for row in rows]
        if not rows:
            return 0
        self._check_rows(rows)
        deferred = bool(self._run) and self._refresh_defers(rows)
        if not deferred:
            self._commit()
        if sanit.sanitize_on:
            for row in rows:
                sanit.check("dram.bank", self, row=row)
        flipped = {}
        if deferred:
            # No refreshed row holds a live window: the refresh only
            # clears their pressure (untouched rows' slots hold zero).
            # Its events wait in line behind the run's activations.
            if state._pressure is not None:
                state.pressure[rows] = 0.0
        elif state._touched is not None and state._touched[rows].any():
            # Undisturbed rows only would be a no-op for the model.  A
            # row repeated in one batch sees zeroed state on its second
            # refresh in the reference — only the first occurrence
            # acts.  Undisturbed rows are a no-op there (no key
            # insertion); their array slots already hold zero.
            row_arr = np.asarray(rows, dtype=np.int64)
            unique = row_arr[_first_occurrence(row_arr)]
            flipped = self._materialize_rows(unique, time, "refresh")
            state.pressure[unique] = 0.0
            state.peak[unique] = 0.0
        self._stats.on_refresh(rows, time, flipped)
        return sum(flipped.values())

    def settle(self, time: float = 0.0) -> int:
        with telem.span("dram.settle"):
            self._commit()
            state = self._cs
            flipped = {}
            if state.touch_order:
                row_arr = np.asarray(state.touch_order, dtype=np.int64)
                flipped = self._materialize_rows(row_arr, time, "settle")
                state.peak[row_arr] = 0.0
                self._stats.trace_flips(flipped, [time] * len(flipped),
                                        flipped.values(), "settle")
            mask = state._instantiated
            self._stats.on_settle(0 if mask is None else int(np.count_nonzero(mask)))
            return sum(flipped.values())

    # ------------------------------------------------------------------
    # Stream ACT runs (the kernel behind ``execute``)
    # ------------------------------------------------------------------
    def _flush_acts(self, rows: List[int], counts: List[int],
                    times: List[float]) -> None:
        """Apply one uninterrupted stream ACT run as an array program,
        after the pending run a stream READ or WRITE left."""
        self._commit()
        state = self._cs
        n_rows_total = self.geometry.rows
        n = len(rows)
        act_row = np.asarray(rows, dtype=np.int64)
        act_cnt = np.asarray(counts, dtype=np.float64)
        act_time = np.asarray(times, dtype=np.float64)
        d2 = self.model.profile.distance2_weight

        # --- touch bookkeeping: reference key-insertion order is
        # (row, row-1, row+1[, row-2, row+2]) per ACT, new keys only ---
        if d2 > 0:
            interleaved = np.stack(
                [act_row, act_row - 1, act_row + 1, act_row - 2, act_row + 2],
                axis=1).reshape(-1)
        else:
            interleaved = np.stack(
                [act_row, act_row - 1, act_row + 1], axis=1).reshape(-1)
        interleaved = interleaved[(interleaved >= 0) & (interleaved < n_rows_total)]
        fresh = interleaved[~state.touched[interleaved]]
        if len(fresh):
            new_rows = fresh[_first_occurrence(fresh)]
            state.touched[new_rows] = True
            state.touch_order.extend(new_rows.tolist())

        # --- event table: one reset per ACT plus its neighbor bumps ---
        pos = np.arange(n, dtype=np.int64)
        zero = np.zeros(n)
        none_agg = np.full(n, -1, dtype=np.int64)
        if d2 > 0:
            ev_row = np.concatenate(
                [act_row, act_row - 1, act_row + 1, act_row - 2, act_row + 2])
            ev_w = np.concatenate([zero, act_cnt, act_cnt, d2 * act_cnt, d2 * act_cnt])
            ev_agg = np.concatenate([none_agg, act_row, act_row, none_agg, none_agg])
            ev_pos = np.concatenate([pos] * 5)
            groups = 5
        else:
            ev_row = np.concatenate([act_row, act_row - 1, act_row + 1])
            ev_w = np.concatenate([zero, act_cnt, act_cnt])
            ev_agg = np.concatenate([none_agg, act_row, act_row])
            ev_pos = np.concatenate([pos] * 3)
            groups = 3
        ev_reset = np.zeros(groups * n, dtype=bool)
        ev_reset[:n] = True
        ev_d1 = np.zeros(groups * n, dtype=bool)
        ev_d1[n:3 * n] = True
        in_bounds = (ev_row >= 0) & (ev_row < n_rows_total)
        ev_row = ev_row[in_bounds]
        ev_w = ev_w[in_bounds]
        ev_agg = ev_agg[in_bounds]
        ev_pos = ev_pos[in_bounds]
        ev_reset = ev_reset[in_bounds]
        ev_d1 = ev_d1[in_bounds]

        # --- sort by (row, position); (row, pos) pairs are unique ---
        order = np.lexsort((ev_pos, ev_row))
        r_s = ev_row[order]
        w_s = ev_w[order]
        agg_s = ev_agg[order]
        pos_s = ev_pos[order]
        reset_s = ev_reset[order]
        d1_s = ev_d1[order]
        m = len(r_s)
        idx = np.arange(m, dtype=np.int64)
        newrow = np.concatenate(([True], r_s[1:] != r_s[:-1]))
        seg_start = np.maximum.accumulate(np.where(newrow, idx, 0))
        cum = np.cumsum(w_s)
        base = cum[seg_start] - w_s[seg_start]  # cumsum before each segment

        # Segmented forward fills.  ``shift`` strictly dominates across
        # segments, so one maximum.accumulate carries "index of the last
        # reset / d1 bump so far" without leaking between rows.
        seg_id = np.cumsum(newrow) - 1
        shift = seg_id * (m + 1)
        filled_reset = np.maximum.accumulate(
            np.where(reset_s, shift + idx + 1, shift))
        filled_d1 = np.maximum.accumulate(
            np.where(d1_s, shift + idx + 1, shift))
        before_reset = np.concatenate(([0], filled_reset[:-1])) - shift - 1
        before_d1 = np.concatenate(([0], filled_d1[:-1])) - shift - 1
        before_reset[newrow] = -1  # fills from other segments are invalid
        before_d1[newrow] = -1

        # --- materialize at each reset, in command order ---
        reset_idx = np.nonzero(reset_s)[0]
        if len(reset_idx):
            reset_idx = reset_idx[np.argsort(pos_s[reset_idx], kind="stable")]
            reset_rows = r_s[reset_idx]
            prev_reset = before_reset[reset_idx]
            window = cum[reset_idx] - np.where(
                prev_reset >= 0, cum[np.maximum(prev_reset, 0)], base[reset_idx])
            first_window = prev_reset < 0
            p0 = state.pressure[reset_rows]
            k0 = state.peak[reset_rows]
            # Bumps are non-negative, so the in-window running peak is the
            # window total; an empty first window keeps the prior peak.
            peak_at = np.where(
                first_window,
                np.where(window > 0, np.maximum(k0, p0 + window), k0),
                window)
            prev_d1 = before_d1[reset_idx]
            agg_at = np.where(prev_d1 >= 0,
                              agg_s[np.maximum(prev_d1, 0)],
                              state.last_agg[reset_rows])
            live = peak_at > 0
            if live.any():
                victims = reset_rows[live]
                times = act_time[pos_s[reset_idx]][live]
                counts = self._materialize_batch(
                    victims, peak_at[live], agg_at[live], times, "activate")
                self._stats.trace_flips(victims, times, counts, "activate")

        # --- final per-row state at end of run ---
        seg_end = np.nonzero(np.concatenate((newrow[1:], [True])))[0]
        end_rows = r_s[seg_end]
        has_reset = filled_reset[seg_end] > shift[seg_end]
        last_reset = filled_reset[seg_end] - shift[seg_end] - 1
        tail = cum[seg_end] - np.where(
            has_reset, cum[np.maximum(last_reset, 0)], base[seg_end])
        p0_end = state.pressure[end_rows]
        k0_end = state.peak[end_rows]
        state.pressure[end_rows] = np.where(has_reset, tail, p0_end + tail)
        state.peak[end_rows] = np.where(
            has_reset, tail, np.maximum(k0_end, p0_end + tail))
        has_d1 = filled_d1[seg_end] > shift[seg_end]
        last_d1 = filled_d1[seg_end] - shift[seg_end] - 1
        state.last_agg[end_rows] = np.where(
            has_d1, agg_s[np.maximum(last_d1, 0)], state.last_agg[end_rows])
