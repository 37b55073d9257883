"""The memory controller: glue between workloads, device, and mitigations.

The controller advances simulated time command by command (tRC per
activation, tRFC per REF), drives the module's banks, keeps energy
and activity counts, and invokes the installed mitigation hook after
every activation.  Hammer patterns (:meth:`MemoryController.run_activation_pattern`)
run in segments that are exactly equivalent to that per-command loop.
Mitigations request victim refreshes through
:meth:`MemoryController.refresh_neighbors`, which resolves adjacency
either through the SPD-published mapping (``spd_adjacency=True``, the
paper's proposal) or by naive logical +/-1 guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.controller.energy import EnergyAccount
from repro.controller.hooks import MitigationHook, NullMitigation
from repro.controller.refresh import RefreshEngine
from repro.dram.module import DramModule
from repro.telemetry import runtime as telem


@dataclass
class ControllerStats:
    """Aggregate controller activity."""

    activations: int = 0
    mitigation_refreshes: int = 0
    flips_observed: int = 0


class MemoryController:
    """A mitigation-aware DRAM controller.

    Args:
        module: device under control.
        mitigation: installed RowHammer mitigation (default: none).
        refresh_multiplier: auto-refresh rate multiplier.
        spd_adjacency: whether victim-refresh requests use the true
            (SPD-published) adjacency or naive logical +/-1.
    """

    def __init__(
        self,
        module: DramModule,
        mitigation: Optional[MitigationHook] = None,
        refresh_multiplier: float = 1.0,
        spd_adjacency: bool = True,
        refresh_row_bins=None,
    ) -> None:
        self.module = module
        self.mitigation = mitigation if mitigation is not None else NullMitigation()
        self.refresh_engine = RefreshEngine(module, refresh_multiplier, row_bins=refresh_row_bins)
        self.energy = EnergyAccount()
        self.spd_adjacency = spd_adjacency
        self.time_ns = 0.0
        self.stats = ControllerStats()

    # ------------------------------------------------------------------
    # Primitive operations
    # ------------------------------------------------------------------
    def activate(self, bank: int, logical_row: int) -> None:
        """Issue ACT+PRE to ``(bank, logical_row)``, advancing time by tRC."""
        self.module.activate(bank, logical_row, self.time_ns)
        self._after_command(bank, logical_row, "activate")

    def read(self, bank: int, logical_row: int):
        """Activate-and-read one row; returns its bits."""
        bits = self.module.read_row(bank, logical_row, self.time_ns)
        self._after_command(bank, logical_row, "read")
        return bits

    def write(self, bank: int, logical_row: int, bits) -> None:
        """Activate-and-write one row."""
        self.module.write_row(bank, logical_row, bits, self.time_ns)
        self._after_command(bank, logical_row, "write")

    def _after_command(self, bank: int, logical_row: int, kind: str) -> None:
        """The tail of one ``kind`` command (``activate``, ``read`` or
        ``write``) the module just ran: precharge, tRC, energy,
        statistics, the mitigation hook and any REF that fell due."""
        self.module.precharge(bank)
        self.time_ns += self.module.timing.tRC
        self.energy.record("act")
        if kind != "activate":
            self.energy.record(kind)
        self.energy.record("pre")
        self.stats.activations += 1
        if telem.metrics_on:
            telem.counter("ctrl_commands_total", kind=kind).inc()
        self.mitigation.on_activate(self, bank, logical_row, self.time_ns)
        self._service_refresh()

    def refresh_neighbors(self, bank: int, logical_row: int, distance: int = 1) -> int:
        """Refresh the rows adjacent to an aggressor (mitigation request).

        Returns the number of rows refreshed.  Costs tRC each and is
        charged as refresh energy.
        """
        remapper = self.module.remapper
        if self.spd_adjacency:
            victims = remapper.logical_neighbors_of_logical(logical_row, distance)
        else:
            victims = remapper.naive_neighbors(logical_row, distance)
        for victim in victims:
            flips = self.module.refresh_row(bank, victim, self.time_ns)
            self._note_flips(bank, victim, flips)
            self.time_ns += self.module.timing.tRC
            self.energy.record("refresh_row")
            self.stats.mitigation_refreshes += 1
        if telem.metrics_on:
            telem.counter("ctrl_mitigation_refreshes_total").inc(len(victims))
        if telem.trace_on:
            telem.trace("mitigation_refresh", t=self.time_ns, bank=bank,
                        aggressor=logical_row, victims=len(victims))
        return len(victims)

    def _note_flips(self, bank: int, row: int, flips) -> None:
        if len(flips):
            self.stats.flips_observed += len(flips)
            if telem.metrics_on:
                telem.counter("ctrl_flips_observed_total").inc(len(flips))

    def _service_refresh(self) -> None:
        engine = self.refresh_engine
        while engine.due(self.time_ns):
            before = engine.stats.flips_caught_late
            engine.tick(self.time_ns)
            caught = engine.stats.flips_caught_late - before
            if caught:
                self.stats.flips_observed += caught
            self.time_ns += self.module.timing.tRFC
            self.energy.record("refresh_row", count=engine.rows_per_ref * self.module.geometry.banks)

    # ------------------------------------------------------------------
    # Bulk drivers
    # ------------------------------------------------------------------
    def run_activation_pattern(self, bank: int, rows: Sequence[int], iterations: int) -> None:
        """Interleave ``iterations`` rounds of activations over ``rows``.

        Equivalent to calling :meth:`activate` on each command in turn:
        every activation passes through timing, refresh and the
        mitigation hook, with the same ``+= tRC`` float adds.  The
        pattern runs in *segments*.  A segment ends after the first
        command at which a REF falls due or the mitigation acts (its
        ``scan`` stops there).  The segment is one bank
        ``activate_run`` and one energy and statistics update; only its
        last command can reach the hook's ``on_activate`` and the
        refresh engine.  The bank, the rows and their remap are
        validated once, before any state changes.  The whole pattern is
        one profiling span.
        """
        with telem.span("ctrl.activation_pattern"):
            rows = list(rows)
            total = len(rows) * len(range(iterations))
            if not total:
                return
            dev = self.module.bank(bank)
            to_physical = self.module.remapper.to_physical
            physical = [to_physical(row) for row in rows]
            tRC = self.module.timing.tRC
            engine, hook = self.refresh_engine, self.mitigation
            done = 0
            while done < total:
                start = self.time_ns
                times = _times_until(start, tRC, total - done, engine.next_ref_ns)
                offset = done % len(rows)
                seg_rows = _cycle(rows, offset, len(times))
                quiet = hook.scan(self, bank, seg_rows, times)
                acting = quiet < len(times)
                if acting:
                    del times[quiet + 1:]
                n = len(times)
                dev.activate_run(_cycle(physical, offset, n), [start] + times[:-1])
                dev.precharge()
                self.time_ns = times[-1]
                self.energy.record("act", n)
                self.energy.record("pre", n)
                self.stats.activations += n
                if telem.metrics_on:
                    telem.counter("ctrl_commands_total", kind="activate").inc(n)
                if acting:
                    hook.on_activate(self, bank, seg_rows[quiet], self.time_ns)
                self._service_refresh()
                done += n

    def run_trace(self, trace: Iterable) -> None:
        """Replay (bank, row, is_write) tuples through the full command path."""
        with telem.span("ctrl.run_trace"):
            for bank, row, is_write in trace:
                if is_write:
                    self.write(bank, row, self.module.read_row(bank, row, self.time_ns))
                else:
                    self.read(bank, row)

    # ------------------------------------------------------------------
    # End-of-run accounting
    # ------------------------------------------------------------------
    def finish(self) -> int:
        """Materialize pending flips everywhere; return total module flips."""
        with telem.span("ctrl.finish"):
            self.module.settle(self.time_ns)
            return self.module.total_flips()

    def total_flips(self) -> int:
        """Flips materialized so far (call :meth:`finish` first for finality)."""
        return self.module.total_flips()


def _times_until(start: float, step: float, cap: int, limit: float) -> List[float]:
    """Controller times after each of up to ``cap`` back-to-back
    commands from ``start`` (sequential ``t += step``), ending with the
    first that reaches ``limit``.  ``step`` is a timing, so positive.

    ``np.add.accumulate`` folds ``[t, step, step, ...]`` left to right,
    the same float additions as the loop ``t += step``.  Each fold is
    sized to reach ``limit`` with two steps to spare; a fold that falls
    short (rounding) continues from its last time.
    """
    times: List[float] = []
    t = start
    while len(times) < cap:
        n = cap - len(times)
        if limit - t < n * step:
            n = min(n, int(max(limit - t, 0.0) / step) + 2)
        steps = np.full(n + 1, step, dtype=np.float64)
        steps[0] = t
        folded = np.add.accumulate(steps)[1:]
        # The times ascend, so the first to reach the limit is a bisection.
        reached = int(folded.searchsorted(limit))
        if reached < n:
            return times + folded[:reached + 1].tolist()
        times += folded.tolist()
        t = times[-1]
    return times


def _cycle(pattern: List[int], offset: int, n: int) -> List[int]:
    """``n`` entries of ``pattern`` repeated, from index ``offset``."""
    reps = (offset + n - 1) // len(pattern) + 1
    return (pattern * reps)[offset:offset + n]
