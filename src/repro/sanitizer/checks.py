"""The registered invariant classes.

Each checker guards one simulator subsystem and is duck-typed against
that subsystem's internal state — this module imports no model code, so
the sanitizer package stays import-light and cycle-free.  Every
subsystem key registered here has a paired state-corruption injector in
:mod:`repro.chaos.state`; the negative-test suite asserts the pairing
is complete and that each injected corruption is detected at ``full``
level with the right attribution.

Checker contract (see :class:`repro.sanitizer.runtime.CheckerEntry`):

* ``check(obj, full, ctx)`` — cheap O(1) structural checks always;
  expensive whole-structure scans only when ``full`` is true.  A
  forced call (``ctx["force"]``, set after a chaos injection) runs at
  full depth whatever the level, and the DRAM bank checker then scans
  every shadowed row rather than the row at hand.
* ``note(obj, ctx)`` — shadow-state maintenance from legitimate
  mutation points; only invoked at ``full`` level.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict

import numpy as np

from repro.sanitizer.runtime import CheckerEntry, register, violation

#: Fixed root seed for the ECC round-trip spot checks, so the checker
#: never consumes experiment randomness and is deterministic per code.
_ECC_CHECK_SEED = 0x5A17


def _row_digest(bits: np.ndarray) -> int:
    """crc32 of a row's packed bit array (the stored-data shadow digest)."""
    return zlib.crc32(np.packbits(bits).tobytes())


# ----------------------------------------------------------------------
# dram.bank — row-buffer/charge coherence + stored-data shadow digests
#
# Stored data and charge are read through ``stored_copy`` and
# ``stored_charge``, which on either engine neither commit a pending run
# nor change how a row is held, so the checks see the engine path
# production runs.
# ----------------------------------------------------------------------
def _check_dram_bank(bank: Any, full: bool, ctx: Dict[str, Any]) -> None:
    rows = bank.geometry.rows
    open_row = bank.open_row
    if open_row is not None and not 0 <= open_row < rows:
        violation("dram.bank", "open-row out of range",
                  f"open_row={open_row}, rows={rows}")
    row = ctx.get("row")
    if row is not None:
        pressure, peak = bank.stored_charge(row)
        if not pressure >= 0.0 or not peak >= 0.0:
            violation("dram.bank", "negative disturbance charge",
                      f"row={row}, pressure={pressure}, peak={peak}")
    state = getattr(bank, "_cs", None)  # columnar engine only
    if state is not None:
        if row is not None and row in state.store and row in state.flips:
            violation(
                "dram.bank", "columnar storage incoherent",
                f"row={row} holds both explicit data and pending flips")
        if full and ctx.get("force"):
            _scan_columnar_state(state)
    if not full:
        return
    digests = bank.__dict__.get("_sanit_digest")
    if not digests:
        return
    if ctx.get("force"):
        stale = sorted(digests)
    elif row in digests:
        stale = [row]
    else:
        return
    for r in stale:
        bits = bank.stored_copy(r)
        if bits is None:
            continue
        expected = digests[r]
        actual = _row_digest(bits)
        if actual != expected:
            violation(
                "dram.bank", "stored-data digest mismatch",
                f"row={r}: data changed outside a modeled write/flip "
                f"(digest {actual:#010x} != shadow {expected:#010x})",
            )


def _scan_columnar_state(state: Any) -> None:
    """Whole-structure scan of the columnar engine's sparse storage
    (forced full checks only — O(touched rows))."""
    overlap = state.store.keys() & state.flips.keys()
    if overlap:
        violation("dram.bank", "columnar storage incoherent",
                  f"rows {sorted(overlap)[:8]} hold both explicit data "
                  f"and pending flips")
    mask = state._instantiated
    for label, keys in (("store", state.store), ("flips", state.flips)):
        for r in keys:
            if not 0 <= r < state.rows:
                violation("dram.bank", "columnar storage incoherent",
                          f"{label} key {r} outside [0, {state.rows})")
            elif mask is None or not mask[r]:
                violation(
                    "dram.bank", "columnar storage incoherent",
                    f"{label} row {r} not marked instantiated")
    touched = state._touched
    n_touched = 0 if touched is None else int(touched.sum())
    if n_touched != len(state.touch_order):
        violation(
            "dram.bank", "columnar touch accounting incoherent",
            f"{n_touched} touched rows vs {len(state.touch_order)} "
            f"touch-order entries")
    for flips in state.flips.values():
        if len(flips) and (np.any(flips[1:] <= flips[:-1])
                           or flips[0] < 0):
            violation("dram.bank", "columnar flip set corrupt",
                      "pending-flip bits not sorted unique non-negative")
            break


def _note_dram_bank(bank: Any, ctx: Dict[str, Any]) -> None:
    row = ctx.get("row")
    if row is None:
        return
    bits = bank.stored_copy(row)
    if bits is not None:
        bank.__dict__.setdefault("_sanit_digest", {})[row] = _row_digest(bits)


register(CheckerEntry(
    subsystem="dram.bank",
    check=_check_dram_bank,
    note=_note_dram_bank,
    description=("row-buffer pointer and disturbance-charge coherence; "
                 "at full, crc32 shadow digests of stored row data"),
))


# ----------------------------------------------------------------------
# dram.refresh — refresh-deadline and round-robin cursor accounting
# ----------------------------------------------------------------------
def _check_dram_refresh(engine: Any, full: bool, ctx: Dict[str, Any]) -> None:
    rows = engine.module.geometry.rows
    if not engine.interval_ns > 0 or not np.isfinite(engine.interval_ns):
        violation("dram.refresh", "non-positive refresh interval",
                  f"interval_ns={engine.interval_ns}")
    if not 0 <= engine._cursor < rows:
        violation("dram.refresh", "refresh cursor out of range",
                  f"cursor={engine._cursor}, rows={rows}")
    if engine.rows_per_ref < 1:
        violation("dram.refresh", "rows_per_ref below 1",
                  f"rows_per_ref={engine.rows_per_ref}")
    if not np.isfinite(engine.next_ref_ns) or engine.next_ref_ns <= 0:
        violation("dram.refresh", "refresh deadline lost",
                  f"next_ref_ns={engine.next_ref_ns}")
    if engine._pass_index < 0:
        violation("dram.refresh", "negative pass index",
                  f"pass_index={engine._pass_index}")
    if not full:
        return
    stats = engine.stats
    banks = engine.module.geometry.banks
    ceiling = stats.ref_commands * engine.rows_per_ref * banks
    if stats.rows_refreshed > ceiling:
        violation(
            "dram.refresh", "refresh accounting incoherent",
            f"rows_refreshed={stats.rows_refreshed} exceeds "
            f"{stats.ref_commands} REFs x {engine.rows_per_ref} rows x "
            f"{banks} banks = {ceiling}",
        )


register(CheckerEntry(
    subsystem="dram.refresh",
    check=_check_dram_refresh,
    description=("refresh-deadline, cursor, and pass-index bounds; at "
                 "full, REF-command vs rows-refreshed coherence"),
))


# ----------------------------------------------------------------------
# ecc.codec — encode/decode round-trip spot checks
# ----------------------------------------------------------------------
def _ecc_check_rng(code: Any) -> np.random.Generator:
    # Local import keeps this module's import graph to numpy + runtime.
    from repro.utils.rng import derive_seed

    return np.random.default_rng(
        derive_seed(_ECC_CHECK_SEED, "sanitizer-ecc",
                    type(code).__name__, code.data_bits)
    )


def _check_ecc_codec(code: Any, full: bool, ctx: Dict[str, Any]) -> None:
    rng = _ecc_check_rng(code)
    data = rng.integers(0, 2, size=code.data_bits).astype(np.uint8)
    try:
        codeword = code.encode(data)
        clean = code.decode(codeword)
    except Exception as exc:  # codec blew up on its own output
        violation("ecc.codec", "round trip raised",
                  f"{type(code).__name__}: {type(exc).__name__}: {exc}")
        return
    if clean.status.value != "clean" or not np.array_equal(clean.data, data):
        violation(
            "ecc.codec", "clean round trip corrupted data",
            f"{type(code).__name__}: status={clean.status.value}, "
            f"data mismatch={not np.array_equal(clean.data, data)}",
        )
    if not full:
        return
    # One injected single-bit error must be corrected or detected —
    # never returned CLEAN with wrong data.
    position = int(rng.integers(0, code.code_bits))
    corrupted = codeword.copy()
    corrupted[position] ^= 1
    try:
        result = code.decode(corrupted)
    except Exception as exc:
        violation("ecc.codec", "single-error decode raised",
                  f"{type(code).__name__}: {type(exc).__name__}: {exc}")
        return
    if result.status.value == "clean" and not np.array_equal(result.data, data):
        violation(
            "ecc.codec", "single-bit error passed as clean",
            f"{type(code).__name__}: flipped codeword bit {position}",
        )


register(CheckerEntry(
    subsystem="ecc.codec",
    check=_check_ecc_codec,
    description=("deterministic encode->decode round-trip spot check; "
                 "at full, a single-bit error must not decode CLEAN"),
))


# ----------------------------------------------------------------------
# pcm.startgap — start-gap permutation validity
# ----------------------------------------------------------------------
def _check_pcm_startgap(sg: Any, full: bool, ctx: Dict[str, Any]) -> None:
    if not 0 <= sg._gap <= sg.n_logical:
        violation("pcm.startgap", "gap slot out of range",
                  f"gap={sg._gap}, slots={sg.n_logical + 1}")
    if not 0 <= sg._writes_since_move <= sg.gap_period:
        violation("pcm.startgap", "gap schedule counter out of range",
                  f"writes_since_move={sg._writes_since_move}, "
                  f"gap_period={sg.gap_period}")
    if not full:
        return
    mapping = sg._mapping
    if mapping.min() < 0 or mapping.max() > sg.n_logical:
        violation("pcm.startgap", "mapping points off-device",
                  f"range [{mapping.min()}, {mapping.max()}], "
                  f"slots={sg.n_logical + 1}")
    if len(np.unique(mapping)) != sg.n_logical:
        violation(
            "pcm.startgap", "mapping lost bijectivity",
            f"{sg.n_logical} logical lines occupy "
            f"{len(np.unique(mapping))} distinct slots",
        )
    if (mapping == sg._gap).any():
        holder = int(np.nonzero(mapping == sg._gap)[0][0])
        violation("pcm.startgap", "gap slot occupied",
                  f"logical line {holder} mapped into gap slot {sg._gap}")


register(CheckerEntry(
    subsystem="pcm.startgap",
    check=_check_pcm_startgap,
    description=("gap-slot and schedule-counter bounds; at full, the "
                 "logical->physical permutation must stay injective "
                 "with the gap unoccupied"),
))
