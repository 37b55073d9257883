"""Domain-level state-corruption injectors.

Process-level chaos (:mod:`repro.chaos.plan`) proves the *runner*
survives dying workers and torn writes; these injectors prove the
*sanitizer* detects corrupted simulator state.  Each injector is paired
1:1 with a registered invariant class in :mod:`repro.sanitizer.checks`
(the negative-test suite asserts the pairing is complete) and applies
the smallest mutation that breaks that class's invariant:

``dram.bank``
    Flip one stored cell bit directly in the backing array, bypassing
    the modeled write path — exactly the "flip that didn't come from
    the disturbance mechanism" the shadow digests exist to catch.
``dram.refresh``
    Skew the round-robin refresh cursor past the last row, so the
    engine would silently stop refreshing real rows.
``ecc.codec``
    Alias two of a codec's data positions, corrupting every subsequent
    encode — caught by the round-trip spot check.
``pcm.startgap``
    Alias two start-gap mapping entries, breaking the permutation.

Injectors fire from :func:`repro.sanitizer.runtime.check` sites via
:func:`maybe_corrupt_state`, driven by ``corrupt:sub=<subsystem>``
entries in ``REPRO_CHAOS`` — declared, once-by-default, and pinnable to
a job with ``name=``/``seed=`` like every other fault kind.  Each
mutation is deterministic given the object's state (always the first
eligible target), so an injected failure replays bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.chaos.plan import current_plan
from repro.telemetry import runtime as telem

__all__ = ["StateInjector", "INJECTORS", "maybe_corrupt_state"]


@dataclass(frozen=True)
class StateInjector:
    """One paired corruption: applies the minimal state mutation that
    the same-named sanitizer invariant class must detect.

    Attributes:
        subsystem: sanitizer registry key this injector is paired with.
        description: what the corruption models, one line.
        can_apply: ``can_apply(obj)`` — whether the object currently
            has state eligible for this mutation.  Checked *before* the
            fault is claimed, so an armed corruption is never burned on
            an object it cannot corrupt.
        apply: ``apply(obj) -> detail`` — mutate and describe.
    """

    subsystem: str
    description: str
    can_apply: Callable[[Any], bool]
    apply: Callable[[Any], str]


# ----------------------------------------------------------------------
# The paired injectors (keys must mirror repro.sanitizer.checks)
# ----------------------------------------------------------------------
def _bank_can(bank: Any) -> bool:
    return bool(bank.touched_rows())


def _bank_apply(bank: Any) -> str:
    row = bank.touched_rows()[0]
    bank.stored_bits(row)[0] ^= 1  # raw array poke: no write, no note, no model
    return f"flipped stored bit 0 of bank {bank.index} row {row}"


def _refresh_can(engine: Any) -> bool:
    return True


def _refresh_apply(engine: Any) -> str:
    rows = engine.module.geometry.rows
    engine._cursor = rows + 13
    return f"skewed refresh cursor to {engine._cursor} (rows={rows})"


def _ecc_can(code: Any) -> bool:
    positions = getattr(code, "_data_positions", None)
    return positions is not None and len(positions) >= 2


def _ecc_apply(code: Any) -> str:
    code._data_positions[-1] = code._data_positions[0]
    return (f"aliased data positions of {type(code).__name__}: "
            f"last -> {code._data_positions[0]}")


def _startgap_can(sg: Any) -> bool:
    return sg.n_logical >= 2


def _startgap_apply(sg: Any) -> str:
    sg._mapping[1] = sg._mapping[0]
    return (f"aliased start-gap mapping: lines 0 and 1 both -> slot "
            f"{int(sg._mapping[0])}")


INJECTORS: Dict[str, StateInjector] = {
    injector.subsystem: injector
    for injector in (
        StateInjector(
            subsystem="dram.bank",
            description="flip a stored cell bit outside the modeled write path",
            can_apply=_bank_can,
            apply=_bank_apply,
        ),
        StateInjector(
            subsystem="dram.refresh",
            description="skew the refresh cursor past the last physical row",
            can_apply=_refresh_can,
            apply=_refresh_apply,
        ),
        StateInjector(
            subsystem="ecc.codec",
            description="alias two data positions of a codec",
            can_apply=_ecc_can,
            apply=_ecc_apply,
        ),
        StateInjector(
            subsystem="pcm.startgap",
            description="alias two start-gap permutation entries",
            can_apply=_startgap_can,
            apply=_startgap_apply,
        ),
    )
}


def maybe_corrupt_state(subsystem: str, obj: Any) -> bool:
    """Apply an armed ``corrupt:sub=subsystem`` fault to ``obj``.

    Returns True when a corruption was injected — the caller
    (:func:`repro.sanitizer.runtime.check`) then forces the full-depth
    check on the same call, so detection is deterministic whatever the
    sanitizer level.
    """
    plan = current_plan()
    if plan is None:
        return False
    injector = INJECTORS.get(subsystem)
    if injector is None or not injector.can_apply(obj):
        return False
    spec = plan.pick_corrupt(subsystem)
    if spec is None:
        return False
    detail = injector.apply(obj)
    plan.note("corrupt")
    if telem.trace_on:
        telem.trace("chaos_corrupt", sub=subsystem, detail=detail)
    return True
