"""Sanitizer runtime: levels, hot-path guard, and the checker registry.

Every quantitative claim this repository makes rests on the simulators
being internally consistent — a bit flip must come from the modeled
disturbance mechanism, never from a bookkeeping bug.  The sanitizer is
the runtime half of that argument: instrumented model code calls
invariant checkers behind the same near-zero-cost disabled-by-default
guard pattern as :mod:`repro.telemetry.runtime`::

    from repro.sanitizer import runtime as sanit

    if sanit.sanitize_on:
        sanit.check("dram.refresh", self)

When the sanitizer is disabled (the default) each site costs exactly
one module-attribute read and a falsy branch — the same "near-zero
when off" contract the telemetry overhead benchmark enforces, and the
same ≤5% bound :mod:`benchmarks.test_bench_sanitizer` checks.

Levels (``REPRO_SANITIZE`` environment variable or ``--sanitize``):

``off``
    No checks, no shadow state (default).
``cheap``
    O(1) structural checks at every instrumented site: index bounds,
    sign constraints, refresh-cursor ranges.
``full``
    Everything ``cheap`` does, plus the expensive whole-structure
    invariants: DRAM stored-data shadow digests, refresh accounting,
    start-gap permutation validity, and ECC codec round-trip spot
    checks.  A check right after a chaos state-corruption injection
    runs at full depth whatever the level.

A failed invariant raises :class:`InvariantViolation`, a structured
failure carrying the subsystem, the invariant name, and a
deterministic detail string.  Violations tally
in ``sanitizer_violations_total{subsystem=...}`` when telemetry is on.

This module is a leaf: it imports only :mod:`repro.telemetry.runtime`,
so any simulator layer can depend on it without cycles.  Checkers
register themselves from :mod:`repro.sanitizer.checks` (imported by the
package ``__init__``), and the chaos state-corruption hook is resolved
lazily so ``repro.chaos`` stays optional at import time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.telemetry import runtime as telem

__all__ = [
    "ENV_SANITIZE",
    "LEVELS",
    "InvariantViolation",
    "CheckerEntry",
    "sanitize_on",
    "full_on",
    "level",
    "set_level",
    "current_level",
    "sync_from_env",
    "register",
    "registered",
    "check",
    "note",
    "violation",
]

ENV_SANITIZE = "REPRO_SANITIZE"

#: Recognized sanitizer levels, weakest to strongest.
LEVELS = ("off", "cheap", "full")

#: Hot-path guards.  Read directly (``sanit.sanitize_on``) by
#: instrument sites; mutate only through :func:`set_level`.
sanitize_on: bool = False
full_on: bool = False
level: str = "off"


class InvariantViolation(RuntimeError):
    """A simulator invariant failed: internal state is corrupt.

    Stringifies as ``"[subsystem] invariant: detail"`` so the runner's
    error-class protocol sees ``InvariantViolation`` and classifies the
    job outcome as ``"invariant"`` — structured, surfaced, and never
    retried (a corrupted simulation re-fails identically, or worse,
    silently skews results).
    """

    def __init__(self, subsystem: str, invariant: str, detail: str = ""):
        self.subsystem = subsystem
        self.invariant = invariant
        self.detail = detail
        message = f"[{subsystem}] {invariant}"
        if detail:
            message += f": {detail}"
        super().__init__(message)

    def to_json_dict(self) -> Dict[str, str]:
        return {
            "subsystem": self.subsystem,
            "invariant": self.invariant,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CheckerEntry:
    """One registered invariant class.

    Attributes:
        subsystem: stable key (``"dram.bank"``, ``"pcm.startgap"``, …) —
            also the pairing key for the chaos state-corruption
            injector that proves this checker detects real corruption.
        check: ``check(obj, full, ctx)`` — raise
            :class:`InvariantViolation` on a failed invariant.
        note: optional ``note(obj, ctx)`` shadow-state maintenance hook
            called (at ``full`` level only) from legitimate mutation
            points, e.g. recomputing a row's stored-data digest after a
            modeled write.
        description: one line for docs and ``registered()`` listings.
    """

    subsystem: str
    check: Callable[[Any, bool, Dict[str, Any]], None]
    note: Optional[Callable[[Any, Dict[str, Any]], None]] = None
    description: str = ""


_REGISTRY: Dict[str, CheckerEntry] = {}


def register(entry: CheckerEntry) -> CheckerEntry:
    """Register (or replace) the checker for ``entry.subsystem``."""
    _REGISTRY[entry.subsystem] = entry
    return entry


def registered() -> Dict[str, CheckerEntry]:
    """The registered invariant classes, keyed by subsystem."""
    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# Level switches
# ----------------------------------------------------------------------
def set_level(new_level: str) -> str:
    """Install a sanitizer level; returns the previous one."""
    global sanitize_on, full_on, level
    if new_level not in LEVELS:
        raise ValueError(
            f"unknown sanitize level {new_level!r}; expected one of "
            f"{', '.join(LEVELS)}"
        )
    previous = level
    level = new_level
    sanitize_on = new_level != "off"
    full_on = new_level == "full"
    return previous


def current_level() -> str:
    return level


def sync_from_env(default: Optional[str] = None) -> str:
    """Adopt ``REPRO_SANITIZE`` when set (so pool workers and
    ``REPRO_SANITIZE=full`` test runs pick the level up for free).

    An unset variable leaves the programmatic level alone unless
    ``default`` forces one; an unrecognized value reads as ``off``
    rather than crashing arbitrary importers.
    """
    raw = os.environ.get(ENV_SANITIZE, "").strip().lower()
    if raw:
        set_level(raw if raw in LEVELS else "off")
    elif default is not None:
        set_level(default)
    return level


# The level is the ``sanitize`` entry of the observer table, so
# ``telem.observing()`` saves and restores it with the sinks.
telem.OBSERVERS["sanitize"] = telem.SettingObserver(
    "sanitize", save=current_level, install=set_level)


# ----------------------------------------------------------------------
# Check dispatch (call only behind the ``sanitize_on`` guard)
# ----------------------------------------------------------------------
def violation(subsystem: str, invariant: str, detail: str = "") -> None:
    """Record and raise one invariant violation."""
    if telem.metrics_on:
        telem.counter("sanitizer_violations_total", subsystem=subsystem).inc()
    if telem.trace_on:
        telem.trace("invariant_violation", sub=subsystem,
                    invariant=invariant, detail=detail)
    raise InvariantViolation(subsystem, invariant, detail)


def check(subsystem: str, obj: Any, **ctx: Any) -> None:
    """Run the registered checker for ``subsystem`` against ``obj``.

    This is also the chaos state-corruption injection point: an armed
    ``REPRO_CHAOS`` ``corrupt:sub=<subsystem>`` entry mutates ``obj``
    *before* the checker runs (and forces the full-depth check on that
    call), which is how the negative-test suite proves each invariant
    class detects its paired corruption.
    """
    if os.environ.get("REPRO_CHAOS"):
        from repro.chaos import maybe_corrupt_state

        if maybe_corrupt_state(subsystem, obj):
            ctx["force"] = True
    entry = _REGISTRY.get(subsystem)
    if entry is None:
        return
    entry.check(obj, full_on or bool(ctx.get("force")), ctx)


def note(subsystem: str, obj: Any, **ctx: Any) -> None:
    """Shadow-state maintenance hook for legitimate mutations.

    Only does work at ``full`` level (shadow state exists to make
    ``full`` checks possible); a ``cheap``-level call returns after one
    flag read.
    """
    if not full_on:
        return
    entry = _REGISTRY.get(subsystem)
    if entry is not None and entry.note is not None:
        entry.note(obj, ctx)


# Adopt the environment at import time so pool workers (which inherit
# REPRO_SANITIZE) come up at the right level without any plumbing.
sync_from_env()
