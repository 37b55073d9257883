"""Runtime invariant checking for the simulator state itself.

``repro.sanitizer`` is the model-layer counterpart of the execution
hardening in :mod:`repro.experiments.runner` and :mod:`repro.chaos`:
per-subsystem invariant checkers (:mod:`repro.sanitizer.checks`) run
behind a near-zero-cost disabled-by-default guard
(:mod:`repro.sanitizer.runtime`), and failures capture to replayable
bundles (:mod:`repro.sanitizer.bundle`).

Note: :mod:`repro.sanitizer.bundle` is intentionally *not* imported
here — it pulls in the experiment layer, and this package must stay
importable from model code (DRAM banks, refresh engines) without cycles.
"""

from repro.sanitizer import checks  # noqa: F401  (registers the checkers)
from repro.sanitizer.runtime import (
    ENV_SANITIZE,
    LEVELS,
    CheckerEntry,
    InvariantViolation,
    check,
    current_level,
    note,
    register,
    registered,
    set_level,
    sync_from_env,
    violation,
)

__all__ = [
    "ENV_SANITIZE",
    "LEVELS",
    "CheckerEntry",
    "InvariantViolation",
    "check",
    "current_level",
    "note",
    "register",
    "registered",
    "set_level",
    "sync_from_env",
    "violation",
]
