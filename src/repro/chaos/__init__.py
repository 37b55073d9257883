"""Chaos engineering for the experiment execution stack.

Deterministic, replayable fault injection (:mod:`repro.chaos.plan`)
plus the scenario harness that proves the hardened runner recovers
from every fault it claims to (:mod:`repro.chaos.harness`,
``repro chaos`` on the CLI).
"""

from repro.chaos.plan import (
    DEFAULT_HANG_SECS,
    ENV_CHAOS,
    ENV_CHAOS_STATE,
    FAULT_KINDS,
    ChaosPlan,
    ChaosTransientError,
    FaultSpec,
    current_plan,
    fail_ledger_append,
    in_worker,
    injected_counts,
    on_job_start,
    reset,
    tear_cache_write,
    tear_journal_append,
)
from repro.chaos.state import INJECTORS, StateInjector, maybe_corrupt_state

__all__ = [
    "DEFAULT_HANG_SECS",
    "ENV_CHAOS",
    "ENV_CHAOS_STATE",
    "FAULT_KINDS",
    "INJECTORS",
    "ChaosPlan",
    "ChaosTransientError",
    "FaultSpec",
    "StateInjector",
    "current_plan",
    "fail_ledger_append",
    "in_worker",
    "injected_counts",
    "maybe_corrupt_state",
    "on_job_start",
    "reset",
    "tear_cache_write",
    "tear_journal_append",
]
