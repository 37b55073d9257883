"""Shared utilities: seeded RNG management, unit constants, validation,
crash-safe JSONL appends."""

from repro.utils.rng import derive_rng, derive_seed, spawn_rngs
from repro.utils.units import (
    KILO,
    MEGA,
    GIGA,
    MS,
    US,
    NS,
    SECONDS_PER_YEAR,
    mebibytes,
    gibibytes,
)
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_power_of_two,
    check_probability,
)

__all__ = [
    "derive_rng",
    "derive_seed",
    "spawn_rngs",
    "KILO",
    "MEGA",
    "GIGA",
    "MS",
    "US",
    "NS",
    "SECONDS_PER_YEAR",
    "mebibytes",
    "gibibytes",
    "check_in_range",
    "check_positive",
    "check_power_of_two",
    "check_probability",
]
