"""Benign and adversarial access-stream generators."""

from repro.workloads.generators import (
    Trace,
    mixed_with_attacker,
    random_access,
)

__all__ = [
    "Trace",
    "mixed_with_attacker",
    "random_access",
]
