"""Deterministic random-number management.

Every stochastic component in the simulator draws from a
:class:`numpy.random.Generator` derived from a root seed plus a string
label.  This keeps experiments reproducible while ensuring that, e.g.,
the weak-cell placement of module #17 does not change when an unrelated
component consumes random numbers.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np
import numpy.random  # noqa: F401 — eager: keep the lazy subpackage
# import out of timed simulation regions (first derive_rng call)

_SEED_BYTES = 8

#: When not None, every derive_seed call appends its derivation label
#: here (capped) — the failure-capture bundle records these so a replay
#: can assert the same components drew the same randomness.
_capture_labels: Optional[List[str]] = None
_CAPTURE_CAP = 256


def start_label_capture() -> None:
    """Begin recording seed-derivation labels (for failure capture)."""
    global _capture_labels
    _capture_labels = []


def stop_label_capture() -> List[str]:
    """Stop recording and return the captured derivation labels."""
    global _capture_labels
    labels = _capture_labels or []
    _capture_labels = None
    return labels


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a child seed from ``root_seed`` and a sequence of labels.

    The derivation hashes the root seed together with the string forms
    of the labels, so any hashable/printable component identity (module
    serial, bank index, mechanism name) can participate.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(root_seed)).encode())
    for label in labels:
        hasher.update(b"/")
        hasher.update(str(label).encode())
    if _capture_labels is not None and len(_capture_labels) < _CAPTURE_CAP:
        _capture_labels.append(
            "/".join([str(int(root_seed))] + [str(label) for label in labels])
        )
    return int.from_bytes(hasher.digest()[:_SEED_BYTES], "little")


def derive_rng(root_seed: int, *labels: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``(root_seed, labels)``."""
    return np.random.default_rng(derive_seed(root_seed, *labels))
