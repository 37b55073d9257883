"""Bit-level helpers shared by the ECC implementations."""

from __future__ import annotations

import numpy as np


def parity(bits: np.ndarray) -> int:
    """Even parity (XOR reduction) of a bit array."""
    return int(np.bitwise_xor.reduce(bits.astype(np.uint8))) & 1
