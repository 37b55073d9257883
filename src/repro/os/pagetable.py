"""x86-64-style page-table entries stored in simulated DRAM rows.

The §II-B kernel exploit is, concretely, a *data reinterpretation*
chain: page-table pages are ordinary DRAM rows whose 64-bit words the
MMU interprets as PTEs; a disturbance flip in the PFN field of such a
word silently retargets a virtual mapping.  This module provides the
encode/decode layer: PTE words <-> row bit arrays, with the standard
field layout (present bit 0, writable bit 1, PFN in bits 12..51).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

import numpy as np

#: PTE geometry.
PTE_BITS = 64
PFN_SHIFT = 12
PFN_WIDTH = 40
PRESENT_BIT = 0
WRITABLE_BIT = 1
#: The bits :meth:`Pte.decode` reads; flips elsewhere change no entry.
FIELD_MASK = (1 << PRESENT_BIT) | (1 << WRITABLE_BIT) | (((1 << PFN_WIDTH) - 1) << PFN_SHIFT)


@dataclass(frozen=True)
class Pte:
    """One decoded page-table entry."""

    present: bool
    writable: bool
    pfn: int

    def encode(self) -> int:
        """The 64-bit entry value."""
        value = (self.pfn & ((1 << PFN_WIDTH) - 1)) << PFN_SHIFT
        if self.present:
            value |= 1 << PRESENT_BIT
        if self.writable:
            value |= 1 << WRITABLE_BIT
        return value

    @classmethod
    def decode(cls, value: int) -> "Pte":
        """Parse a 64-bit entry value."""
        return cls(
            present=bool(value & (1 << PRESENT_BIT)),
            writable=bool(value & (1 << WRITABLE_BIT)),
            pfn=(value >> PFN_SHIFT) & ((1 << PFN_WIDTH) - 1),
        )


def encode_ptes(pfns: np.ndarray) -> np.ndarray:
    """The 64-bit entry values of present, writable PTEs mapping
    ``pfns``, as one ``uint64`` array (:meth:`Pte.encode` elementwise)."""
    flags = np.uint64((1 << PRESENT_BIT) | (1 << WRITABLE_BIT))
    pfn_field = np.asarray(pfns, dtype=np.uint64) & np.uint64((1 << PFN_WIDTH) - 1)
    return (pfn_field << np.uint64(PFN_SHIFT)) | flags


def encode_pte_page(ptes: Union[List[Pte], np.ndarray], row_bits: int) -> np.ndarray:
    """Pack PTEs (:class:`Pte` objects or their entry values) into a
    row-sized bit array (LSB-first 64-bit words)."""
    capacity = row_bits // PTE_BITS
    if len(ptes) > capacity:
        raise ValueError(f"row holds at most {capacity} PTEs, got {len(ptes)}")
    if isinstance(ptes, np.ndarray):
        values = ptes.astype(np.uint64, copy=False)
    else:
        values = np.array([pte.encode() for pte in ptes], dtype=np.uint64)
    shifts = np.arange(PTE_BITS, dtype=np.uint64)
    bits = np.zeros(row_bits, dtype=np.uint8)
    bits[: values.size * PTE_BITS] = ((values[:, None] >> shifts) & np.uint64(1)).ravel()
    return bits


def pte_words(bits: np.ndarray) -> np.ndarray:
    """The entry values a row bit array holds, as ``uint64``, masked to
    the fields :meth:`Pte.decode` reads (so two words are equal exactly
    when their decoded PTEs are)."""
    if bits.size % PTE_BITS:
        raise ValueError("row size must be a multiple of 64 bits")
    words = bits.reshape(-1, PTE_BITS).astype(np.uint64)
    weights = np.uint64(1) << np.arange(PTE_BITS, dtype=np.uint64)
    return (words * weights).sum(axis=1, dtype=np.uint64) & np.uint64(FIELD_MASK)


def pte_diff(before, after) -> List[int]:
    """Indices of entries that changed (equal-length PTE lists or word
    arrays)."""
    if len(before) != len(after):
        raise ValueError("PTE lists must have equal length")
    return np.flatnonzero(np.asarray(before) != np.asarray(after)).tolist()
