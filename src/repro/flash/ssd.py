"""SSD-level organization: blocks, ECC budget, lifetime, error breakdown.

The §III-A2 claims this layer reproduces:

* retention errors **dominate** the error mix as P/E cycles grow;
* an ECC budget per page defines correctability; lifetime = the P/E
  count at which the worst page's raw errors exceed that budget after
  the retention requirement has elapsed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.flash.block import FlashBlock
from repro.flash.params import FlashParams
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive


def program_block_shadow(block: FlashBlock, seed: int = 0) -> None:
    """Program every wordline with random data in the shadow sequence
    real MLC parts use (LSB of wordline n+1 before MSB of wordline n),
    which bounds the interference any finalized page suffers."""
    rng = derive_rng(seed, "ssd-data", block.seed)
    pages = {
        wl: (
            rng.integers(0, 2, size=block.cells).astype(np.uint8),
            rng.integers(0, 2, size=block.cells).astype(np.uint8),
        )
        for wl in range(block.wordlines)
    }
    block.program_lsb(0, pages[0][0])
    for wl in range(1, block.wordlines):
        block.program_lsb(wl, pages[wl][0])
        block.program_msb(wl - 1, pages[wl - 1][1])
    block.program_msb(block.wordlines - 1, pages[block.wordlines - 1][1])


@dataclass
class ErrorBreakdown:
    """Raw errors attributed per mechanism for one aged block.

    Attributes map mechanism -> total raw bit errors across the block.
    """

    wear_and_interference: int
    retention: int
    read_disturb: int

    @property
    def total(self) -> int:
        return self.wear_and_interference + self.retention + self.read_disturb

    def dominant(self) -> str:
        """Name of the largest contributor."""
        contributions = {
            "wear_and_interference": self.wear_and_interference,
            "retention": self.retention,
            "read_disturb": self.read_disturb,
        }
        return max(contributions, key=contributions.get)


def _total_errors(block: FlashBlock) -> int:
    return sum(
        block.page_errors(wl, which)
        for wl in block.programmed_wordlines()
        for which in ("lsb", "msb")
    )


def error_breakdown(
    pe_cycles: int,
    retention_days: float,
    reads: int,
    params: FlashParams = FlashParams(),
    wordlines: int = 16,
    cells: int = 2048,
    seed: int = 0,
) -> ErrorBreakdown:
    """Attribute errors by measuring after each mechanism is applied.

    Sequence: program at wear level (wear+interference errors), age
    retention (delta = retention errors), apply reads (delta =
    read-disturb errors).  Deltas can only grow because each mechanism
    moves Vth monotonically in its own direction.
    """
    block = FlashBlock(wordlines=wordlines, cells=cells, params=params, seed=seed)
    block.set_pe_cycles(pe_cycles)
    block.erase()
    block.set_pe_cycles(pe_cycles)  # erase() increments; pin the level
    program_block_shadow(block, seed=seed)
    e_program = _total_errors(block)
    block.age_retention(retention_days)
    e_retention = _total_errors(block)
    block.apply_read_disturb(reads)
    e_reads = _total_errors(block)
    return ErrorBreakdown(
        wear_and_interference=e_program,
        retention=max(0, e_retention - e_program),
        read_disturb=max(0, e_reads - e_retention),
    )


class Ssd:
    """A small SSD: a set of blocks plus an ECC budget.

    Args:
        n_blocks: blocks in the (simulated slice of the) device.
        wordlines, cells: block geometry.
        params: flash device parameters.
        ecc_correctable_per_page: raw bit errors the page ECC corrects.
        seed: device seed.
    """

    def __init__(
        self,
        n_blocks: int = 4,
        wordlines: int = 16,
        cells: int = 2048,
        params: FlashParams = FlashParams(),
        ecc_correctable_per_page: int = 40,
        seed: int = 0,
    ) -> None:
        check_positive("n_blocks", n_blocks)
        check_positive("ecc_correctable_per_page", ecc_correctable_per_page)
        self.params = params
        self.ecc_correctable_per_page = ecc_correctable_per_page
        self.blocks: List[FlashBlock] = [
            FlashBlock(wordlines=wordlines, cells=cells, params=params, seed=derive_rng(seed, "blk", i).integers(0, 2**31))
            for i in range(n_blocks)
        ]

    def age_all(self, pe_cycles: int, retention_days: float, reads: int = 0, seed: int = 0) -> None:
        """Accelerated aging of every block: wear, program, retention, reads."""
        for i, block in enumerate(self.blocks):
            block.set_pe_cycles(pe_cycles)
            block.erase()
            block.set_pe_cycles(pe_cycles)
            program_block_shadow(block, seed=seed + i)
            block.age_retention(retention_days)
            if reads:
                block.apply_read_disturb(reads)

    def worst_page_errors(self, read_refs=None) -> int:
        """Max raw errors of any programmed page on the device."""
        worst = 0
        for block in self.blocks:
            for wl in block.programmed_wordlines():
                for which in ("lsb", "msb"):
                    worst = max(worst, block.page_errors(wl, which, read_refs))
        return worst



def lifetime_pe_cycles(
    retention_requirement_days: float,
    params: FlashParams = FlashParams(),
    ecc_correctable_per_page: int = 40,
    reads: int = 0,
    wordlines: int = 8,
    cells: int = 2048,
    seed: int = 0,
    pe_hi: int = 60_000,
    tolerance: int = 250,
) -> int:
    """Binary-search the max P/E cycles meeting the retention requirement.

    A wear level passes if, after ``retention_requirement_days`` of
    retention (plus ``reads`` disturb events), no page exceeds the ECC
    budget.
    """

    def passes(pe: int) -> bool:
        ssd = Ssd(
            n_blocks=1,
            wordlines=wordlines,
            cells=cells,
            params=params,
            ecc_correctable_per_page=ecc_correctable_per_page,
            seed=seed,
        )
        ssd.age_all(pe, retention_requirement_days, reads=reads, seed=seed)
        return ssd.worst_page_errors() <= ecc_correctable_per_page

    lo, hi = 0, pe_hi
    if not passes(0):
        return 0
    if passes(pe_hi):
        return pe_hi
    while hi - lo > tolerance:
        mid = (lo + hi) // 2
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo
