"""Start-Gap wear leveling (Qureshi+, MICRO 2009).

``N`` logical lines live in ``N + 1`` physical slots; one slot is a
*gap*.  Every ``gap_period`` writes the line physically preceding the
gap is copied into it and the gap moves down by one — after ``N + 1``
moves the whole address space has rotated by one slot.  The mapping is
algebraic in the original paper; here it is kept as an explicit
permutation validated by property tests (bijective at every step, one
relocation per move).

An optional *static randomization* layer (a Feistel-style bijection on
line addresses) models the paper's full design, which defends against
spatially clustered adversarial writes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.pcm.array import PcmArray
from repro.sanitizer import runtime as sanit
from repro.utils.rng import derive_rng
from repro.utils.validation import check_int, check_positive


class StartGap:
    """Start-Gap remapper bound to a :class:`PcmArray`.

    Args:
        array: physical array with ``N + 1`` lines.
        gap_period: writes between gap movements (the psi parameter).
        randomize: install the static address-randomization layer.
        seed: randomization seed.
    """

    def __init__(
        self,
        array: PcmArray,
        gap_period: int = 16,
        randomize: bool = False,
        seed: int = 0,
    ) -> None:
        check_int("gap_period", gap_period)
        check_positive("gap_period", gap_period)
        if array.lines < 2:
            raise ValueError("array needs at least 2 lines (1 logical + gap)")
        self.array = array
        self.n_logical = array.lines - 1
        self.gap_period = gap_period
        self._mapping = np.arange(self.n_logical, dtype=np.int64)
        self._gap = self.n_logical  # last physical slot starts empty
        self._writes_since_move = 0
        self.gap_moves = 0
        if randomize:
            rng = derive_rng(seed, "startgap-rand")
            self._shuffle = rng.permutation(self.n_logical)
        else:
            self._shuffle = None

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def physical_of(self, logical: int) -> int:
        """Current physical slot of a logical line."""
        if not 0 <= logical < self.n_logical:
            raise IndexError(f"logical line {logical} out of range")
        if self._shuffle is not None:
            logical = int(self._shuffle[logical])
        return int(self._mapping[logical])

    def _gap_move(self) -> None:
        """Relocate the line above the gap into the gap (one write)."""
        victim_physical = self._gap - 1 if self._gap > 0 else self.n_logical
        # Find which logical line sits there and move it into the gap.
        holders = np.nonzero(self._mapping == victim_physical)[0]
        if len(holders) != 1:
            raise RuntimeError("start-gap mapping lost bijectivity")
        self._mapping[holders[0]] = self._gap
        self.array.write(self._gap, 1)  # the relocation copy wears the gap slot
        self._gap = victim_physical
        self.gap_moves += 1
        if sanit.sanitize_on:
            # Each gap move permutes the mapping: verify it stayed a
            # bijection.
            sanit.check("pcm.startgap", self)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write(self, logical: int, count: int = 1) -> None:
        """Apply ``count`` logical writes, moving the gap as scheduled."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if sanit.sanitize_on:
            sanit.check("pcm.startgap", self)
        remaining = count
        while remaining > 0:
            until_move = self.gap_period - self._writes_since_move
            chunk = min(remaining, until_move)
            self.array.write(self.physical_of(logical), chunk)
            self._writes_since_move += chunk
            remaining -= chunk
            if self._writes_since_move >= self.gap_period:
                self._gap_move()
                self._writes_since_move = 0

    def mapping_snapshot(self) -> np.ndarray:
        """Copy of the current logical -> physical mapping."""
        return self._mapping.copy()


def lifetime_under_pinned_attack(
    n_logical: int = 64,
    endurance_mean: float = 20_000.0,
    gap_period: int = 8,
    leveling: Optional[str] = "startgap",
    seed: int = 0,
    write_chunk: int = 64,
    max_writes: float = 1e9,
) -> float:
    """Writes survived under a repeated-write attack on one line.

    Args:
        leveling: ``None`` (raw array), ``"startgap"``, or
            ``"startgap-rand"``.

    Returns total attacker writes issued before the first line failure.
    """
    array = PcmArray(
        lines=n_logical + 1, endurance_mean=endurance_mean, seed=seed
    )
    remapper = None
    if leveling is not None:
        remapper = StartGap(
            array,
            gap_period=gap_period,
            randomize=(leveling == "startgap-rand"),
            seed=seed,
        )
    issued = 0.0
    while not array.any_failed and issued < max_writes:
        if remapper is None:
            array.write(0, write_chunk)
        else:
            remapper.write(0, write_chunk)
        issued += write_chunk
    return issued
