"""Per-command DRAM energy accounting.

Constants are representative of a 2 Gb DDR3 device (derived from
IDD-style datasheet arithmetic); the experiments only rely on
*relative* overheads — e.g. the energy cost of refreshing 7x more
often, or of PARA's occasional extra row activations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class EnergyParams:
    """Energy per DRAM command, in nanojoules."""

    act_nj: float = 9.0
    pre_nj: float = 4.0
    read_nj: float = 13.0
    write_nj: float = 13.5
    refresh_row_nj: float = 13.0  # one internal row refresh (act+pre)


@dataclass
class EnergyAccount:
    """Accumulated energy over a simulation.

    Attributes:
        params: per-command constants.
        counts: number of each command issued.
    """

    params: EnergyParams = field(default_factory=EnergyParams)
    counts: Dict[str, int] = field(default_factory=lambda: {"act": 0, "pre": 0, "read": 0, "write": 0, "refresh_row": 0})

    def record(self, command: str, count: int = 1) -> None:
        """Record ``count`` commands of the given kind."""
        if command not in self.counts:
            raise KeyError(f"unknown command {command!r}; options: {sorted(self.counts)}")
        self.counts[command] += count

    @property
    def dynamic_nj(self) -> float:
        """Dynamic (per-command) energy."""
        p = self.params
        c = self.counts
        return (
            c["act"] * p.act_nj
            + c["pre"] * p.pre_nj
            + c["read"] * p.read_nj
            + c["write"] * p.write_nj
            + c["refresh_row"] * p.refresh_row_nj
        )

    def refresh_share(self) -> float:
        """Fraction of dynamic energy spent on refresh."""
        dynamic = self.dynamic_nj
        if dynamic == 0:
            return 0.0
        return self.counts["refresh_row"] * self.params.refresh_row_nj / dynamic
