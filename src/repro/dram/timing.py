"""DDR timing parameters and derived quantities.

All times are in nanoseconds.  The defaults correspond to DDR3-1333
(the dominant speed grade among the modules of the ISCA 2014 study);
the derived :meth:`TimingParams.max_activations_per_refresh_window`
matches the paper's observation that a row pair can be activated on
the order of 1.3 million times inside one 64 ms refresh window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import MS, US
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class TimingParams:
    """DRAM timing constraints (nanoseconds).

    Attributes:
        tCK: clock period.
        tRCD: activate to read/write delay.
        tRP: precharge period.
        tRAS: minimum row-open time.
        tRC: activate-to-activate delay for one bank (tRAS + tRP).
        tCL: read latency.
        tWR: write recovery.
        tRFC: refresh cycle time (one REF command).
        tREFI: average refresh command interval.
        tREFW: refresh window — every row refreshed once per window.
        tRRD: activate-to-activate delay across banks of one rank.
        tFAW: four-activate window — at most 4 ACTs per rank per tFAW.
    """

    tCK: float = 1.5
    tRCD: float = 13.5
    tRP: float = 13.5
    tRAS: float = 36.0
    tRC: float = 49.5
    tCL: float = 13.5
    tWR: float = 15.0
    tRFC: float = 160.0
    tREFI: float = 7.8 * US
    tREFW: float = 64.0 * MS
    tRRD: float = 6.0
    tFAW: float = 30.0

    def __post_init__(self) -> None:
        for name in (
            "tCK", "tRCD", "tRP", "tRAS", "tRC", "tCL", "tWR", "tRFC",
            "tREFI", "tREFW", "tRRD", "tFAW",
        ):
            check_positive(name, getattr(self, name))
        if self.tRC < self.tRAS + self.tRP - 1e-9:
            raise ValueError(
                f"tRC ({self.tRC}) must cover tRAS + tRP ({self.tRAS + self.tRP})"
            )
        if self.tFAW < self.tRRD:
            raise ValueError("tFAW must be at least tRRD")

    @property
    def rank_activation_rate_per_ns(self) -> float:
        """Max rank-wide ACT rate: min of the tRRD and tFAW limits."""
        return min(1.0 / self.tRRD, 4.0 / self.tFAW)

    @property
    def max_activations_per_refresh_window(self) -> int:
        """Maximum single-row activations inside one refresh window.

        This is the paper's attack-budget ceiling: an aggressor row can
        be opened and closed at most ``tREFW / tRC`` times before every
        row has been refreshed once.
        """
        return int(self.tREFW / self.tRC)

    @property
    def refresh_commands_per_window(self) -> int:
        """Number of REF commands issued per refresh window."""
        return int(round(self.tREFW / self.tREFI))


#: DDR3-1333 timing, the simulator default.
DDR3_1333 = TimingParams()

#: DDR3-1066-style timing with a slower 55 ns row cycle, used by the
#: paper's worst-case analysis (yields ~1.16M activations per window).
DDR3_1066 = TimingParams(tCK=1.875, tRCD=15.0, tRP=15.0, tRAS=37.5, tRC=55.0, tCL=15.0)

#: DDR4-2400-class timing: faster row cycle (larger attack budget per
#: window), bigger tRFC — the generation §II-B notes is still vulnerable.
DDR4_2400 = TimingParams(
    tCK=0.833,
    tRCD=13.32,
    tRP=13.32,
    tRAS=32.0,
    tRC=45.32,
    tCL=13.32,
    tRFC=350.0,
)
