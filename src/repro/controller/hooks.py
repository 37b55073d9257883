"""The mitigation hook interface the controller exposes.

A mitigation observes the controller's command stream (activations and
periodic refresh ticks) and may inject victim-row refreshes.  Whether
it sees *true* physical adjacency (in-DRAM implementations, or a
controller with SPD-published mapping) or must guess from logical
addresses is the controller's ``spd_adjacency`` setting — the exact
deployment question §II-C raises for PARA.

A hook sees every activation in one of two ways.  Scalar commands
(``activate``, ``read``, ``write``, ``run_trace``) call
:meth:`~MitigationHook.on_activate` once each.  A hammer pattern
(``run_activation_pattern``) runs in segments: the controller first
hands the segment's commands to :meth:`~MitigationHook.scan`, which
applies the hook's state updates for the leading commands on which it
would take no controller-visible action (no victim refresh, no change
to controller time) and returns how many there were.  The command it
stopped at, if any, then goes through ``on_activate`` as usual.  For
every hook, ``scan`` followed by ``on_activate`` on the stopping
command must leave the hook exactly as one ``on_activate`` per command
would: same counters, same random draws, same audit records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.controller.controller import MemoryController


@runtime_checkable
class MitigationHook(Protocol):
    """Protocol every RowHammer mitigation implements."""

    #: short identifier used in reports
    name: str

    def on_activate(self, controller: "MemoryController", bank: int, logical_row: int, time_ns: float) -> None:
        """Called after every row activation the controller issues."""

    def scan(self, controller: "MemoryController", bank: int,
             rows: Sequence[int], times: Sequence[float]) -> int:
        """Absorb the leading activations of a pattern segment.

        ``rows[i]`` is the logical row of the segment's ``i``-th
        activation in ``bank`` and ``times[i]`` the controller time
        ``on_activate`` would see for it.  Apply the state updates of
        the leading activations on which the hook takes no
        controller-visible action, and return their count ``k``
        (``len(rows)`` when it would act on none).  The controller then
        passes activation ``k`` to :meth:`on_activate`.
        """

    def extra_refresh_ops(self) -> int:
        """Victim-refresh operations this mitigation has injected."""


class NullMitigation:
    """No mitigation — the unprotected baseline."""

    name = "none"

    def on_activate(self, controller: "MemoryController", bank: int, logical_row: int, time_ns: float) -> None:
        """Do nothing."""

    def scan(self, controller: "MemoryController", bank: int,
             rows: Sequence[int], times: Sequence[float]) -> int:
        """Never acts."""
        return len(rows)

    def extra_refresh_ops(self) -> int:
        """No extra refreshes."""
        return 0
