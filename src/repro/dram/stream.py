"""Command streams: the batch unit of the columnar DRAM engine.

A :class:`CommandStream` is an append-only sequence of bank commands
(ACT/PRE/REF/SETTLE/WRITE/READ).  Both engines run it through one
dispatch loop (:meth:`repro.dram.bank.DramBank.execute`), which
iterates the commands and gathers each uninterrupted ACT run.  The
per-command reference engine applies a run one activation at a time;
the columnar engine (:mod:`repro.dram.columnar`) applies it wholesale
as one array program.

Both executions are defined to produce identical simulator state; the
differential oracle (:mod:`repro.dram.differential`) holds them to it.

The stream layer is deliberately dumb: plain parallel Python lists
that executors iterate command by command, and no model imports, so
every layer (attacks, campaigns, experiments) can build streams
without caring which engine will run them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional

import numpy as np

__all__ = [
    "OP_ACT",
    "OP_PRE",
    "OP_REF_ROW",
    "OP_REF_ALL",
    "OP_SETTLE",
    "OP_WRITE",
    "OP_READ",
    "OP_NAMES",
    "Command",
    "CommandStream",
]

#: Command opcodes.  ACT/PRE form batchable runs; everything else is a
#: barrier that flushes the pending run before executing.
OP_ACT, OP_PRE, OP_REF_ROW, OP_REF_ALL, OP_SETTLE, OP_WRITE, OP_READ = range(7)

OP_NAMES = ("act", "pre", "ref_row", "ref_all", "settle", "write", "read")


class Command(NamedTuple):
    """One decoded stream entry (``row``/``count`` are -1/0 when unused)."""

    op: int
    row: int
    count: int
    time: float
    index: int


class CommandStream:
    """An append-only bank command sequence.

    Builder methods return ``self`` so streams chain::

        stream = CommandStream().act(63, 1000).act(65, 1000).settle()
    """

    __slots__ = ("_op", "_row", "_count", "_time", "_payloads")

    def __init__(self) -> None:
        self._op: List[int] = []
        self._row: List[int] = []
        self._count: List[int] = []
        self._time: List[float] = []
        self._payloads: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def _append(self, op: int, row: int, count: int, time: float) -> "CommandStream":
        self._op.append(op)
        self._row.append(row)
        self._count.append(count)
        self._time.append(time)
        return self

    def act(self, row: int, count: int = 1, time: float = 0.0) -> "CommandStream":
        """``count`` back-to-back activations of ``row`` (a bulk ACT)."""
        return self._append(OP_ACT, row, count, time)

    def pre(self, time: float = 0.0) -> "CommandStream":
        """Precharge (close the open row)."""
        return self._append(OP_PRE, -1, 0, time)

    def ref_row(self, row: int, time: float = 0.0) -> "CommandStream":
        """Refresh one physical row."""
        return self._append(OP_REF_ROW, row, 0, time)

    def ref_all(self, time: float = 0.0) -> "CommandStream":
        """Refresh every row with accumulated disturbance state."""
        return self._append(OP_REF_ALL, -1, 0, time)

    def settle(self, time: float = 0.0) -> "CommandStream":
        """Materialize pending flips everywhere (no refresh semantics)."""
        return self._append(OP_SETTLE, -1, 0, time)

    def write(self, row: int, bits: np.ndarray, time: float = 0.0) -> "CommandStream":
        """Activate-and-write ``row`` with a full bit array."""
        self._payloads[len(self._op)] = np.asarray(bits, dtype=np.uint8)
        return self._append(OP_WRITE, row, 0, time)

    def read(self, row: int, time: float = 0.0) -> "CommandStream":
        """Activate-and-read ``row`` (result discarded; drives state only)."""
        return self._append(OP_READ, row, 0, time)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._op)

    def __iter__(self) -> Iterator[Command]:
        for i in range(len(self._op)):
            yield Command(self._op[i], self._row[i], self._count[i],
                          self._time[i], i)

    def payload(self, index: int) -> Optional[np.ndarray]:
        """The write data attached to command ``index`` (None otherwise)."""
        return self._payloads.get(index)

    def __repr__(self) -> str:
        from collections import Counter

        kinds = Counter(OP_NAMES[op] for op in self._op)
        body = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        return f"CommandStream({len(self)} commands: {body})"
