"""SoftMC-style DRAM test programs.

The paper's footnote 1 credits an FPGA-based experimental DRAM testing
infrastructure — released as SoftMC (HPCA 2017) — for enabling the
RowHammer and retention studies.  SoftMC's key idea is a tiny
instruction set for composing DDR command sequences with explicit
timing, freeing experiments from the memory controller's policies.

This module reproduces that programming model: a
:class:`DramProgram` is a list of instructions (ACT/PRE/RD/WR/REF/WAIT
and a counted LOOP that holds its body as nested instructions), built
through a fluent API and executed by
:class:`~repro.softmc.interpreter.SoftMcInterpreter` against a
simulated module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.utils.validation import check_positive


class Opcode(enum.Enum):
    """SoftMC instruction opcodes."""

    ACT = "act"
    PRE = "pre"
    RD = "rd"
    WR = "wr"
    REF = "ref"
    WAIT = "wait"
    LOOP = "loop"


@dataclass(frozen=True)
class Instruction:
    """One SoftMC instruction.

    Attributes:
        opcode: the operation.
        bank: target bank (ACT/PRE/RD/WR).
        row: target row (ACT/RD/WR).
        ns: wait duration (WAIT).
        count: iteration count (LOOP).
        pattern: data pattern name (WR).
        body: the instructions a LOOP repeats.
    """

    opcode: Opcode
    bank: int = 0
    row: int = 0
    ns: float = 0.0
    count: int = 0
    pattern: Optional[str] = None
    body: Tuple["Instruction", ...] = ()


class DramProgram:
    """A composable SoftMC command program.

    Example::

        program = (DramProgram("double-sided")
                   .loop(100_000)
                   .act(0, 99).pre(0)
                   .act(0, 101).pre(0)
                   .end_loop())
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.instructions: List[Instruction] = []
        #: Where the builder appends: the innermost open loop's body.
        self._body = self.instructions
        #: Open loops, innermost last: (count, the enclosing body).
        self._open: List[Tuple[int, List[Instruction]]] = []

    # ------------------------------------------------------------------
    # Builder API
    # ------------------------------------------------------------------
    def _emit(self, ins: Instruction) -> "DramProgram":
        self._body.append(ins)
        return self

    def act(self, bank: int, row: int) -> "DramProgram":
        """Activate a row."""
        return self._emit(Instruction(Opcode.ACT, bank=bank, row=row))

    def pre(self, bank: int) -> "DramProgram":
        """Precharge a bank."""
        return self._emit(Instruction(Opcode.PRE, bank=bank))

    def rd(self, bank: int, row: int) -> "DramProgram":
        """Activate-and-read a row (captures data into the read buffer)."""
        return self._emit(Instruction(Opcode.RD, bank=bank, row=row))

    def wr(self, bank: int, row: int, pattern: str = "solid1") -> "DramProgram":
        """Activate-and-write a named data pattern into a row."""
        return self._emit(Instruction(Opcode.WR, bank=bank, row=row, pattern=pattern))

    def ref(self) -> "DramProgram":
        """Issue one auto-refresh command."""
        return self._emit(Instruction(Opcode.REF))

    def wait(self, ns: float) -> "DramProgram":
        """Idle for ``ns`` nanoseconds (retention testing)."""
        check_positive("ns", ns)
        return self._emit(Instruction(Opcode.WAIT, ns=ns))

    def loop(self, count: int) -> "DramProgram":
        """Open a counted loop (closed by :meth:`end_loop`)."""
        check_positive("count", count)
        self._open.append((count, self._body))
        self._body = []
        return self

    def end_loop(self) -> "DramProgram":
        """Close the innermost loop: it becomes one LOOP instruction
        holding its body."""
        if not self._open:
            raise ValueError("end_loop without a matching loop")
        count, outer = self._open.pop()
        outer.append(Instruction(Opcode.LOOP, count=count, body=tuple(self._body)))
        self._body = outer
        return self

    def validate(self) -> None:
        """Raise if a loop is still open."""
        if self._open:
            raise ValueError(f"{len(self._open)} unclosed LOOP(s)")

    def __len__(self) -> int:
        """Instruction count, each loop body counted once."""
        def size(body) -> int:
            return sum(1 + size(ins.body) for ins in body)
        return size(self.instructions)


# ----------------------------------------------------------------------
# Canned experiment programs (the SoftMC paper's two showcase studies)
# ----------------------------------------------------------------------
def hammer_program(
    bank: int,
    aggressors: Sequence[int],
    iterations: int,
    victims_to_init: Sequence[int] = (),
    pattern: str = "rowstripe",
) -> DramProgram:
    """The RowHammer test: init victims, hammer aggressors, read back."""
    program = DramProgram("hammer")
    for victim in victims_to_init:
        program.wr(bank, victim, pattern)
    program.loop(iterations)
    for aggressor in aggressors:
        program.act(bank, aggressor).pre(bank)
    program.end_loop()
    for victim in victims_to_init:
        program.rd(bank, victim)
    return program


def retention_program(
    bank: int,
    rows: Sequence[int],
    wait_ns: float,
    pattern: str = "solid1",
) -> DramProgram:
    """The retention test: write, disable refresh (wait), read back."""
    program = DramProgram("retention")
    for row in rows:
        program.wr(bank, row, pattern)
    program.wait(wait_ns)
    for row in rows:
        program.rd(bank, row)
    return program
