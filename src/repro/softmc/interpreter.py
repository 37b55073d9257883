"""The SoftMC interpreter: run test programs against a simulated module.

Unlike the :class:`~repro.controller.controller.MemoryController`, the
interpreter gives the experimenter raw command control: auto-refresh
only happens when the program says ``REF``, exactly as the FPGA
infrastructure bypasses the host controller.  This is what makes
refresh-paused retention tests and maximum-rate hammering expressible.

A ``LOOP`` whose body holds only ACT and PRE on one bank runs as bank
activation runs, with the same times, flips and trace as its
per-command form; every other loop runs its body once per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.controller.refresh import RefreshEngine
from repro.dram.datapatterns import pattern_bits
from repro.dram.module import DramModule
from repro.retention.population import sample_retention_s
from repro.sanitizer import runtime as sanit
from repro.softmc.program import DramProgram, Instruction, Opcode
from repro.utils.rng import derive_rng

#: Commands per ``activate_run`` call of a looped hammer: bounds the
#: interpreter's own arrays, however long the loop.
_BLOCK = 2048


@dataclass
class ExecutionResult:
    """Outcome of one program run.

    Attributes:
        cycles_ns: simulated time consumed.
        reads: captured read data, in program order, as
            ((bank, row), bits) pairs.
        mismatches: for rows previously written by this program, the
            flipped bit indices observed at read-back.
        commands: count of each opcode executed.
    """

    cycles_ns: float = 0.0
    reads: List[Tuple[Tuple[int, int], np.ndarray]] = field(default_factory=list)
    mismatches: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)
    commands: Dict[str, int] = field(default_factory=dict)

    @property
    def total_flips(self) -> int:
        return sum(len(bits) for bits in self.mismatches.values())


class SoftMcInterpreter:
    """Executes :class:`DramProgram` instances on a module.

    Simulated time advances per command by the module's timing
    parameters (tRAS per ACT, tRP per PRE, tRC per RD/WR, tRFC per REF).
    A ``REF`` is one round-robin issue of a
    :class:`~repro.controller.refresh.RefreshEngine` on the module,
    which the interpreter owns but never ticks: refresh happens only
    when the program says so.

    Args:
        module: the device under test.
        retention_params: optional
            :class:`~repro.retention.params.RetentionParams`; when set,
            a ``WAIT`` decays the rows this program has written — cells
            whose (deterministic per-cell) retention time is shorter
            than the row's unrefreshed wait lose their charge.  A row's
            wait restarts whenever its charge is restored: a ``WR``,
            ``ACT`` or ``RD`` of it, or a ``REF`` whose chunk covers its
            physical row.  This is what makes the canned retention test
            program end-to-end meaningful.
    """

    def __init__(self, module: DramModule, retention_params=None) -> None:
        self.module = module
        self.retention_params = retention_params
        self._refresh = RefreshEngine(module)

    def run(self, program: DramProgram) -> ExecutionResult:
        """Execute ``program`` and return its results."""
        program.validate()
        result = ExecutionResult()
        written: Dict[Tuple[int, int], np.ndarray] = {}
        # Per written row, the WAIT time since its charge was restored.
        waited: Dict[Tuple[int, int], float] = {}
        self._execute(program.instructions, result, written, waited)
        # Evaluate mismatches for every row the program wrote then read.
        for (bank, row), bits in result.reads:
            expected = written.get((bank, row))
            if expected is None:
                continue
            changed = np.nonzero(bits != expected)[0]
            if len(changed):
                result.mismatches[(bank, row)] = [int(b) for b in changed]
        return result

    # ------------------------------------------------------------------
    def _execute(self, instructions, result, written, waited) -> None:
        module = self.module
        timing = module.timing
        commands = result.commands
        for ins in instructions:
            op = ins.opcode
            name = op.value
            commands[name] = commands.get(name, 0) + 1
            if op is Opcode.ACT:
                module.activate(ins.bank, ins.row, result.cycles_ns)
                waited.pop((ins.bank, ins.row), None)
                result.cycles_ns += timing.tRAS
            elif op is Opcode.PRE:
                module.precharge(ins.bank)
                result.cycles_ns += timing.tRP
            elif op is Opcode.RD:
                bits = module.read_row(ins.bank, ins.row, result.cycles_ns)
                result.reads.append(((ins.bank, ins.row), bits))
                waited.pop((ins.bank, ins.row), None)
                result.cycles_ns += timing.tRC
            elif op is Opcode.WR:
                bits = pattern_bits(ins.pattern or "solid1", ins.row, module.geometry.row_bytes)
                module.write_row(ins.bank, ins.row, bits, result.cycles_ns)
                written[(ins.bank, ins.row)] = bits.copy()
                waited.pop((ins.bank, ins.row), None)
                result.cycles_ns += timing.tRC
            elif op is Opcode.REF:
                if waited:
                    refreshed = set(self._refresh.next_rows())
                    to_physical = module.remapper.to_physical
                    for key in [k for k in waited if to_physical(k[1]) in refreshed]:
                        del waited[key]
                self._refresh.issue_ref(result.cycles_ns)
                result.cycles_ns += timing.tRFC
            elif op is Opcode.WAIT:
                result.cycles_ns += ins.ns
                if self.retention_params is not None:
                    self._apply_retention_decay(ins.ns, written, waited)
            elif op is Opcode.LOOP:
                if not self._run_loop(ins, result, waited):
                    for _ in range(ins.count):
                        self._execute(ins.body, result, written, waited)

    def _run_loop(self, loop: Instruction, result, waited) -> bool:
        """Run ``loop`` as activation runs if its body holds only ACT and
        PRE on one in-range bank and in-range rows.

        Return False, with nothing done, for any other loop: the
        per-command path then raises what it raises, after the same
        activations.
        """
        body = loop.body
        if not body or any(ins.opcode is not Opcode.ACT and ins.opcode is not Opcode.PRE
                           for ins in body):
            return False
        geometry = self.module.geometry
        banks = {ins.bank for ins in body}
        rows = {ins.row for ins in body if ins.opcode is Opcode.ACT}
        if len(banks) > 1 or not all(0 <= b < geometry.banks for b in banks) \
                or not all(0 <= row < geometry.rows for row in rows):
            return False
        if not loop.count:
            return True
        (index,) = banks
        self._activate_runs(index, body, rows, loop.count, result)
        if body[-1].opcode is Opcode.PRE:
            self.module.precharge(index)
        for row in rows:
            waited.pop((index, row), None)
        commands = result.commands
        for ins in body:
            name = ins.opcode.value
            commands[name] = commands.get(name, 0) + loop.count
        return True

    def _activate_runs(self, index: int, body, rows, count: int, result) -> None:
        """Issue ``count`` passes of ``body`` (ACT/PRE on bank ``index``,
        activating ``rows``) from ``result.cycles_ns`` and advance it,
        in blocks of at most ``_BLOCK`` commands."""
        module = self.module
        timing = module.timing
        bank = module.bank(index)
        physical = {row: module.remapper.to_physical(row) for row in rows}
        is_act = np.array([ins.opcode is Opcode.ACT for ins in body])
        body_rows = np.array([physical[ins.row] if act else -1
                              for ins, act in zip(body, is_act)], dtype=np.int64)
        steps = np.where(is_act, timing.tRAS, timing.tRP).astype(np.float64)
        total = count * len(body)
        t = result.cycles_ns
        for start in range(0, total, _BLOCK):
            at = np.arange(start, min(start + _BLOCK, total)) % len(body)
            # Left-to-right fold: the same float additions as ``+=``.
            folded = np.add.accumulate(np.concatenate(([t], steps[at])))
            acts = is_act[at]
            if acts.any():
                bank.activate_run(body_rows[at][acts].tolist(),
                                  folded[:-1][acts].tolist())
            t = float(folded[-1])
        result.cycles_ns = t

    def _apply_retention_decay(self, wait_ns: float, written: Dict, waited: Dict) -> None:
        """Flip charged cells whose retention is shorter than the
        unrefreshed wait each written row has accumulated.

        Per-cell retention times are a deterministic function of
        (module seed, bank, row), drawn by the same sampler as
        :class:`~repro.retention.population.CellPopulation`, so repeated
        runs observe the same failing cells — matching real
        retention-test behavior.
        """
        params = self.retention_params
        row_bits = self.module.geometry.row_bits
        for (bank, row) in written:
            total = waited.get((bank, row), 0.0) + wait_ns
            waited[(bank, row)] = total
            rng = derive_rng(self.module.seed, "softmc-retention", bank, row)
            failing = sample_retention_s(rng, params, row_bits) < total * 1e-9
            if not failing.any():
                continue
            # Charge loss: true cells decay to 0, anti cells to 1.  Model
            # polarity with a deterministic per-row draw.
            anti = rng.random(row_bits) < 0.5
            physical = self.module.remapper.to_physical(row)
            dev_bank = self.module.bank(bank)
            bits = dev_bank.row_bits(physical)
            bits[failing & ~anti] = 0
            bits[failing & anti] = 1
            if sanit.sanitize_on:
                # Retention decay is a legitimate in-place mutation:
                # refresh the row's stored-data shadow digest.
                sanit.note("dram.bank", dev_bank, row=physical)
