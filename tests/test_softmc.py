"""Tests for the SoftMC-style test-program substrate."""

import numpy as np
import pytest

from repro.dram import DramGeometry, DramModule, VulnerabilityProfile
from repro.dram.timing import DDR3_1333
from repro.softmc import (
    Opcode,
    SoftMcInterpreter,
    DramProgram,
    hammer_program,
    retention_program,
)

GEO = DramGeometry(banks=2, rows=256, row_bytes=256)
PROFILE = VulnerabilityProfile(weak_cell_density=0.05, hc_first_median=3_000, hc_first_min=800)


def make_interpreter(seed=20, profile=PROFILE):
    module = DramModule(geometry=GEO, timing=DDR3_1333, profile=profile, seed=seed)
    return SoftMcInterpreter(module)


class TestProgramBuilder:
    def test_fluent_chain(self):
        program = DramProgram().act(0, 5).pre(0).rd(0, 5)
        assert len(program) == 3
        assert program.instructions[0].opcode == Opcode.ACT

    def test_loop_balance_validated(self):
        program = DramProgram().loop(3).act(0, 5)
        with pytest.raises(ValueError):
            program.validate()

    def test_end_without_loop(self):
        with pytest.raises(ValueError):
            DramProgram().end_loop()

    def test_nested_loops_validate(self):
        program = DramProgram().loop(2).loop(3).act(0, 1).pre(0).end_loop().end_loop()
        program.validate()

    def test_wait_positive(self):
        with pytest.raises(ValueError):
            DramProgram().wait(0)

    def test_loops_nest_as_bodies(self):
        program = DramProgram().wr(0, 1).loop(2).loop(3).act(0, 1).end_loop().ref().end_loop()
        outer = program.instructions[1]
        assert [i.opcode for i in program.instructions] == [Opcode.WR, Opcode.LOOP]
        assert outer.count == 2
        assert [i.opcode for i in outer.body] == [Opcode.LOOP, Opcode.REF]
        assert outer.body[0].count == 3
        assert [i.opcode for i in outer.body[0].body] == [Opcode.ACT]
        assert len(program) == 5  # each body counted once, no END


class TestInterpreter:
    def test_write_read_roundtrip(self):
        interp = make_interpreter()
        program = DramProgram().wr(0, 10, "colstripe").rd(0, 10)
        result = interp.run(program)
        assert len(result.reads) == 1
        assert result.mismatches == {}

    def test_loop_multiplies_commands(self):
        interp = make_interpreter()
        program = DramProgram().loop(5).act(0, 3).pre(0).end_loop()
        result = interp.run(program)
        assert result.commands["act"] == 5
        assert result.commands["pre"] == 5

    def test_nested_loop_counts(self):
        interp = make_interpreter()
        program = DramProgram().loop(3).loop(4).act(0, 3).pre(0).end_loop().end_loop()
        result = interp.run(program)
        assert result.commands["act"] == 12

    def test_timing_advances(self):
        interp = make_interpreter()
        result = interp.run(DramProgram().act(0, 3).pre(0))
        timing = interp.module.timing
        assert result.cycles_ns == pytest.approx(timing.tRAS + timing.tRP)

    def test_wait_advances_time_only(self):
        interp = make_interpreter()
        result = interp.run(DramProgram().wait(1e6))
        assert result.cycles_ns == 1e6
        assert interp.module.total_activations() == 0

    def test_ref_is_one_round_robin_refresh_issue(self):
        interp = make_interpreter()
        module = interp.module
        timing = module.timing
        rows_per_ref = max(1, GEO.rows // timing.refresh_commands_per_window)
        result = interp.run(DramProgram().loop(3).ref().end_loop())
        assert result.cycles_ns == pytest.approx(3 * timing.tRFC)
        for bank in module.banks:
            assert bank.stats.refreshes == 3 * rows_per_ref

    def test_ref_refreshes_rows(self):
        interp = make_interpreter()
        interp.module.bank(0).bulk_activate(50, 500)  # below thresholds
        result = interp.run(DramProgram().loop(300).ref().end_loop())
        assert result.commands["ref"] == 300
        # A full refresh pass reset the victims' accumulated pressure.
        assert interp.module.bank(0).pressure(51) == 0.0


class TestCannedPrograms:
    def test_hammer_program_finds_flips(self):
        interp = make_interpreter()
        program = hammer_program(
            bank=0, aggressors=[99, 101], iterations=3_000, victims_to_init=[100]
        )
        result = interp.run(program)
        assert (0, 100) in result.mismatches
        assert result.total_flips > 0

    def test_hammer_on_invulnerable_module_clean(self):
        from repro.dram import INVULNERABLE

        interp = make_interpreter(profile=INVULNERABLE)
        program = hammer_program(0, [99, 101], 3_000, victims_to_init=[100])
        result = interp.run(program)
        assert result.total_flips == 0

    def test_hammer_interrupted_by_ref_is_weaker(self):
        # Splitting the hammering into REF-separated halves resets the
        # victim and prevents flips that the uninterrupted run causes.
        interp_a = make_interpreter(seed=33)
        uninterrupted = hammer_program(0, [99, 101], 1_000, victims_to_init=[100])
        flips_a = interp_a.run(uninterrupted).total_flips

        interp_b = make_interpreter(seed=33)
        program = DramProgram().wr(0, 100, "rowstripe")
        program.loop(500).act(0, 99).pre(0).act(0, 101).pre(0).end_loop()
        # A full pass of REF commands (covers all rows), then continue.
        refs_needed = GEO.rows  # rows_per_ref >= 1 per REF
        program.loop(refs_needed).ref().end_loop()
        program.loop(500).act(0, 99).pre(0).act(0, 101).pre(0).end_loop()
        program.rd(0, 100)
        flips_b = interp_b.run(program).total_flips
        assert flips_b <= flips_a

    def test_retention_program_structure(self):
        program = retention_program(0, [5, 6], wait_ns=1e9)
        opcodes = [i.opcode for i in program.instructions]
        assert opcodes.count(Opcode.WR) == 2
        assert opcodes.count(Opcode.WAIT) == 1
        assert opcodes.count(Opcode.RD) == 2


class TestRetentionExecution:
    def _interpreter(self, seed=40):
        from repro.dram import INVULNERABLE, DramModule
        from repro.retention.params import RetentionParams

        module = DramModule(geometry=GEO, timing=DDR3_1333, profile=INVULNERABLE, seed=seed)
        params = RetentionParams(tail_fraction=2e-3)
        return SoftMcInterpreter(module, retention_params=params)

    def test_long_wait_reveals_retention_failures(self):
        interp = self._interpreter()
        # 2 seconds without refresh: tail cells (48 ms - 2 s) fail.
        program = retention_program(0, list(range(10, 26)), wait_ns=2e9)
        result = interp.run(program)
        assert result.total_flips > 0

    def test_short_wait_clean(self):
        interp = self._interpreter()
        # 1 ms without refresh: far below every cell's retention.
        program = retention_program(0, list(range(10, 26)), wait_ns=1e6)
        result = interp.run(program)
        assert result.total_flips == 0

    def test_failures_deterministic_across_runs(self):
        a = self._interpreter().run(retention_program(0, list(range(10, 26)), wait_ns=2e9))
        b = self._interpreter().run(retention_program(0, list(range(10, 26)), wait_ns=2e9))
        assert a.mismatches == b.mismatches

    def test_longer_wait_strictly_more_failures(self):
        short = self._interpreter().run(retention_program(0, list(range(10, 42)), wait_ns=1e8))
        long = self._interpreter().run(retention_program(0, list(range(10, 42)), wait_ns=6e9))
        assert long.total_flips >= short.total_flips
        assert long.total_flips > 0

    def test_failing_cells_come_from_the_population_sampler(self):
        from repro.retention.population import sample_retention_s
        from repro.utils.rng import derive_rng

        interp = self._interpreter()
        module = interp.module
        rows = list(range(10, 26))
        result = interp.run(retention_program(0, rows, wait_ns=2e9))
        expected = {}
        for row in rows:
            rng = derive_rng(module.seed, "softmc-retention", 0, row)
            failing = sample_retention_s(rng, interp.retention_params, GEO.row_bits) < 2.0
            # solid1 rows: only true cells (which decay to 0) read back flipped.
            anti = rng.random(GEO.row_bits) < 0.5
            bits = np.nonzero(failing & ~anti)[0].tolist()
            if bits:
                expected[(0, row)] = bits
        assert expected
        assert result.mismatches == expected

    # The retention clock: a row's unrefreshed time restarts when its
    # charge is restored (a write, an ACT or RD, or a REF chunk that
    # covers it), and belongs to one run.
    ROWS = list(range(100, 132))
    HALF = 1.5e9

    def _waits(self, *between):
        """Write :data:`ROWS` solid1, wait HALF, run ``between`` (each a
        function extending the program), wait HALF, read back."""
        program = DramProgram()
        for row in self.ROWS:
            program.wr(0, row)
        program.wait(self.HALF)
        for extend in between:
            extend(program)
        program.wait(self.HALF)
        for row in self.ROWS:
            program.rd(0, row)
        return program

    def _single_wait(self, wait_ns):
        return self._interpreter().run(retention_program(0, self.ROWS, wait_ns=wait_ns))

    def test_clock_runs_through_a_ref_that_misses_the_rows(self):
        # One REF refreshes one row here (row 0); rows 100-131 keep
        # decaying as if the two waits were one.
        result = self._interpreter().run(self._waits(lambda p: p.ref()))
        full = self._single_wait(2 * self.HALF)
        assert full.total_flips > self._single_wait(self.HALF).total_flips
        assert result.mismatches == full.mismatches

    def test_ref_chunks_restart_the_rows_they_cover(self):
        # 116 REFs cover physical rows 0-115: rows 100-115 restart their
        # clock, rows 116-131 do not.
        result = self._interpreter().run(
            self._waits(lambda p: p.loop(116).ref().end_loop()))
        half = self._single_wait(self.HALF).mismatches
        full = self._single_wait(2 * self.HALF).mismatches
        expected = {key: bits for key, bits in half.items() if key[1] < 116}
        expected.update({key: bits for key, bits in full.items() if key[1] >= 116})
        assert result.mismatches == expected

    def test_rewrite_restarts_the_clock(self):
        def rewrite(program):
            for row in self.ROWS:
                program.wr(0, row)

        result = self._interpreter().run(self._waits(rewrite))
        assert result.mismatches == self._single_wait(self.HALF).mismatches

    def test_activation_restarts_the_clock(self):
        def reopen(program):
            for row in self.ROWS:
                program.act(0, row).pre(0)

        result = self._interpreter().run(self._waits(reopen))
        assert result.mismatches == self._single_wait(self.HALF).mismatches

    def test_clock_is_per_run(self):
        interp = self._interpreter()
        program = retention_program(0, self.ROWS, wait_ns=self.HALF)
        first = interp.run(program)
        assert first.total_flips > 0
        assert interp.run(program).mismatches == first.mismatches

    def test_without_retention_params_wait_is_inert(self):
        from repro.dram import INVULNERABLE, DramModule

        module = DramModule(geometry=GEO, timing=DDR3_1333, profile=INVULNERABLE, seed=40)
        interp = SoftMcInterpreter(module)
        result = interp.run(retention_program(0, list(range(10, 26)), wait_ns=5e9))
        assert result.total_flips == 0
