"""Tests for the SoftMC-style test-program substrate."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import DramGeometry, DramModule, VulnerabilityProfile, differential
from repro.dram.differential import ReferenceModule
from repro.dram.timing import DDR3_1333
from repro.retention.params import RetentionParams
from repro.softmc import (
    Opcode,
    SoftMcInterpreter,
    DramProgram,
    hammer_program,
    retention_program,
)
from repro.softmc.interpreter import _BLOCK
from repro.softmc.program import Instruction
from repro.telemetry import runtime as telem
from repro.telemetry.trace import TraceRecorder

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

    def test_looped_activation_restarts_the_clock(self):
        def reopen(program):
            program.loop(2)
            for row in self.ROWS:
                program.act(0, row).pre(0)
            program.end_loop()

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


# ----------------------------------------------------------------------
# ACT/PRE loops run as bank activation runs
# ----------------------------------------------------------------------
RETENTION = RetentionParams(tail_fraction=2e-3)
#: Timings whose sums round, so only the per-command order of float
#: additions reproduces the per-command clock.
INEXACT = dataclasses.replace(DDR3_1333, tRAS=35.1, tRP=13.32)
#: Rows the generated programs write, hammer and read: close enough
#: that hammer loops flip written victims.
NEAR = st.integers(94, 110)


def act(bank, row):
    return Instruction(Opcode.ACT, bank=bank, row=row)


def pre(bank):
    return Instruction(Opcode.PRE, bank=bank)


def loop(count, *body):
    # Built directly: the builder's ``loop`` rejects a count of 0.
    return Instruction(Opcode.LOOP, count=count, body=tuple(body))


def unroll(instructions):
    """``instructions`` with every LOOP expanded: the per-command form."""
    flat = []
    for ins in instructions:
        if ins.opcode is Opcode.LOOP:
            for _ in range(ins.count):
                flat += unroll(ins.body)
        else:
            flat.append(ins)
    return flat


def pass_length(body):
    return sum(ins.count * pass_length(ins.body) if ins.opcode is Opcode.LOOP else 1
               for ins in body)


def program_of(instructions):
    program = DramProgram()
    program.instructions.extend(instructions)
    return program


@st.composite
def act_pre_body(draw, bank, nested):
    """1-4 ACT/PRE commands on ``bank``, often closed by a PRE; with
    ``nested``, some are inner loops (counts 0-3 or 1100) and an ACT
    may name the other bank, so the outer loop runs per command."""
    kinds = ["act", "act", "pre"] + (["loop", "other"] if nested else [])
    body = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        if kind == "act":
            body.append(act(bank, draw(NEAR)))
        elif kind == "pre":
            body.append(pre(bank))
        elif kind == "other":
            body.append(act(1 - bank, draw(NEAR)))
        else:
            count = draw(st.sampled_from([0, 1, 2, 3, 1100]))
            body.append(loop(count, *draw(act_pre_body(bank, False))))
    if draw(st.booleans()):
        body.append(pre(bank))
    return body


@st.composite
def hammer_loop(draw):
    """An ACT/PRE loop: a short pass repeats 0, 1 or thousands of
    times, a long one 0-3 times."""
    body = draw(act_pre_body(draw(st.sampled_from([0, 0, 1])), True))
    if pass_length(body) <= 4:
        count = draw(st.sampled_from([0, 1]) | st.integers(1000, 3000))
    else:
        count = draw(st.integers(0, 3))
    return loop(count, *body)


@st.composite
def softmc_program(draw):
    """WR of victims; hammer loops, REF, RD and WAIT between them; a
    REF loop around a hammer loop; read-back of the victims."""
    victims = draw(st.lists(NEAR, min_size=1, max_size=3, unique=True))
    patterns = st.sampled_from(["solid1", "rowstripe", "checkered"])
    program = [Instruction(Opcode.WR, bank=0, row=v, pattern=draw(patterns))
               for v in victims]
    step = st.one_of(
        hammer_loop(), hammer_loop(),
        st.builds(lambda n: [Instruction(Opcode.REF)] * n, st.integers(1, 3)),
        st.builds(lambda row: Instruction(Opcode.RD, bank=0, row=row), NEAR),
        st.builds(lambda ns: Instruction(Opcode.WAIT, ns=ns),
                  st.sampled_from([1e6, 5e8, 2e9])),
        st.builds(lambda n, inner: loop(n, inner, Instruction(Opcode.REF)),
                  st.integers(1, 3), hammer_loop()))
    for item in draw(st.lists(step, min_size=1, max_size=5)):
        program += item if isinstance(item, list) else [item]
    program += [Instruction(Opcode.RD, bank=0, row=v) for v in victims]
    return program


def run_observed(instructions, remap):
    """Run ``instructions`` on a fresh module under a trace recorder and
    the full sanitizer: everything the two forms must agree on."""
    recorder = TraceRecorder(capacity=1 << 17)
    with telem.observing(trace=recorder, sanitize="full"):
        module = DramModule(geometry=GEO, timing=INEXACT, profile=PROFILE,
                            seed=20, remap_scheme=remap)
        result = SoftMcInterpreter(module, retention_params=RETENTION).run(
            program_of(instructions))
        banks = []
        for bank in module.banks:
            seen = differential.observe(bank, 0)
            seen.row_data = {row: bits.tobytes() for row, bits in seen.row_data.items()}
            banks.append(seen)
    assert len(recorder) < 1 << 17, "the trace must not spill"
    return {
        "cycles_ns": result.cycles_ns,
        "commands": {k: n for k, n in result.commands.items() if k != "loop"},
        "reads": [(loc, bits.tobytes()) for loc, bits in result.reads],
        "mismatches": result.mismatches,
        "banks": banks,
        "trace": [(e.kind, e.t, sorted(e.fields.items())) for e in recorder.events()],
    }


class TestLoopRuns:
    """A LOOP of ACT/PRE on one bank runs as bank activation runs; its
    oracle is the same program with every loop unrolled, which has no
    LOOP and so runs one command at a time."""

    @settings(max_examples=30, deadline=None)
    @given(program=softmc_program(),
           remap=st.sampled_from(["xor-msb", "block-swap"]))
    def test_loops_equal_their_unrolled_program(self, program, remap):
        looped = run_observed(program, remap)
        assert looped == run_observed(unroll(program), remap)

    def test_the_example_shapes_flip_and_match(self):
        # Uninterrupted and split-by-refresh hammering, and a retention
        # program with a hammer loop before its WAIT.
        hammer = [loop(1500, act(0, 99), pre(0), act(0, 101), pre(0))]
        programs = [
            [Instruction(Opcode.WR, bank=0, row=100, pattern="rowstripe"),
             *hammer, Instruction(Opcode.RD, bank=0, row=100)],
            [Instruction(Opcode.WR, bank=0, row=100, pattern="rowstripe"),
             *hammer, loop(GEO.rows, Instruction(Opcode.REF)), *hammer,
             Instruction(Opcode.RD, bank=0, row=100)],
            [*(Instruction(Opcode.WR, bank=0, row=r) for r in range(96, 106)),
             *hammer, Instruction(Opcode.WAIT, ns=2e9),
             *(Instruction(Opcode.RD, bank=0, row=r) for r in range(96, 106))],
        ]
        for instructions in programs:
            looped = run_observed(instructions, "identity")
            assert looped["mismatches"]
            assert looped == run_observed(unroll(instructions), "identity")

    def test_commands_count_every_loop_pass(self):
        program = [loop(4, act(0, 5), act(0, 7), pre(0)), loop(0, act(0, 9))]
        result = make_interpreter().run(program_of(program))
        assert result.commands == {"loop": 2, "act": 8, "pre": 4}

    @pytest.mark.parametrize("last, open_row", [(pre(1), None), (act(1, 102), 102)])
    def test_a_loop_leaves_its_last_command_open_or_closed(self, last, open_row):
        # A RD of the row the loop left open activates nothing more.
        program = [loop(5, act(1, 100), pre(1), last), Instruction(Opcode.RD, bank=1, row=102)]
        looped = run_observed(program, "identity")
        assert looped == run_observed(unroll(program), "identity")
        interp = make_interpreter()
        interp.run(program_of(program[:1]))
        assert interp.module.bank(1).open_row == open_row

    @pytest.mark.parametrize("program", [
        [loop(3000, act(0, 99), pre(0), act(0, 101), pre(0))],
        [loop(3000, act(0, 99), act(0, 101))],
    ], ids=["double-sided", "no-pre"])
    def test_runs_go_out_in_bounded_blocks(self, program, monkeypatch):
        interp = make_interpreter()
        bank_class = type(interp.module.bank(0))
        activate_run = bank_class.activate_run
        sizes = []

        def counted(self, rows, times):
            sizes.append(len(rows))
            return activate_run(self, rows, times)

        monkeypatch.setattr(bank_class, "activate_run", counted)
        result = interp.run(program_of(program))
        acts = sum(ins.opcode is Opcode.ACT for ins in unroll(program))
        assert max(sizes) <= _BLOCK == 2048
        assert sum(sizes) == acts == result.commands["act"]
        assert interp.module.total_activations() == acts


@pytest.mark.parametrize("engine", [ReferenceModule, DramModule],
                         ids=["reference", "columnar"])
@pytest.mark.parametrize("body, error", [
    ((act(0, 10), pre(0), act(0, GEO.rows + 44), pre(0)),
     f"row {GEO.rows + 44} out of range [0, {GEO.rows})"),
    ((act(0, 10), pre(0), act(0, -1)), f"row -1 out of range [0, {GEO.rows})"),
    ((act(5, 10), pre(5)), f"bank 5 out of range [0, {GEO.banks})"),
    ((pre(2),), f"bank 2 out of range [0, {GEO.banks})"),
], ids=["row-past-end", "negative-row", "act-bank", "pre-bank"])
def test_out_of_range_loop_raises_as_per_command(engine, body, error):
    """A loop naming an out-of-range row or bank raises what the
    per-command path raises, after the same activations."""
    outcomes = []
    for instructions in ([loop(5, *body)], unroll([loop(5, *body)])):
        module = engine(geometry=GEO, timing=DDR3_1333, profile=PROFILE, seed=20)
        with pytest.raises(IndexError) as raised:
            SoftMcInterpreter(module).run(program_of(instructions))
        outcomes.append((str(raised.value), module.total_activations(),
                         [bank.open_row for bank in module.banks],
                         [list(bank.stats.flip_log) for bank in module.banks]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == error
