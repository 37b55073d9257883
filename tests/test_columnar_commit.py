"""Deferred activation runs in the columnar engine: commit points and
guards.

Scalar ``activate`` calls only queue ``(row, time)`` on the bank's
pending run.  Every call that can observe or change what the run
touches must commit it first, so each observation below is taken with
the run still pending (no ``finish()``, no settle) and must equal the
reference engine's, which applied every command as it arrived.  A read
or write leaves a *quiet* run (one that cannot reach the flip floor)
pending, and commits any other.  Observers do not change when a run
commits: under tracing and the sanitizer the run is still pending at
the same point, and after a commit the trace's ``activate``/``bit_flip``
sequence, the shadow digests and the physics provenance all match the
reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (DramGeometry, DramModule, VulnerabilityProfile,
                        columnar, differential)
from repro.dram.columnar import _RUN_LIMIT
from repro.dram.differential import ReferenceModule
from repro.dram.stream import CommandStream
from repro.dram.timing import DDR3_1333
from repro.sanitizer import runtime as sanit
from repro.telemetry import physics as phys
from repro.telemetry import runtime as telem
from repro.telemetry.trace import TraceRecorder
from tests import test_controller_oracle as oracle

GEO = DramGeometry(banks=2, rows=256, row_bytes=64)
PROFILE = VulnerabilityProfile(
    weak_cell_density=0.06, hc_first_median=2_000, hc_first_min=500,
    distance2_weight=0.1)
#: Module class per engine: production modules run columnar banks.
MODULES = {"reference": ReferenceModule, "columnar": DramModule}
ENGINES = tuple(MODULES)
VICTIM = 100
#: Pairs of aggressor activations per hammer: past the threshold floor,
#: so the victim's own closing activation flips cells, and one run
#: short of the engine's run cap, so nothing commits early.
PAIRS = 1_000


@pytest.fixture(autouse=True)
def _sanitizer_off():
    # Deferral is what these tests observe; the guard tests below switch
    # the sanitizer on themselves (conftest restores the level after).
    sanit.set_level("off")


def hammered(engine, pattern="rowstripe", probe=None, prelude=None):
    """A module whose bank 0 holds a deferred double-sided hammer that
    ends by sensing the victim (a flipping window) and one neighbor.
    ``prelude(module)``, if given, runs first; ``probe(module)``, if
    given, runs after each aggressor activation."""
    module = MODULES[engine](geometry=GEO, timing=DDR3_1333, profile=PROFILE,
                             default_pattern=pattern, seed=7)
    if prelude is not None:
        prelude(module)
    t = 0.0
    for _ in range(PAIRS):
        for row in (VICTIM - 1, VICTIM + 1):
            module.activate(0, row, t)
            module.precharge(0)
            if probe is not None:
                probe(module)
            t += 50.0
    module.activate(0, VICTIM, t)
    module.activate(0, VICTIM + 2, t + 50.0)
    return module


def pending(module):
    bank = module.bank(0)
    return len(getattr(bank, "_run", ()))


def both(observe, **kwargs):
    """``observe(module)`` on each engine's freshly hammered module; the
    columnar run must still be pending when the observation starts."""
    results = {}
    for engine in ENGINES:
        module = hammered(engine, **kwargs)
        if engine == "columnar":
            assert pending(module) == 2 * PAIRS + 2
        results[engine] = (observe(module),
                           list(module.bank(0).stats.flip_log))
    return results


def agree(observe, **kwargs):
    results = both(observe, **kwargs)
    assert results["columnar"] == results["reference"]
    assert results["reference"][1], "the hammer must flip the victim"
    return results["reference"][0]


class TestCommitPoints:
    def test_stats_attribute(self):
        agree(lambda m: (m.bank(0).stats.flips_materialized,
                         list(m.bank(0).stats.flip_log)))

    def test_module_total_flips(self):
        assert agree(lambda m: m.total_flips()) > 0

    def test_pressure(self):
        rows = range(VICTIM - 3, VICTIM + 5)
        values = agree(lambda m: [m.bank(0).pressure(r) for r in rows])
        assert any(values)

    @pytest.mark.parametrize("accessor", ["peak", "last_aggressor"])
    def test_row_accessors(self, accessor):
        agree(lambda m: [(r, getattr(m.bank(0), accessor)(r))
                         for r in range(VICTIM - 3, VICTIM + 5)])

    def test_disturbed_rows(self):
        assert VICTIM + 3 in agree(lambda m: m.bank(0).disturbed_rows())

    def test_stored_bits(self):
        agree(lambda m: m.bank(0).stored_bits(VICTIM).tobytes())
        assert agree(lambda m: m.bank(0).stored_bits(VICTIM + 40)) is None

    def test_row_bits(self):
        agree(lambda m: m.bank(0).row_bits(VICTIM).tobytes())

    def test_touched_rows(self):
        assert VICTIM in agree(lambda m: m.bank(0).touched_rows())

    def test_set_default_pattern(self):
        # Pending windows flip and log against the pattern they ran under,
        # and rows already instantiated keep the data they hold.
        def change(module):
            bank = module.bank(0)
            bank.set_default_pattern("checkered")
            return ([entry[5] for entry in bank.stats.flip_log],
                    [bank.row_bits(row).tobytes()
                     for row in (VICTIM - 1, VICTIM, VICTIM + 2)])

        assert set(agree(change)[0]) == {"rowstripe"}

    @pytest.mark.parametrize("call", [
        lambda b: b.refresh_row(VICTIM, 1e6).tobytes(),
        lambda b: b.refresh_rows([VICTIM - 2, VICTIM, VICTIM + 3], 1e6),
        lambda b: b.refresh_all(1e6),
        lambda b: b.settle(1e6),
        lambda b: b.bulk_activate(VICTIM + 1, 10, 1e6),
        lambda b: b.read(VICTIM - 1, 1e6).tobytes(),
    ], ids=["refresh_row", "refresh_rows", "refresh_all", "settle",
            "bulk_activate", "read"])
    def test_commands(self, call):
        agree(lambda m: (call(m.bank(0)), m.bank(0).pressure(VICTIM + 1),
                         m.bank(0).row_bits(VICTIM).tobytes()))

    def test_write_commits_before_storing(self):
        # The victim's pending window reads its dominant aggressor's old
        # content (rowstripe: the opposite of the victim's); the write
        # must land after it, or aggressor-sensitive cells would relieve.
        def write(module):
            bank = module.bank(0)
            bank.write(VICTIM + 1, np.ones(GEO.row_bits, dtype=np.uint8))
            return bank.row_bits(VICTIM + 1).tobytes(), bank.pressure(VICTIM)

        agree(write)

    def test_open_row_and_activation_count_are_eager(self):
        module = hammered("columnar")
        bank = module.bank(0)
        assert bank.open_row == VICTIM + 2
        assert pending(module) == 2 * PAIRS + 2
        assert module.total_activations() == 2 * PAIRS + 2
        assert pending(module) == 0  # reading stats committed the run

    def test_long_runs_commit_at_the_cap(self):
        assert 2 * PAIRS + 2 < _RUN_LIMIT

        def long_run(module):
            for i in range(3 * _RUN_LIMIT):
                module.activate(0, VICTIM + 1 + 2 * (i % 2), 1e6 + i)
            assert pending(module) < _RUN_LIMIT
            return [module.bank(0).pressure(r) for r in range(VICTIM, VICTIM + 5)]

        agree(long_run)

    def test_execute_commits_first(self):
        agree(lambda m: (m.bank(0).execute(
            CommandStream().act(VICTIM + 1, 500, 1e6).ref_row(VICTIM, 2e6)),
            m.bank(0).pressure(VICTIM + 2)))


def hammer_trace(engine, probe=None):
    """Every trace event of a hammer, after a commit."""
    telem.enable_tracing(capacity=1 << 16, fresh=True)
    module = hammered(engine, probe=probe)
    if engine == "columnar" and probe in (None, far_refreshes):
        assert pending(module) == 2 * PAIRS + 2  # tracing defers too
    module.total_flips()  # a commit point emits the run's events
    return telem.get_tracer().events()


def traced_hammer(engine, probe=None):
    """The ``activate``/``bit_flip`` events of a hammer, after a commit."""
    return [(e.kind, e.t, e.fields.get("row"))
            for e in hammer_trace(engine, probe)
            if e.kind in ("activate", "bit_flip")]


def bank_events(engine, probe):
    """The ``activate``/``refresh``/``bit_flip`` events of a hammer in
    both banks, as ``(kind, t, bank, row)``."""
    return [(e.kind, e.t, e.fields["bank"], e.fields["row"])
            for e in hammer_trace(engine, probe)
            if e.kind in ("activate", "refresh", "bit_flip")]


#: Rows at least 3 away from every row the hammer activates (99..102).
FAR = [VICTIM - 40, 3, VICTIM + 60]


def far_refreshes(module):
    """Every 97th call, an auto-refresh of ``FAR`` in both banks (bank 1
    holds no run, so its events wait in line behind bank 0's)."""
    module.probes = getattr(module, "probes", 0) + 1
    if module.probes % 97 == 0:
        for bank in range(GEO.banks):
            module.refresh_physical_rows(bank, FAR, 10.0 * module.probes)


class TestDeferredRefresh:
    """An auto-refresh that neither touches the run's rows nor holds a
    live window runs with the run left pending."""

    @pytest.mark.parametrize("rows", [FAR, [VICTIM - 4], [VICTIM + 5, 0]],
                             ids=["far", "below", "above"])
    def test_far_refresh_leaves_the_run_pending(self, rows):
        def refresh(module):
            bank = module.bank(0)
            before = pending(module)
            flips = bank.refresh_rows(rows, 1e6)
            assert pending(module) == before
            return (flips, [bank.pressure(r) for r in range(VICTIM - 5, VICTIM + 6)],
                    bank.row_bits(VICTIM).tobytes(), bank.disturbed_rows())

        agree(refresh)

    def test_later_observations_agree(self):
        # Far refreshes between the hammer's activations, then every
        # commit-point observation.
        def observe(module):
            bank = module.bank(0)
            return ([bank.pressure(r) for r in range(VICTIM - 5, VICTIM + 6)],
                    [bank.peak(r) for r in FAR], bank.stats.refreshes,
                    bank.stats.activations, bank.disturbed_rows(),
                    bank.row_bits(VICTIM).tobytes())

        agree(observe, probe=far_refreshes)

    @pytest.mark.parametrize("rows", [[VICTIM + 4], [VICTIM - 3, 7], [0, VICTIM + 2]],
                             ids=["reach-top", "reach-bottom", "run-row"])
    def test_refresh_in_reach_commits_first(self, rows):
        def refresh(module):
            bank = module.bank(0)
            flips = bank.refresh_rows(rows, 1e6)
            assert pending(module) == 0
            return flips, [bank.pressure(r) for r in range(VICTIM - 5, VICTIM + 6)]

        agree(refresh)

    def test_far_live_window_commits_first(self):
        # Row 31 carries a live window (peak > 0) from before the hammer:
        # refreshing it materializes a window, so the run commits first
        # and the flip log keeps command order.
        def prelude(module):
            module.activate(0, 30, 0.0)
            module.bank(0).pressure(31)  # commit the prelude

        module = hammered("columnar", prelude=prelude)
        assert module.bank(0).stored_charge(31) == (1.0, 1.0)
        module.bank(0).refresh_rows([31], 1e6)
        assert pending(module) == 0
        agree(lambda m: (m.bank(0).refresh_rows([31], 1e6),
                         m.bank(0).pressure(31)), prelude=prelude)

    @pytest.mark.parametrize("level", ["cheap", "full"])
    def test_sanitizer_does_not_commit(self, level):
        # The checker reads charge through stored_charge, so a far
        # refresh defers under the sanitizer as without it.
        sanit.set_level(level)
        module = hammered("columnar")
        module.bank(0).refresh_rows(FAR, 1e6)
        assert pending(module) == 2 * PAIRS + 2


#: Rows a quiet run activates: far from one another and from the
#: victim, three activations stay far below the profile's flip floor.
SCATTERED = [20, 60, 180]
WRITTEN = (np.arange(GEO.row_bits) % 3 == 0).astype(np.uint8)
ACCESSES = {
    "read": lambda bank, row, t: bank.read(row, t).tobytes(),
    "write": lambda bank, row, t: bank.write(row, WRITTEN, t),
}


def quiet(engine, access):
    """A module whose bank 0 queued the ``SCATTERED`` activations and
    then ``access``-ed ``VICTIM + 1`` (activating it): a quiet run.
    Returns the module and the access's result."""
    module = MODULES[engine](geometry=GEO, timing=DDR3_1333, profile=PROFILE,
                             default_pattern="rowstripe", seed=7)
    t = 0.0
    for scattered in SCATTERED:
        module.activate(0, scattered, t)
        module.precharge(0)
        t += 50.0
    return module, ACCESSES[access](module.bank(0), VICTIM + 1, t)


def observations(module):
    """Every commit-point observation of bank 0, flip log last."""
    bank = module.bank(0)
    rows = range(VICTIM - 3, VICTIM + 5)
    return ([bank.pressure(r) for r in rows], [bank.peak(r) for r in rows],
            [bank.last_aggressor(r) for r in rows], bank.disturbed_rows(),
            bank.touched_rows(), bank.row_bits(VICTIM + 1).tobytes(),
            bank.row_bits(VICTIM).tobytes(),
            (bank.stats.activations, bank.stats.reads, bank.stats.writes),
            list(bank.stats.flip_log))


class TestQuietReads:
    """A read, or a write of the row the run's last activation opened,
    leaves a quiet run pending: no window it closes can reach the flip
    floor, so it flips nothing and reads no row's content."""

    @pytest.mark.parametrize("access", sorted(ACCESSES))
    def test_quiet_access_leaves_the_run_pending(self, access):
        seen = {}
        for engine in ENGINES:
            module, result = quiet(engine, access)
            if engine == "columnar":
                assert pending(module) == len(SCATTERED) + 1
                assert module.bank(0)._traced == pending(module)
            seen[engine] = (result, observations(module))
        assert seen["columnar"] == seen["reference"]

    @pytest.mark.parametrize("access", sorted(ACCESSES))
    def test_later_observations_agree(self, access):
        # More quiet accesses, a far refresh and an execute stream with
        # a READ entry after the deferral, then every observation.
        seen = {}
        for engine in ENGINES:
            module, _ = quiet(engine, access)
            bank = module.bank(0)
            reads = [bank.read(row, 1e3 + row).tobytes() for row in (VICTIM - 1, 61)]
            bank.write(61, WRITTEN, 2e3)
            bank.refresh_rows([3, 200, 240], 3e3)
            if engine == "columnar":
                assert pending(module) == len(SCATTERED) + 3
            flips = bank.execute(CommandStream().read(VICTIM + 1, 4e3)
                                 .act(VICTIM - 1, 20, 5e3).read(60, 6e3))
            seen[engine] = (reads, flips, observations(module))
        assert seen["columnar"] == seen["reference"]

    @pytest.mark.parametrize("access", sorted(ACCESSES))
    def test_access_after_a_live_run_commits_first(self, access):
        # A hammer queued after the quiet accesses takes the victim past
        # the floor: the victim's access must close that window first.
        seen = {}
        for engine in ENGINES:
            module, _ = quiet(engine, access)
            t = 1e3
            for _ in range(PAIRS):
                for row in (VICTIM - 1, VICTIM + 1):
                    module.activate(0, row, t)
                    module.precharge(0)
                    t += 50.0
            result = ACCESSES[access](module.bank(0), VICTIM, t)
            if engine == "columnar":
                assert pending(module) == 0
            seen[engine] = (result, observations(module))
        assert seen["columnar"] == seen["reference"]
        assert seen["reference"][1][-1], "the hammer must flip the victim"

    @pytest.mark.parametrize("settle", [False, True], ids=["peak", "settled"])
    def test_stored_charge_counts_toward_the_floor(self, settle):
        # The victim holds 450 of the floor's 500, as its peak or, after
        # a settle, as its pressure alone.  A run of 490 activations is
        # short of the floor, but the victim's read closes a window that
        # reaches it and flips.
        def hammer(module, pairs, t):
            for _ in range(pairs):
                for row in (VICTIM - 1, VICTIM + 1):
                    module.activate(0, row, t)
                    module.precharge(0)
                    t += 50.0
            return t

        seen = {}
        for engine in ENGINES:
            module = MODULES[engine](geometry=GEO, timing=DDR3_1333,
                                     profile=PROFILE,
                                     default_pattern="rowstripe", seed=7)
            bank = module.bank(0)
            t = hammer(module, 225, 0.0)
            assert bank.peak(VICTIM) == 450.0
            if settle:
                bank.settle(t)
            t = hammer(module, 245, t)
            result = bank.read(VICTIM, t).tobytes()
            if engine == "columnar":
                assert pending(module) == 0
            seen[engine] = (result, list(bank.stats.flip_log))
        assert seen["columnar"] == seen["reference"]
        assert seen["reference"][1], "the victim's window must flip"

    @pytest.mark.parametrize("config", oracle.CONFIGS,
                             ids=[c[0] for c in oracle.CONFIGS])
    def test_trace_replay_commits_rarely(self, config, monkeypatch):
        # A scattered trace never nears the floor between its attacker's
        # bursts: its reads and writes leave their runs pending.
        commits = []
        commit = columnar.ColumnarDramBank._commit

        def counted(bank):
            if bank._run:
                commits.append(len(bank._run))
            commit(bank)

        monkeypatch.setattr(columnar.ColumnarDramBank, "_commit", counted)
        trace = oracle.mixed_trace()
        oracle.make_controller("columnar", *config[1:]).run_trace(trace)
        assert len(commits) < len(trace) // 10

    def test_trace_order_across_banks(self):
        # Quiet reads alternate between the banks, each followed by a
        # far refresh of both: every event goes out in command order.
        def events(engine):
            recorder = TraceRecorder(capacity=1 << 12)
            with telem.observing(trace=recorder):
                module = MODULES[engine](geometry=GEO, timing=DDR3_1333,
                                         profile=PROFILE, seed=7)
                for i, row in enumerate(SCATTERED * 2):
                    module.read_row(i % 2, row, 50.0 * i)
                    for bank in range(GEO.banks):
                        module.refresh_physical_rows(bank, [3, 240], 50.0 * i + 1)
                module.total_flips()
            return [(e.kind, e.t, e.fields["bank"], e.fields["row"])
                    for e in recorder.events()]

        assert events("columnar") == events("reference")

    def test_quiet_access_checks_its_rows(self):
        # The deferral runs the checks a commit would: a quiet read that
        # opens a row whose data changed outside the model is caught.
        sanit.set_level("full")
        module, _ = quiet("columnar", "write")
        bank = module.bank(0)
        bank._cs.store[VICTIM + 1][0] ^= 1
        bank.precharge()
        with pytest.raises(sanit.InvariantViolation, match="digest"):
            bank.read(VICTIM + 1, 1e3)


# ----------------------------------------------------------------------
# Quiet and live runs under every observer, both engines
# ----------------------------------------------------------------------
QUIET_GEO = DramGeometry(banks=2, rows=32, row_bytes=16)
#: A flip floor of 12 activations: bursts of up to 60 make live runs,
#: scattered accesses quiet ones.
QUIET_PROFILES = [VulnerabilityProfile(
    weak_cell_density=0.15, hc_first_median=30.0, hc_first_min=12.0,
    distance2_weight=d2) for d2 in (0.0, 0.3)]

quiet_row = st.integers(0, QUIET_GEO.rows - 1)
quiet_bank = st.integers(0, QUIET_GEO.banks - 1)
#: ``(kind, row, data seed)``: a read or a write.
quiet_access = st.tuples(st.sampled_from(["read", "write"]), quiet_row,
                         st.integers(0, 1 << 16))
stream_entry = st.one_of(
    st.tuples(st.just("act"), quiet_row, st.integers(1, 30)),
    st.tuples(st.sampled_from(["read", "write"]), quiet_row,
              st.integers(0, 1 << 16)),
    st.tuples(st.sampled_from(["pre", "ref_row"]), quiet_row))
#: Offsets of a burst's rows, and of its closing access, from its anchor.
near = st.integers(-3, 3)
#: A burst is ``(anchor, offsets, activations, as one activate_run,
#: closing access or None)``.  A burst with no access leaves its
#: activations queued and untraced, so two banks' pending runs
#: interleave in the trace line.
quiet_step = st.one_of(
    st.tuples(st.just("burst"), quiet_bank, quiet_row,
              st.lists(near, min_size=1, max_size=3), st.integers(1, 60),
              st.booleans(),
              st.none() | st.tuples(st.sampled_from(["read", "write"]), near,
                                    st.integers(0, 1 << 16))),
    st.tuples(st.just("access"), quiet_bank, quiet_access),
    st.tuples(st.just("refresh_rows"), quiet_bank,
              st.lists(quiet_row, min_size=1, max_size=4)),
    st.tuples(st.just("execute"), quiet_bank,
              st.lists(stream_entry, min_size=1, max_size=8)),
    st.tuples(st.just("row_bits"), quiet_bank, quiet_row),
    # A settle leaves pressure above peak: it counts toward a window.
    st.tuples(st.just("settle"), quiet_bank))


def clip(row):
    return min(max(row, 0), QUIET_GEO.rows - 1)


def quiet_data(seed):
    return np.random.default_rng(seed).integers(
        0, 2, QUIET_GEO.row_bits).astype(np.uint8)


def replay_observed(engine, script, profile, pattern):
    """``script`` on a fresh two-bank module of ``engine`` under a trace
    recorder and the full sanitizer: the trace events in order, the
    steps' results and each bank's observation."""
    recorder = TraceRecorder(capacity=1 << 16)
    results = []
    with telem.observing(trace=recorder, sanitize="full"):
        module = MODULES[engine](geometry=QUIET_GEO, timing=DDR3_1333,
                                 profile=profile, default_pattern=pattern,
                                 seed=5)
        t = 0.0

        def access(bank, kind, row, seed):
            if kind == "read":
                results.append(module.read_row(bank, row, t).tobytes())
            else:
                module.write_row(bank, row, quiet_data(seed), t)

        for step, bank, *args in script:
            t += 10.0
            if step == "burst":
                anchor, offsets, n, as_run, closing = args
                rows = [clip(anchor + off) for off in offsets]
                seq = [rows[i % len(rows)] for i in range(n)]
                times = [t + i for i in range(n)]
                t += n
                if as_run:
                    module.bank(bank).activate_run(seq, times)
                else:
                    for row, when in zip(seq, times):
                        module.activate(bank, row, when)
                if closing:
                    kind, offset, seed = closing
                    access(bank, kind, clip(anchor + offset), seed)
            elif step == "access":
                access(bank, *args[0])
            elif step == "refresh_rows":
                module.refresh_physical_rows(bank, args[0], t)
            elif step == "execute":
                stream = CommandStream()
                for kind, row, *rest in args[0]:
                    t += 1.0
                    if kind == "act":
                        stream.act(row, rest[0], t)
                    elif kind == "write":
                        stream.write(row, quiet_data(rest[0]), t)
                    elif kind == "pre":
                        stream.pre(t)
                    else:
                        getattr(stream, kind)(row, t)
                results.append(module.execute(bank, stream))
            elif step == "settle":
                results.append(module.bank(bank).settle(t))
            else:
                results.append(module.bank(bank).row_bits(args[0]).tobytes())
        banks = [differential.observe(b, 0) for b in module.banks]
    events = [(e.kind, e.t, tuple(sorted(e.fields.items())))
              for e in recorder.events()]
    return events, results, banks


class TestQuietRunsObserved:
    @settings(max_examples=100, deadline=None)
    @given(script=st.lists(quiet_step, min_size=1, max_size=25),
           profile=st.sampled_from(QUIET_PROFILES),
           pattern=st.sampled_from(["rowstripe", "random"]))
    def test_engines_agree(self, script, profile, pattern):
        reference = replay_observed("reference", script, profile, pattern)
        candidate = replay_observed("columnar", script, profile, pattern)
        assert candidate[:2] == reference[:2]
        for ref, cand in zip(reference[2], candidate[2]):
            assert differential.diff_observations(ref, cand) == []


class TestGuards:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_two_banks_trace_in_command_order(self, engine):
        # Scalar activations queued on two banks of one module leave in
        # command order, not bank by bank at each bank's commit.
        recorder = TraceRecorder(capacity=1 << 8)
        with telem.observing(trace=recorder):
            module = MODULES[engine](geometry=GEO, timing=DDR3_1333,
                                     profile=PROFILE, seed=7)
            module.activate(0, 5)
            module.activate(1, 7)
            module.activate(0, 9)
            module.total_flips()
        assert [(e.kind, e.fields["bank"], e.fields["row"])
                for e in recorder.events()] == [
            ("activate", 0, 5), ("activate", 1, 7), ("activate", 0, 9)]

    def test_trace_event_order(self):
        logs = {engine: traced_hammer(engine) for engine in ENGINES}
        assert logs["columnar"] == logs["reference"]
        assert any(kind == "bit_flip" for kind, _t, _row in logs["reference"])

    def test_trace_does_not_depend_on_commit_points(self):
        # A commit after every aggressor activation emits the events one
        # commit at the end does.
        one = traced_hammer("columnar")
        many = traced_hammer("columnar",
                             probe=lambda m: m.bank(0).pressure(VICTIM))
        assert many == one
        assert any(kind == "bit_flip" for kind, _t, _row in one)

    def test_trace_event_order_with_deferred_refreshes(self):
        # Far refreshes run inside the pending run; their events, and
        # bank 1's, still follow the activations issued before them.
        logs = {engine: bank_events(engine, far_refreshes) for engine in ENGINES}
        assert logs["columnar"] == logs["reference"]
        assert {event[0] for event in logs["reference"]} == {
            "activate", "refresh", "bit_flip"}
        assert {event[2] for event in logs["reference"]
                if event[0] == "refresh"} == {0, 1}

    def test_deferred_refresh_trace_does_not_depend_on_commit_points(self):
        def refresh_and_commit(module):
            far_refreshes(module)
            module.bank(0).pressure(VICTIM)

        assert (bank_events("columnar", refresh_and_commit)
                == bank_events("columnar", far_refreshes))

    @pytest.mark.parametrize("batch", ["refresh_rows", "refresh_all"])
    def test_batched_refresh_traces_each_row_then_its_flips(self, batch):
        def refresh_events(engine):
            telem.enable_tracing(capacity=1 << 16, fresh=True)
            module = hammered(engine)
            bank = module.bank(0)
            if batch == "refresh_rows":
                bank.refresh_rows([VICTIM - 3, VICTIM - 2, VICTIM + 1], 1e6)
            else:
                bank.refresh_all(1e6)
            events = [(e.kind, e.fields.get("row"))
                      for e in telem.get_tracer().events()
                      if e.kind in ("refresh", "bit_flip")]
            first = next(i for i, e in enumerate(events) if e[0] == "refresh")
            return events[first:]

        logs = {engine: refresh_events(engine) for engine in ENGINES}
        assert logs["columnar"] == logs["reference"]
        refreshed = None
        flips = 0
        for kind, row in logs["reference"]:
            if kind == "refresh":
                refreshed = row
            else:
                assert row == refreshed
                flips += 1
        assert flips > 0

    @pytest.mark.parametrize("level", ["cheap", "full"])
    def test_sanitizer_digests(self, level):
        sanit.set_level(level)

        def digests(module):
            module.total_flips()  # the commit checks and notes the run
            return dict(module.bank(0).__dict__.get("_sanit_digest") or {})

        assert bool(agree(digests)) == (level == "full")

    def test_physics_heat_map_and_provenance(self):
        snapshots = {}
        for engine in ENGINES:
            phys.enable_physics(fresh=True)
            module = hammered(engine)
            module.total_flips()
            collector = phys.get_collector()
            snapshots[engine] = (collector.heat_rows(),
                                 collector.provenance_rows())
        assert snapshots["columnar"] == snapshots["reference"]
        assert snapshots["reference"][1], "provenance must record the flips"


# ----------------------------------------------------------------------
# The per-period replay against the per-activation loop
# ----------------------------------------------------------------------
REPLAY_GEO = DramGeometry(banks=1, rows=32, row_bytes=32)
EDGE_ROWS = [0, 1, REPLAY_GEO.rows - 2, REPLAY_GEO.rows - 1]


def replayed(run, state, d2, periodic):
    """A fresh columnar bank (a profile whose windows flip from a
    pressure of 3) set to ``state`` (``(row, pressure, peak,
    aggressor)`` entries) after one run of ``run`` committed, through
    the per-period replay or the loop.  Returns what the run changed:
    the windows that reached the materializer at or above the flip
    floor, the flipped windows, the columns, the touch order, the
    instantiated rows and the flip log."""
    profile = VulnerabilityProfile(
        weak_cell_density=0.2, hc_first_median=12.0, hc_first_min=3.0,
        distance2_weight=d2)
    bank = DramModule(geometry=REPLAY_GEO, timing=DDR3_1333, profile=profile,
                      default_pattern="rowstripe", seed=3).bank(0)
    cs = bank._cs
    for row, pressure, peak, agg in state:
        cs.pressure[row], cs.peak[row], cs.last_agg[row] = pressure, peak, agg
        cs.touch(row)
    windows = []
    materialize = bank._materialize_batch

    def spy(vrows, peaks, aggs, times, cause):
        live = peaks >= bank._flip_floor()
        windows.extend(zip(vrows[live].tolist(), peaks[live].tolist(),
                           aggs[live].tolist(), times[live].tolist()))
        bank._materialize_batch = materialize  # its own recursion
        try:
            return materialize(vrows, peaks, aggs, times, cause)
        finally:
            bank._materialize_batch = spy

    bank._materialize_batch = spy
    times = [0.5 + 1.25 * i for i in range(len(run))]
    limits = ({"_PERIODIC_MIN_RUN": 1, "_PERIODIC_MIN_PERIODS": 2,
               "_PERIOD_MAX": len(run)} if periodic else {"_PERIOD_MAX": 0})
    with pytest.MonkeyPatch.context() as mp:
        for name, value in limits.items():
            mp.setattr(columnar, name, value)
        assert bool(columnar._run_period(run)) == periodic
        closers, counts = bank._apply_acts(run, times, 1)
    flipped = [(int(c), int(n)) for c, n in zip(closers, counts) if n]
    return (windows, flipped, cs.pressure.tolist(), cs.peak.tolist(),
            cs.last_agg.tolist(), cs.touch_order,
            np.flatnonzero(cs.instantiated).tolist(), bank._stats.flip_log)


row_strategy = st.one_of(st.sampled_from(EDGE_ROWS),
                         st.integers(0, REPLAY_GEO.rows - 1))


@st.composite
def periodic_runs(draw):
    """A run of whole periods of a 1-8 row pattern (edge rows and rows
    repeated within the period included) plus a partial one."""
    pattern = draw(st.lists(row_strategy, min_size=1, max_size=8))
    periods = draw(st.integers(2, 30))
    partial = draw(st.integers(0, len(pattern) - 1))
    return [pattern[i % len(pattern)]
            for i in range(periods * len(pattern) + partial)]


class TestPeriodicReplay:
    @settings(max_examples=250, deadline=None)
    @given(
        run=periodic_runs(),
        state=st.lists(st.tuples(row_strategy,
                                 st.floats(0.0, 120.0), st.floats(0.0, 120.0),
                                 st.integers(-1, REPLAY_GEO.rows - 1)),
                       max_size=10),
        d2=st.sampled_from([0.0, 0.015, 0.3]),
    )
    def test_matches_the_loop(self, run, state, d2):
        loop = replayed(run, state, d2, periodic=False)
        per_period = replayed(run, state, d2, periodic=True)
        # Lists compare floats with ==: equal means bit-identical here
        # (no NaN, no -0.0).
        assert per_period == loop

    @pytest.mark.parametrize("d2", [0.0, 0.015])
    def test_live_windows_repeat(self, d2):
        # Rows 11 and 13 repeat within the period and row 12 between
        # them is sensed once per period: it collects ten bumps, a live
        # window each period, which the replay repeats over the tail
        # (the first flips; the rest find those cells flipped).
        run = ([11, 13] * 5 + [12]) * 20 + [11, 13, 11]
        loop = replayed(run, [], d2, periodic=False)
        assert [w[0] for w in loop[0]] == [12] * 20 and loop[1]
        assert replayed(run, [], d2, periodic=True) == loop
