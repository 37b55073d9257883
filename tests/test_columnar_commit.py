"""Deferred activation runs in the columnar engine: commit points and
guards.

Scalar ``activate`` calls only queue ``(row, time)`` on the bank's
pending run.  Every call that can observe or change what the run
touches must commit it first, so each observation below is taken with
the run still pending (no ``finish()``, no settle) and must equal the
reference engine's, which applied every command as it arrived.
Observers do not change when a run commits: under tracing and the
sanitizer the run is still pending at the same point, and after a
commit the trace's ``activate``/``bit_flip`` sequence, the shadow
digests and the physics provenance all match the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import DramGeometry, DramModule, VulnerabilityProfile, columnar
from repro.dram.columnar import _RUN_LIMIT
from repro.dram.differential import ReferenceModule
from repro.dram.stream import CommandStream
from repro.dram.timing import DDR3_1333
from repro.sanitizer import runtime as sanit
from repro.telemetry import physics as phys
from repro.telemetry import runtime as telem

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
    holds no run, so its events trail bank 0's held ones)."""
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


class TestGuards:
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
