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

from repro.dram import DramGeometry, DramModule, VulnerabilityProfile
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


def hammered(engine, pattern="rowstripe", probe=None):
    """A module whose bank 0 holds a deferred double-sided hammer that
    ends by sensing the victim (a flipping window) and one neighbor.
    ``probe(module)``, if given, runs after each aggressor activation."""
    module = MODULES[engine](geometry=GEO, timing=DDR3_1333, profile=PROFILE,
                             default_pattern=pattern, seed=7)
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


def traced_hammer(engine, probe=None):
    """The ``activate``/``bit_flip`` events of a hammer, after a commit."""
    telem.enable_tracing(capacity=1 << 16, fresh=True)
    module = hammered(engine, probe=probe)
    if engine == "columnar" and probe is None:
        assert pending(module) == 2 * PAIRS + 2  # tracing defers too
    module.total_flips()  # a commit point emits the run's events
    return [(e.kind, e.t, e.fields.get("row"))
            for e in telem.get_tracer().events()
            if e.kind in ("activate", "bit_flip")]


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
