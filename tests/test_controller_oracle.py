"""Controller-level differential oracle: the paths the controller-path
experiments take must behave identically on both DRAM engines, and the
segmented hammer-pattern path must equal a loop of per-command
``activate`` calls.

The columnar engine defers scalar activations into pending runs and
commits each run at once, while the reference engine applies every
command as it arrives.  The same seeded activation pattern and
attacker-mixed trace run under each mitigation, a RAIDR-binned
controller, the CPU's CLFLUSH hammer loop and a SoftMC hammer program;
flip logs (full provenance, floats exact), controller time,
mitigation refresh counts and perf-counter samples must all agree, and
so must the physics layer's heat map, flip provenance and mitigation
audit trail.  The columnar side is the production :class:`DramModule`;
the reference side is the oracle's :class:`ReferenceModule`.

``run_activation_pattern`` issues each stretch between refresh
deadlines, perf-window closes and mitigation actions as one bank run.
Its oracle is :func:`activate_loop`, the same pattern one
``ctrl.activate`` at a time: on both engines, for every config and the
corner cases in :data:`SEGMENT_CASES`, the two must agree on
everything :func:`full_state` collects, and on what the metrics,
physics and trace observers record.

Observers never move the columnar engine's path: with any one of them
on, the pending runs, the rows held explicitly or as pattern XOR
flips, the flip logs and the controller statistics equal an
unobserved run's.

The CPU hammer loops (``naive_hammer``, ``flush_hammer``,
``eviction_hammer``) run in blocks once the cache state repeats.  Their
oracle is :func:`per_load`, the same loops one ``cpu.load`` /
``cpu.clflush`` at a time: on both engines, for every case in
:data:`CPU_CASES`, the two must agree on everything :func:`cpu_state`
collects, and observers must see the same in both.
"""

import contextlib
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest

from repro.controller import MemoryController
from repro.core.system import MITIGATIONS
from repro.cpu import (
    CpuMemorySystem,
    HammerRunStats,
    SetAssociativeCache,
    build_eviction_set,
)
from repro.cpu import system as cpu_system
from repro.dram import DramGeometry, DramModule, VulnerabilityProfile
from repro.dram.differential import ReferenceModule
from repro.dram.timing import DDR3_1333
from repro.softmc.interpreter import SoftMcInterpreter
from repro.softmc.program import hammer_program
from repro.telemetry import (
    MetricsRegistry,
    PhysicsCollector,
    SpanProfiler,
    TraceRecorder,
)
from repro.telemetry import runtime as telem
from repro.utils.rng import derive_rng
from repro.workloads.generators import mixed_with_attacker, random_access

GEO = DramGeometry(banks=2, rows=512, row_bytes=256)
PROFILE = VulnerabilityProfile(
    weak_cell_density=0.05, hc_first_median=3_000, hc_first_min=800,
    distance2_weight=0.015)
MODULES = {"reference": ReferenceModule, "columnar": DramModule}
ENGINES = tuple(MODULES)
VICTIM = 300
ITERATIONS = 2_500
THRESHOLD = 200

#: (label, mitigation, kwargs, refresh multiplier, RAIDR-binned)
CONFIGS = [
    ("none", "none", {}, 1.0, False),
    ("refresh x8", "none", {}, 8.0, False),
    ("para", "para", {"p": 0.02, "seed": 5}, 1.0, False),
    ("cra", "cra", {"threshold": THRESHOLD,
                    "window_ns": DDR3_1333.tREFW}, 1.0, False),
    ("anvil", "anvil", {"sample_interval_ns": DDR3_1333.tREFW / 256,
                        "rate_threshold": THRESHOLD // 2}, 1.0, False),
    ("trr", "trr", {"tracker_entries": 4, "refresh_period_acts": 512},
     1.0, False),
    ("raidr", "none", {}, 1.0, True),
]


def make_module(engine, serial="oracle", remap_scheme="identity"):
    return MODULES[engine](geometry=GEO, timing=DDR3_1333, profile=PROFILE,
                           serial=serial, seed=11, remap_scheme=remap_scheme)


def make_controller(engine, mitigation, kwargs, multiplier, raidr,
                    remap_scheme="identity", spd_adjacency=True):
    module = make_module(engine, remap_scheme=remap_scheme)
    bins = None
    if raidr:
        bins = np.zeros(GEO.rows, dtype=np.int64)
        bins[VICTIM - 5:VICTIM + 6] = 2
    hook = MITIGATIONS[mitigation](**kwargs)
    return MemoryController(module, mitigation=hook,
                            refresh_multiplier=multiplier,
                            spd_adjacency=spd_adjacency,
                            perf_window_ns=20_000.0, refresh_row_bins=bins)


def flip_logs(module):
    return [list(bank.stats.flip_log) for bank in module.banks]


def controller_outcome(ctrl, finished):
    return {
        "finished": finished,
        "flip_logs": flip_logs(ctrl.module),
        "total_flips": ctrl.module.total_flips(),
        "time_ns": ctrl.time_ns,
        "extra_refresh_ops": ctrl.mitigation.extra_refresh_ops(),
        "perf_samples": list(ctrl.perf.samples),
        "stats": ctrl.stats,
        "refresh": ctrl.refresh_engine.stats,
    }


def run_pattern(engine, config):
    ctrl = make_controller(engine, *config[1:])
    ctrl.run_activation_pattern(0, [VICTIM - 1, VICTIM + 1], ITERATIONS)
    return controller_outcome(ctrl, ctrl.finish())


def mixed_trace():
    benign = random_access(1_500, banks=GEO.banks, rows=64, seed=3)
    return mixed_with_attacker(benign, 0, [VICTIM - 1, VICTIM + 1],
                               attacker_share=0.6, seed=3)


def run_mixed_trace(engine, config):
    ctrl = make_controller(engine, *config[1:])
    ctrl.run_trace(mixed_trace())
    return controller_outcome(ctrl, ctrl.finish())


@pytest.mark.parametrize("config", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_activation_pattern_agrees(config):
    reference, columnar = (run_pattern(engine, config) for engine in ENGINES)
    assert reference == columnar
    if config[0] == "none":
        assert reference["total_flips"] > 0, "the unmitigated run must flip"


@pytest.mark.parametrize("config", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_mixed_trace_agrees(config):
    reference, columnar = (run_mixed_trace(engine, config)
                           for engine in ENGINES)
    assert reference == columnar
    assert reference["perf_samples"], "the trace must close perf windows"


@pytest.mark.parametrize("config", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_physics_audit_agrees(config):
    observed = {}
    for engine in ENGINES:
        collector = PhysicsCollector()
        with telem.observing(physics=collector):
            run_pattern(engine, config)
        observed[engine] = {
            "audit_counts": collector.audit_counts(),
            "audit_events": collector.audit_events(),
            "heat_rows": collector.heat_rows(),
            "provenance_rows": collector.provenance_rows(),
        }
    assert observed["reference"] == observed["columnar"]
    assert observed["reference"]["heat_rows"], "physics must see the hammer"
    if config[1] != "none":
        assert observed["reference"]["audit_counts"], "mitigations must audit"


def test_mitigated_runs_refresh():
    # The comparison above is only meaningful if mitigations act.
    for config in CONFIGS[2:6]:
        assert run_pattern("columnar", config)["extra_refresh_ops"] > 0, config[0]


def test_flush_hammer_agrees():
    outcomes = []
    for engine in ENGINES:
        module = make_module(engine, serial="cpu")
        cpu = CpuMemorySystem(module,
                              cache=SetAssociativeCache(size_bytes=1 << 16,
                                                        ways=8))
        run = cpu.flush_hammer(0, [VICTIM - 1, VICTIM + 1], ITERATIONS)
        outcomes.append((run, cpu.time_ns, flip_logs(module)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0].flips > 0


def test_softmc_hammer_program_agrees():
    program = hammer_program(0, [VICTIM - 1, VICTIM + 1], ITERATIONS,
                             victims_to_init=[VICTIM], pattern="rowstripe")
    outcomes = []
    for engine in ENGINES:
        module = make_module(engine, serial="softmc")
        result = SoftMcInterpreter(module).run(program)
        outcomes.append((result.cycles_ns, result.mismatches,
                         result.commands,
                         [(loc, bits.tobytes()) for loc, bits in result.reads],
                         flip_logs(module)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1], "the program must read back flipped victims"


# ----------------------------------------------------------------------
# Segmented hammer patterns against the per-command loop
# ----------------------------------------------------------------------
PAIR = [VICTIM - 1, VICTIM + 1]
#: Four double-sided pairs: more aggressors than a 2-entry TRR tracks.
EIGHT = [r for v in (120, 160, 200, 240) for r in (v - 1, v + 1)]
CONFIG = {c[0]: c for c in CONFIGS}


def activate_loop(ctrl, bank, rows, iterations):
    """The per-command form of ``ctrl.run_activation_pattern``."""
    for _ in range(iterations):
        for row in rows:
            ctrl.activate(bank, row)


def pattern(rows, *chunks):
    """A script issuing ``rows`` as pattern calls of ``chunks`` iterations."""
    def drive(ctrl, run):
        for iterations in chunks:
            run(ctrl, 0, rows, iterations)
    return drive


def para_interleaved(ctrl, run):
    """PARA pattern calls with scalar commands and a trace between them."""
    trace = mixed_with_attacker(random_access(40, banks=GEO.banks, rows=64,
                                              seed=4),
                                0, PAIR, attacker_share=0.5, seed=4)
    for iterations in (300, 1, 450):
        run(ctrl, 0, PAIR, iterations)
        ctrl.activate(1, 17)
        ctrl.activate(0, VICTIM - 1)
        ctrl.run_trace(trace)


def mitigation_state(hook):
    """Every counter and piece of tracking state a hook keeps, with dict
    insertion order (which sets eviction and ``most_common`` ties)."""
    state = {"extra_refresh_ops": hook.extra_refresh_ops()}
    for key, value in vars(hook).items():
        if key in ("_rng", "_draws", "_next"):
            continue
        if isinstance(value, dict):
            value = [(k, list(v.items()) if isinstance(v, dict) else v)
                     for k, v in value.items()]
        state[key] = value
    if hasattr(hook, "_uniforms"):
        # PARA's upcoming coins stand in for its generator state.
        state["next_draws"] = hook._uniforms(8).tolist()
    return state


def full_state(ctrl):
    """Everything the segmented and per-command paths must agree on,
    read before ``finish`` (which closes perf windows and settles)."""
    return {
        "time_ns": ctrl.time_ns,
        "stats": ctrl.stats,
        "energy": dict(ctrl.energy.counts),
        "perf_samples": list(ctrl.perf.samples),
        "perf_window_start": ctrl.perf.window_start,
        "perf_counts": list(ctrl.perf.current_counts().items()),
        "refresh": ctrl.refresh_engine.stats,
        "next_ref_ns": ctrl.refresh_engine.next_ref_ns,
        "mitigation": mitigation_state(ctrl.mitigation),
        "bank_stats": [(b.stats.activations, b.stats.refreshes,
                        b.stats.flips_materialized, b.open_row)
                       for b in ctrl.module.banks],
        "flip_logs": flip_logs(ctrl.module),
    }


#: (id, config, controller options, script)
SEGMENT_CASES = [
    *[(c[0], c, {}, pattern(PAIR, ITERATIONS)) for c in CONFIGS],
    *[(f"{c[0]}-chunked", c, {}, pattern(PAIR, 1, 7, 512, ITERATIONS - 520))
      for c in CONFIGS],
    ("trr-many-sided",
     ("trr", "trr", {"tracker_entries": 2, "refresh_period_acts": 512},
      1.0, False), {}, pattern(EIGHT, 700)),
    ("cra-table2",
     ("cra", "cra", {"threshold": THRESHOLD, "window_ns": DDR3_1333.tREFW,
                     "table_entries": 2}, 1.0, False),
     {}, pattern([VICTIM - 1, VICTIM + 1, VICTIM + 3], 1500)),
    ("cra-short-window",
     ("cra", "cra", {"threshold": THRESHOLD // 2, "window_ns": 30_000.0},
      1.0, False), {}, pattern(PAIR, ITERATIONS)),
    ("anvil-top1",
     ("anvil", "anvil", {"sample_interval_ns": DDR3_1333.tREFW / 256,
                         "rate_threshold": THRESHOLD // 2, "top_k": 1},
      1.0, False), {}, pattern([VICTIM - 1, VICTIM + 1, VICTIM + 3], 4000)),
    ("cra-naive-adjacency", CONFIG["cra"], {"spd_adjacency": False},
     pattern(PAIR, ITERATIONS)),
    ("para-xor-msb", CONFIG["para"], {"remap_scheme": "xor-msb"},
     pattern(PAIR, ITERATIONS)),
    ("trr-block-swap", CONFIG["trr"], {"remap_scheme": "block-swap"},
     pattern(PAIR, ITERATIONS)),
    ("anvil-block-swap-naive", CONFIG["anvil"],
     {"remap_scheme": "block-swap", "spd_adjacency": False},
     pattern(PAIR, ITERATIONS)),
    ("para-interleaved", CONFIG["para"], {}, para_interleaved),
    ("iterations-0", CONFIG["para"], {}, pattern(PAIR, 0, 3, 0)),
]


def drive_both(engine, case):
    """Run ``case`` segmented and per-command; return both controllers."""
    _label, config, options, drive = case
    ctrls = []
    for run in (MemoryController.run_activation_pattern, activate_loop):
        ctrl = make_controller(engine, *config[1:], **options)
        drive(ctrl, run)
        ctrls.append(ctrl)
    return ctrls


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", SEGMENT_CASES, ids=[c[0] for c in SEGMENT_CASES])
def test_segmented_pattern_equals_activate_loop(case, engine):
    segmented, per_command = drive_both(engine, case)
    assert full_state(segmented) == full_state(per_command)
    finished = segmented.finish(), per_command.finish()
    assert finished[0] == finished[1]
    assert full_state(segmented) == full_state(per_command)


def test_segment_cases_exercise_their_corners():
    # Each corner case only proves something if its corner is reached.
    cases = {c[0]: c for c in SEGMENT_CASES}
    ctrl = drive_both("columnar", cases["trr-many-sided"])[0]
    assert ctrl.mitigation.evictions > 0
    assert ctrl.mitigation.targeted_refreshes > 0
    ctrl = drive_both("columnar", cases["cra-table2"])[0]
    assert ctrl.mitigation.evictions > 0
    ctrl = drive_both("columnar", cases["cra-short-window"])[0]
    assert ctrl.mitigation._window_start > 0
    assert ctrl.mitigation.detections > 0
    ctrl = drive_both("columnar", cases["anvil-top1"])[0]
    assert ctrl.mitigation.detections > 0
    ctrl = drive_both("columnar", cases["none-chunked"])[0]
    assert ctrl.refresh_engine.stats.ref_commands > 0
    assert len(ctrl.perf.samples) > 1
    ctrl = drive_both("columnar", cases["para-interleaved"])[0]
    assert ctrl.mitigation.triggers > 0


def test_para_block_draws_are_the_scalar_sequence():
    hook = MITIGATIONS["para"](p=0.5, seed=9)
    ctrl = make_controller("columnar", "none", {}, 1.0, False)
    used = []
    for n in (1, 3, 1500, 2, 700):
        draws = hook._uniforms(n).tolist()
        quiet = hook.scan(ctrl, 0, [VICTIM] * n, [0.0] * n)
        used += draws[:quiet]
        if quiet < n:
            used.append(draws[quiet])
            hook._next += 1
    scalar = derive_rng(9, "para")
    assert used == [scalar.random() for _ in used]


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_patterns_change_nothing(engine):
    ctrl, fresh = (make_controller(engine, *CONFIG["para"][1:])
                   for _ in range(2))
    ctrl.run_activation_pattern(0, PAIR, 0)
    ctrl.run_activation_pattern(0, [], 50)
    ctrl.run_activation_pattern(0, PAIR, -3)
    assert full_state(ctrl) == full_state(fresh)


@pytest.mark.parametrize("engine", ENGINES)
def test_out_of_range_pattern_raises_before_any_state_change(engine):
    ctrl = make_controller(engine, *CONFIG["trr"][1:])
    ctrl.run_activation_pattern(0, PAIR, 300)
    before = full_state(ctrl)
    with pytest.raises(IndexError, match="out of range"):
        ctrl.run_activation_pattern(0, [VICTIM - 1, GEO.rows], 10)
    with pytest.raises(IndexError, match="out of range"):
        ctrl.run_activation_pattern(0, [-1], 10)
    with pytest.raises(IndexError, match="bank"):
        ctrl.run_activation_pattern(GEO.banks, PAIR, 10)
    assert full_state(ctrl) == before


def observe(engine, case, run, sink):
    """Run ``case`` with ``run`` as the pattern runner under one observer
    sink; return what the sink recorded."""
    _label, config, options, drive = case
    ctrl = make_controller(engine, *config[1:], **options)
    if sink == "metrics":
        registry = MetricsRegistry()
        with telem.observing(metrics=registry):
            drive(ctrl, run)
            ctrl.finish()
        return registry.snapshot()
    if sink == "physics":
        collector = PhysicsCollector()
        with telem.observing(physics=collector):
            drive(ctrl, run)
            ctrl.finish()
        return (collector.audit_counts(), collector.audit_events(),
                collector.heat_rows(), collector.provenance_rows())
    recorder = TraceRecorder(capacity=1 << 17)
    with telem.observing(trace=recorder):
        drive(ctrl, run)
        ctrl.finish()
    assert len(recorder.events()) < 1 << 17, "the trace must not spill"
    return [(e.kind, e.t, sorted(e.fields.items())) for e in recorder.events()]


#: The seven configs' plain patterns, plus evictions and scalar interleaving.
OBSERVED_CASES = SEGMENT_CASES[:len(CONFIGS)] + [
    c for c in SEGMENT_CASES if c[0] in ("trr-many-sided", "para-interleaved")]


@pytest.mark.parametrize("sink", ["metrics", "physics", "trace"])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", OBSERVED_CASES, ids=[c[0] for c in OBSERVED_CASES])
def test_observers_see_segmented_as_per_command(case, engine, sink):
    segmented = observe(engine, case, MemoryController.run_activation_pattern,
                        sink)
    per_command = observe(engine, case, activate_loop, sink)
    assert segmented == per_command
    if sink == "trace" and case[0] == "none":
        kinds = {kind for kind, _t, _fields in segmented}
        assert {"activate", "refresh", "bit_flip"} <= kinds


# ----------------------------------------------------------------------
# Observers never move the columnar engine's path
# ----------------------------------------------------------------------
SINKS = {
    "metrics": MetricsRegistry,
    "spans": SpanProfiler,
    "trace": lambda: TraceRecorder(capacity=1 << 17),
    "physics": PhysicsCollector,
}
SANITIZER_LEVELS = ["sanitize-cheap", "sanitize-full"]
OBSERVERS = [*SINKS, *SANITIZER_LEVELS]
DRIVERS = {
    "run_activation_pattern":
        lambda ctrl: ctrl.run_activation_pattern(0, PAIR, ITERATIONS),
    "run_trace": lambda ctrl: ctrl.run_trace(mixed_trace()),
}


@contextlib.contextmanager
def alone(observer):
    """Run a block with ``observer`` the only observer on (``None``:
    none, whatever ``REPRO_SANITIZE`` says)."""
    level = observer.split("-")[1] if observer in SANITIZER_LEVELS else "off"
    with telem.observing(sanitize=level,
                         **{name: make() for name, make in SINKS.items()}):
        telem.disable_all()
        with telem.observing(**({observer: SINKS[observer]()}
                                if observer in SINKS else {})):
            yield


def engine_path(ctrl):
    """Where the columnar engine's path stands before ``finish``: each
    bank's pending-run length and the rows it holds explicitly
    (``store``) or as pattern XOR flips, read first since reading
    ``stats`` commits; then the flip logs and controller statistics."""
    banks = ctrl.module.banks
    return {
        "pending": [len(bank._run) for bank in banks],
        "store": [sorted(bank._cs.store) for bank in banks],
        "flips": [sorted(bank._cs.flips) for bank in banks],
        "flip_logs": flip_logs(ctrl.module),
        "stats": ctrl.stats,
    }


@pytest.mark.parametrize("observer", OBSERVERS)
@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("config", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_observers_leave_the_engine_path_alone(config, driver, observer):
    paths = []
    for watching in (None, observer):
        ctrl = make_controller("columnar", *config[1:])
        with alone(watching):
            DRIVERS[driver](ctrl)
            paths.append(engine_path(ctrl))
    assert paths[1] == paths[0]
    if driver == "run_activation_pattern":
        assert any(paths[0]["pending"]), "the pattern must end mid-run"


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("config", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_traces_agree_across_engines(config, driver):
    # The columnar bank traces a pending run when it commits it, in
    # command order, so the whole controller trace is the reference's.
    # Only a batched refresh's bit_flip events may sit elsewhere (after
    # all of that refresh's events); those agree as a multiset.
    traces = {}
    for engine in ENGINES:
        recorder = TraceRecorder(capacity=1 << 17)
        ctrl = make_controller(engine, *config[1:])
        with telem.observing(trace=recorder):
            DRIVERS[driver](ctrl)
            ctrl.finish()
        assert len(recorder) < 1 << 17, "the trace must not spill"
        ordered, late = [], Counter()
        for e in recorder.events():
            event = (e.kind, e.t, tuple(sorted(e.fields.items())))
            if e.kind == "bit_flip" and e.fields["cause"] != "activate":
                late[event] += 1
            else:
                ordered.append(event)
        traces[engine] = (ordered, late)
    assert traces["columnar"] == traces["reference"]
    kinds = {kind for kind, _t, _fields in traces["reference"][0]}
    assert {"activate", "refresh"} <= kinds


# ----------------------------------------------------------------------
# Bulk CPU hammer loops against the per-load loop
# ----------------------------------------------------------------------
CPU_LOOPS = ("naive", "flush", "eviction")
#: Enough rounds for the flush and eviction loops to flip.
CPU_ROUNDS = 1_200
#: 16 sets: both aggressors of PAIR fall in one set.
SMALL_CACHE = {"size_bytes": 4096, "line_bytes": 64, "ways": 4}
#: 128 sets: the aggressors of PAIR fall in different sets.
WIDE_CACHE = {"size_bytes": 1 << 15, "line_bytes": 64, "ways": 4}
ONE_WAY = {"size_bytes": 1024, "line_bytes": 64, "ways": 1}
#: 4 sets: congruent lines lie one 256-byte row apart, so eviction
#: walks alternate between the two banks.
FOUR_SETS = {"size_bytes": 1024, "line_bytes": 64, "ways": 4}


def per_load(cpu, loop, bank, rows, iterations, time_budget_ns=None):
    """The per-load form of ``cpu.<loop>_hammer``: the loop body issued
    through ``cpu.load``/``cpu.clflush`` one round at a time, the budget
    checked after each round, then a settle."""
    addresses = [cpu.row_address(bank, row) for row in rows]
    if loop == "eviction":
        region_base = cpu.row_address(bank, max(rows) + 64)
        region_bytes = min(128 * cpu.module.geometry.row_bytes,
                           cpu.mapping.capacity_bytes - region_base)
        walks = [build_eviction_set(cpu.cache, address, region_base,
                                    region_bytes) for address in addresses]
    cache, module = cpu.cache, cpu.module
    loads, start = cache.hits + cache.misses, cpu.time_ns
    acts, flips = cpu.dram_accesses, module.total_flips()
    targets = 0
    for _ in range(iterations):
        for i, address in enumerate(addresses):
            targets += cpu.load(address)
            if loop == "eviction":
                for evict in walks[i]:
                    cpu.load(evict)
        if loop == "flush":
            for address in addresses:
                cpu.clflush(address)
        if time_budget_ns is not None and cpu.time_ns - start >= time_budget_ns:
            break
    module.settle(cpu.time_ns)
    return HammerRunStats(
        loads=cache.hits + cache.misses - loads,
        dram_activations=cpu.dram_accesses - acts,
        target_activations=targets,
        flips=module.total_flips() - flips,
        elapsed_ns=cpu.time_ns - start)


def bulk(cpu, loop, bank, rows, iterations, time_budget_ns=None):
    """The production loop ``cpu.<loop>_hammer``."""
    return getattr(cpu, f"{loop}_hammer")(bank, rows, iterations,
                                          time_budget_ns=time_budget_ns)


def pollute(cpu):
    """Fill every set with lines the loops never touch, out of LRU order."""
    for address in (*range(0, 1 << 16, 64), *range(1 << 15, 0, -192)):
        cpu.cache.access(address)


def until(window, chunk):
    """Chunked calls on a warm cache, each granted what is left of
    ``window``, until the clock passes it (the benchmark's CPU items)."""
    def drive(cpu, run, loop):
        out = []
        while cpu.time_ns < window:
            out.append(run(cpu, loop, 0, PAIR, chunk,
                           time_budget_ns=window - cpu.time_ns))
        return out
    return drive


def calls(*plan):
    """Calls of ``(iterations, time budget)`` on the aggressors of PAIR."""
    def drive(cpu, run, loop):
        return [run(cpu, loop, 0, PAIR, iterations, time_budget_ns=budget)
                for iterations, budget in plan]
    return drive


@dataclass(frozen=True)
class CpuCase:
    label: str
    drive: Callable
    cache: dict = None
    remap_scheme: str = "identity"
    polluted: bool = False
    block_steps: Optional[int] = None


CPU_CASES = [
    *[CpuCase(f"iterations-{n}", calls((n, None))) for n in (0, 1, 2, 3)],
    CpuCase("long", calls((CPU_ROUNDS, None))),
    CpuCase("long-wide", calls((CPU_ROUNDS, None)), cache=WIDE_CACHE),
    CpuCase("long-small-blocks", calls((CPU_ROUNDS, None)), block_steps=37),
    CpuCase("budget-first-round", calls((10**9, 1.0))),
    CpuCase("budget-zero", calls((10**9, 0.0))),
    CpuCase("budget-in-block", calls((10**9, 150_000.0))),
    CpuCase("budget-across-blocks", calls((10**9, 150_000.0)),
            block_steps=100),
    CpuCase("budget-on-round-ends", calls((10**9, 105.0 * 700),
                                          (10**9, 1.2 * 2 * 900),
                                          (10**9, 49.5 * 10 * 300))),
    CpuCase("chunked-warm", until(200_000.0, 32)),
    CpuCase("chunked-odd", calls((1, None), (7, None), (250, 30_000.0),
                                 (0, None), (3, 1.0), (400, None))),
    CpuCase("polluted", calls((CPU_ROUNDS, None)), polluted=True),
    CpuCase("polluted-wide", calls((300, None), (10**9, 80_000.0)),
            cache=WIDE_CACHE, polluted=True),
    CpuCase("one-way", calls((CPU_ROUNDS, None)), cache=ONE_WAY),
    CpuCase("one-way-budget", calls((10**9, 120_000.0)), cache=ONE_WAY,
            block_steps=64),
    CpuCase("four-sets", calls((CPU_ROUNDS, None)), cache=FOUR_SETS),
    CpuCase("four-sets-budget", calls((10**9, 90_000.0), (50, None)),
            cache=FOUR_SETS, block_steps=50),
    CpuCase("xor-msb", calls((CPU_ROUNDS, None)), remap_scheme="xor-msb"),
]


def make_cpu(engine, case):
    module = make_module(engine, serial="cpu", remap_scheme=case.remap_scheme)
    cpu = CpuMemorySystem(
        module, cache=SetAssociativeCache(**(case.cache or SMALL_CACHE)))
    if case.polluted:
        pollute(cpu)
    return cpu


def cpu_state(cpu):
    """Everything the bulk and per-load loops must agree on."""
    cache = cpu.cache
    return {
        "time_ns": cpu.time_ns,
        "dram_accesses": cpu.dram_accesses,
        "cache": (cache.hits, cache.misses, cache.evictions,
                  cache.lru_state(range(cache.n_sets))),
        "bank_stats": [(b.stats.activations, b.stats.refreshes,
                        b.stats.flips_materialized, b.open_row)
                       for b in cpu.module.banks],
        "flip_logs": flip_logs(cpu.module),
    }


def drive_cpu(engine, case, loop, run, state=cpu_state):
    """Run ``case`` through ``run``; return what each call returned and
    ``state`` of the system at the end."""
    cpu = make_cpu(engine, case)
    with pytest.MonkeyPatch.context() as mp:
        if case.block_steps:
            mp.setattr(cpu_system, "_BLOCK_STEPS", case.block_steps)
        runs = case.drive(cpu, run, loop)
    return runs, state(cpu)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("loop", CPU_LOOPS)
@pytest.mark.parametrize("case", CPU_CASES, ids=[c.label for c in CPU_CASES])
def test_bulk_cpu_loops_equal_per_load(case, loop, engine):
    assert drive_cpu(engine, case, loop, bulk) == \
        drive_cpu(engine, case, loop, per_load)


def test_cpu_cases_exercise_their_corners(monkeypatch):
    cases = {c.label: c for c in CPU_CASES}
    # Most rounds run in blocks: per-load rounds stop at the fixed point.
    loads = []
    monkeypatch.setattr(CpuMemorySystem, "load",
                        lambda self, address, load=CpuMemorySystem.load:
                        loads.append(address) or load(self, address))
    for loop in CPU_LOOPS:
        for label, rounds in (("long", 1), ("polluted", 2)):
            loads.clear()
            [run], _state = drive_cpu("columnar", cases[label], loop, bulk)
            steps = run.loads // CPU_ROUNDS
            assert 0 < len(loads) <= (rounds + 1) * steps, (loop, label)
    monkeypatch.undo()
    for loop in CPU_LOOPS:
        runs, _state = drive_cpu("columnar", cases["chunked-warm"], loop, bulk)
        assert len(runs) > 2
    runs, _state = drive_cpu("columnar", cases["long"], "flush", bulk)
    assert runs[0].flips > 0
    runs, _state = drive_cpu("columnar", cases["long"], "eviction", bulk)
    assert runs[0].flips > 0
    _runs, state = drive_cpu("columnar", cases["four-sets"], "eviction", bulk)
    assert all(b[0] for b in state["bank_stats"]), "evictions hit both banks"
    # Over ten blocks of 100 steps.
    runs, _state = drive_cpu("columnar", cases["budget-across-blocks"],
                             "flush", bulk)
    assert runs[0].loads > 10 * 100


#: A run of each loop as the experiments call it, with bulk blocks.
CPU_OBSERVED = CpuCase("observed", calls((10**9, 600_000.0)),
                       cache=FOUR_SETS, block_steps=500)


def per_bank(events):
    """Trace events grouped by bank, each bank's in emission order."""
    banks = {}
    for e in events:
        banks.setdefault(e.fields["bank"], []).append(
            (e.kind, e.t, sorted(e.fields.items())))
    return banks


def observe_cpu(engine, loop, run, sink):
    """Run :data:`CPU_OBSERVED` through ``run`` under one observer sink;
    return the outcome and what the sink recorded."""
    made = SINKS[sink]()
    with telem.observing(**{sink: made}):
        outcome = drive_cpu(engine, CPU_OBSERVED, loop, run)
    if sink == "metrics":
        return outcome, made.snapshot()
    if sink == "physics":
        return outcome, (made.heat_rows(), made.provenance_rows())
    assert len(made.events()) < 1 << 17, "the trace must not spill"
    return outcome, per_bank(made.events())


@pytest.mark.parametrize("sink", ["metrics", "physics", "trace"])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("loop", CPU_LOOPS)
def test_observers_see_bulk_cpu_loops_as_per_load(loop, engine, sink):
    seen = observe_cpu(engine, loop, bulk, sink)
    assert seen == observe_cpu(engine, loop, per_load, sink)
    if sink == "trace" and loop != "naive":
        assert len(seen[1]) == (2 if loop == "eviction" else 1)


def cpu_engine_path(cpu):
    """The columnar engine's path after a CPU loop (which settles): the
    rows each bank holds explicitly or as pattern XOR flips, then
    :func:`cpu_state`."""
    banks = cpu.module.banks
    return {
        "store": [sorted(bank._cs.store) for bank in banks],
        "flips": [sorted(bank._cs.flips) for bank in banks],
        **cpu_state(cpu),
    }


@pytest.mark.parametrize("observer", OBSERVERS)
@pytest.mark.parametrize("loop", CPU_LOOPS)
def test_observers_leave_the_cpu_loops_alone(loop, observer):
    paths = []
    for watching in (None, observer):
        with alone(watching):
            paths.append(drive_cpu("columnar", CPU_OBSERVED, loop, bulk,
                                   state=cpu_engine_path))
    assert paths[1] == paths[0]
    if loop != "naive":
        assert paths[0][0][0].flips > 0
