"""Controller-level differential oracle: the per-command paths the
controller-path experiments take must behave identically on both DRAM
engines.

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
"""

import numpy as np
import pytest

from repro.controller import MemoryController
from repro.core.system import MITIGATIONS
from repro.cpu import CpuMemorySystem, SetAssociativeCache
from repro.dram import DramGeometry, DramModule, VulnerabilityProfile
from repro.dram.differential import ReferenceModule
from repro.dram.timing import DDR3_1333
from repro.softmc.interpreter import SoftMcInterpreter
from repro.softmc.program import hammer_program
from repro.telemetry import PhysicsCollector
from repro.telemetry import runtime as telem
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


def make_module(engine, serial="oracle"):
    return MODULES[engine](geometry=GEO, timing=DDR3_1333, profile=PROFILE,
                           serial=serial, seed=11)


def make_controller(engine, mitigation, kwargs, multiplier, raidr):
    module = make_module(engine)
    bins = None
    if raidr:
        bins = np.zeros(GEO.rows, dtype=np.int64)
        bins[VICTIM - 5:VICTIM + 6] = 2
    hook = MITIGATIONS[mitigation](**kwargs)
    return MemoryController(module, mitigation=hook,
                            refresh_multiplier=multiplier,
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


def run_mixed_trace(engine, config):
    ctrl = make_controller(engine, *config[1:])
    benign = random_access(1_500, banks=GEO.banks, rows=64, seed=3)
    trace = mixed_with_attacker(benign, 0, [VICTIM - 1, VICTIM + 1],
                                attacker_share=0.6, seed=3)
    ctrl.run_trace(trace)
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
