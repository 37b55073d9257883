"""Reachability guard: every simulation module must be run by some
registered experiment, or be on a documented list with its reason.

Runs every registered experiment at seed 0 in-process under
``sys.setprofile``, records which functions of the simulation packages
were called, and prints the modules in which none was (the survey
count).  Exits 1 if such a module is missing from :data:`UNREACHED`,
or if a module on the list has become reachable (so the list cannot
go stale).  Run from the repository root::

    PYTHONPATH=src python benchmarks/reachability.py
"""

import importlib
import inspect
import pkgutil
import sys
import threading
import time
from pathlib import Path

import repro
from repro.experiments import execute_job, registry

#: The packages that model the paper's hardware, attacks and defenses.
#: The framework around them (experiments, runner, service, telemetry,
#: sanitizer, chaos, CLI, utils) is out of scope.
SIMULATION_PACKAGES = (
    "analysis", "attacks", "controller", "core", "cpu", "dram", "ecc",
    "emerging", "fieldstudy", "flash", "mitigations", "os", "pcm",
    "retention", "softmc", "workloads",
)

#: Modules no registered experiment runs, each with the reason it stays.
UNREACHED = {
    "dram/differential.py":
        "the per-command reference engine; the differential and "
        "controller-oracle tests hold the production engine to it",
    "softmc/interpreter.py":
        "the SoftMC tester front end; perfbench's percmd_hammer and "
        "examples/softmc_testbench.py run it, and whether it stays is "
        "an open ROADMAP decision",
    "softmc/program.py": "the SoftMC command language (see softmc/interpreter.py)",
    "ecc/injection.py": "bench-only: uniform vs clustered flips (X4, test_bench_c4_ecc.py)",
    "ecc/interleave.py": "bench-only: bit interleaving (X7, test_bench_codesign.py)",
    "analysis/costmodel.py":
        "mitigation_comparison builds MitigationReport through its "
        "generated __init__, which the profiler does not attribute to "
        "this file; report_rows and refresh_burden_vs_density serve "
        "benches and examples",
    "analysis/figure.py": "the ASCII scatter of examples/field_study.py",
    "analysis/tables.py": "format_table, for the benches' and examples' printed tables",
    "workloads/generators.py":
        "benign and attacker traces for perfbench's mixed_trace, the "
        "examples and the controller-oracle tests",
}

ROOT = Path(repro.__file__).resolve().parent


def simulation_modules():
    """Import every simulation module first (so no module body runs
    under the profiler); return their files relative to the package."""
    files = {}
    for package in SIMULATION_PACKAGES:
        pkg = importlib.import_module(f"repro.{package}")
        for info in pkgutil.walk_packages(pkg.__path__, f"repro.{package}."):
            module = importlib.import_module(info.name)
            path = Path(module.__file__).resolve()
            if path.name != "__init__.py":
                files[path.relative_to(ROOT).as_posix()] = path
    return files


def called_files():
    """Files with at least one function called while every registered
    experiment runs at seed 0."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for name in registry.names():
            execute_job(name, seed=0)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    # Module and class bodies are not functions.
    return {
        str(Path(code.co_filename).resolve())
        for code in seen if code.co_flags & inspect.CO_OPTIMIZED
    }


def main() -> int:
    modules = simulation_modules()
    start = time.perf_counter()
    called = called_files()
    elapsed = time.perf_counter() - start
    unreached = sorted(rel for rel, path in modules.items() if str(path) not in called)
    lines = sum(len(modules[rel].read_text().splitlines()) for rel in unreached)
    print(f"{len(registry.names())} experiments at seed 0 under sys.setprofile ({elapsed:.1f} s)")
    print(f"{len(unreached)} of {len(modules)} simulation modules have no function "
          f"called ({lines} lines):")
    for rel in unreached:
        print(f"  {rel}: {UNREACHED.get(rel, 'UNDOCUMENTED')}")
    failures = [f"{rel} is reached by no experiment: register it, delete it, "
                f"or document it in UNREACHED" for rel in unreached if rel not in UNREACHED]
    failures += [f"{rel} is listed in UNREACHED but an experiment reaches it: "
                 f"remove it from the list" for rel in sorted(set(UNREACHED) - set(unreached))]
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
