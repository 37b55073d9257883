"""Simulator micro-benchmarks (multi-round timing of the hot paths).

Unlike the experiment benches (one-shot regenerations), these measure
the library's own primitives so performance regressions are visible:
per-command controller throughput, the device bulk path, the
vectorized campaign scan, and ECC decode.
"""

import numpy as np

from repro.controller import MemoryController
from repro.core.scenarios import scaled_scenario
from repro.dram import ColumnarDramBank, DisturbanceModel, DramGeometry, VulnerabilityProfile
from repro.ecc import SECDED_72_64
from repro.fieldstudy import build_population, instantiate, whole_module_errors

GEO = DramGeometry(banks=2, rows=1024, row_bytes=1024)
PROFILE = VulnerabilityProfile(weak_cell_density=1e-4, hc_first_median=700_000, hc_first_min=139_000)


def test_perf_bank_bulk_activate(benchmark):
    """Device fast path: one bulk hammer + settle."""
    def run():
        bank = ColumnarDramBank(GEO, DisturbanceModel(GEO, PROFILE, 1), 0)
        bank.bulk_activate(500, 1_000_000)
        bank.settle()
        return bank.stats.activations

    result = benchmark(run)
    assert result == 1_000_000


def test_perf_controller_command_path(benchmark):
    """Per-command pipeline: 2000 activations through timing/refresh/hooks."""
    scenario = scaled_scenario(scale=20.0)

    def run():
        ctrl = MemoryController(scenario.make_module(serial="perf", seed=2))
        ctrl.run_activation_pattern(0, [99, 101], 1_000)
        return ctrl.stats.activations

    result = benchmark(run)
    assert result == 2_000


def test_perf_whole_module_scan(benchmark):
    """Vectorized campaign scan of one 2 GiB-class module."""
    spec = next(s for s in build_population() if s.manufacturer == "B" and s.date >= 2013.0)

    def run():
        module = instantiate(spec, seed=3)
        return whole_module_errors(module).errors

    errors = benchmark(run)
    assert errors > 0


def test_perf_secded_decode(benchmark):
    """SECDED decode of 200 single-error words."""
    rng = np.random.default_rng(0)
    words = [rng.integers(0, 2, size=64).astype(np.uint8) for _ in range(200)]
    codewords = []
    for w in words:
        cw = SECDED_72_64.encode(w)
        cw[int(rng.integers(0, 72))] ^= 1
        codewords.append(cw)

    def run():
        return sum(len(SECDED_72_64.decode(cw).corrected_positions) for cw in codewords)

    corrected = benchmark(run)
    assert corrected == 200
