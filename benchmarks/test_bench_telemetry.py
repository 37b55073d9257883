"""Telemetry overhead benches.

Two claims: an instrumented workload with telemetry *enabled* still
finishes in simulator-scale time (and its counters agree with the
experiment's own payload), and the disabled-by-default guards cost
≤5% on a representative hot loop — the "near-zero when off" contract
from :mod:`repro.telemetry.runtime`.
"""

import numpy as np

from conftest import paired_overhead, run_once
from repro.experiments import execute_job
from repro.telemetry import MetricsRegistry, PhysicsCollector
from repro.telemetry import events as stream_events
from repro.telemetry import physics as phys
from repro.telemetry import runtime as telem

#: One sensed row's worth of work per iteration — the granularity at
#: which the simulators consult the telemetry guards.  A full-scale row
#: is ``row_bytes * 8`` = 8192 cells.
_ROW = np.arange(8192, dtype=np.uint8)


def _hot_loop(iters: int, guarded: bool) -> int:
    """A bank-shaped hot loop: one row-sized numpy op per iteration,
    optionally followed by the exact guard idiom the instrument sites
    use (one module-attribute read + falsy branch each)."""
    total = 0
    for _ in range(iters):
        total += int(_ROW.sum())
        if guarded:
            if telem.metrics_on:
                telem.counter("bench_ops_total").inc()
            if telem.trace_on:
                telem.trace("bench_op")
            if phys.physics_on:
                phys.get_collector().record_activation(0, 0)
            if stream_events.sink() is not None:
                stream_events.sink().tick()
    return total


def test_perf_disabled_guard_overhead_under_5pct():
    """The whole point of the guard flags: with telemetry off, the
    instrumented loop runs within 5% of the identical bare loop."""
    telem.disable_all()
    _hot_loop(1_000, True), _hot_loop(1_000, False)  # warm up
    overhead, bare, guarded = paired_overhead(_hot_loop)
    print(f"\ndisabled-telemetry overhead: {overhead:+.2%} "
          f"(bare {bare*1e3:.1f} ms, guarded {guarded*1e3:.1f} ms)")
    assert overhead <= 0.05


def test_perf_rowhammer_basic_with_metrics(benchmark):
    """End-to-end: the telemetry cross-check experiment with metrics on."""
    result = run_once(benchmark, execute_job, "rowhammer_basic",
                      params={"victims": 16}, seed=0, observe=("metrics",))
    merged = MetricsRegistry.from_snapshot(result.metrics)
    assert merged.total("dram_activations_total") == result.payload["activations"]
    assert merged.total("dram_refreshes_total") == result.payload["refreshes"]
    assert merged.total("dram_bit_flips_total") == result.payload["bit_flips"]


def test_perf_rowhammer_basic_with_physics(benchmark):
    """End-to-end with the physics layer on: the heat map's flip total
    must equal the experiment's own payload count."""
    result = run_once(benchmark, execute_job, "rowhammer_basic",
                      params={"victims": 16}, seed=0, observe=("physics",))
    collector = PhysicsCollector.from_snapshot(result.physics)
    assert collector.total_flips() == result.payload["bit_flips"]
    assert collector.total_provenance_flips() == result.payload["bit_flips"]
    assert collector.total_activations() == result.payload["activations"]
