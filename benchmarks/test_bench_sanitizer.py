"""Sanitizer overhead benches.

The sanitizer borrows telemetry's contract: instrument sites behind
module-global guards must be near-free when the sanitizer is ``off``
(≤5% on a representative hot loop), and an enabled ``full`` run over a
real experiment must still finish — with its invariants intact — in
simulator-scale time.
"""

import numpy as np

from conftest import paired_overhead
from repro.experiments import execute_job
from repro.sanitizer import runtime as sanit

#: One sensed row's worth of work per iteration, matching the telemetry
#: bench so the two guard contracts are measured on the same loop.
_ROW = np.arange(8192, dtype=np.uint8)

#: A registered subsystem whose cheap check is O(1); never reached when
#: the sanitizer is off.
_BANK_STUB = type("BankStub", (), {
    "geometry": type("Geo", (), {"rows": 128})(),
    "open_row": None,
})()


def _hot_loop(iters: int, guarded: bool) -> int:
    """A bank-shaped hot loop with the exact instrument-site idiom:
    one module-attribute read and a falsy branch per iteration."""
    total = 0
    for _ in range(iters):
        total += int(_ROW.sum())
        if guarded:
            if sanit.sanitize_on:
                sanit.check("dram.bank", _BANK_STUB)
    return total


def test_perf_disabled_guard_overhead_under_5pct():
    """``--sanitize off`` (the default) must be free: the instrumented
    loop runs within 5% of the identical bare loop."""
    prev = sanit.set_level("off")
    try:
        _hot_loop(1_000, True), _hot_loop(1_000, False)  # warm up
        overhead, bare, guarded = paired_overhead(_hot_loop)
    finally:
        sanit.set_level(prev)
    print(f"\ndisabled-sanitizer overhead: {overhead:+.2%} "
          f"(bare {bare*1e3:.1f} ms, guarded {guarded*1e3:.1f} ms)")
    assert overhead <= 0.05


def test_perf_rowhammer_basic_under_full_sanitize():
    """End-to-end: a representative experiment completes under
    ``REPRO_SANITIZE=full`` with every invariant holding."""
    prev = sanit.set_level("full")
    try:
        result = execute_job("rowhammer_basic", params={"victims": 16}, seed=0)
    finally:
        sanit.set_level(prev)
    assert result.error is None
    assert result.payload["activations"] > 0
