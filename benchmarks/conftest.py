"""Shared benchmark helpers.

Every bench regenerates one artifact of the paper (DESIGN.md's
experiment index), prints the rows/series the paper reports, and
asserts the *shape* claims.  ``pytest benchmarks/ --benchmark-only``
runs the full harness.
"""

import time

import pytest


@pytest.fixture(autouse=True)
def _ledger_off(monkeypatch):
    """Benchmarks must never write the user's real run ledger."""
    monkeypatch.setenv("REPRO_LEDGER", "off")
    monkeypatch.delenv("REPRO_LEDGER_PATH", raising=False)


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an experiment with a single timed execution.

    The experiments are deterministic simulations (seconds each), so
    one round gives a meaningful wall-clock figure without repeating
    multi-second campaigns dozens of times.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def best_interleaved(hot_loop, iters: int, repeats: int = 15):
    """Min-of-repeats wall time of ``hot_loop(iters, False)`` (bare) and
    ``hot_loop(iters, True)`` (guarded), returned as ``(bare, guarded)``.

    Both variants run back-to-back each round so clock-frequency drift
    hits them equally, and the one that runs first alternates from
    round to round so neither always pays for the other's warm-up.
    """
    best = {False: float("inf"), True: float("inf")}
    for i in range(repeats):
        for guarded in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            hot_loop(iters, guarded)
            best[guarded] = min(best[guarded], time.perf_counter() - t0)
    return best[False], best[True]


@pytest.fixture
def table():
    from repro.analysis import format_table

    return format_table
