"""Shared benchmark helpers.

Every bench regenerates one artifact of the paper (DESIGN.md's
experiment index), prints the rows/series the paper reports, and
asserts the *shape* claims.  ``pytest benchmarks/ --benchmark-only``
runs the full harness.
"""

import statistics
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


def paired_overhead(hot_loop, iters: int = 2_000, repeats: int = 75):
    """Overhead of ``hot_loop(iters, True)`` (guarded) over
    ``hot_loop(iters, False)`` (bare), returned as ``(overhead, bare,
    guarded)``: the median over rounds of each round's guarded/bare
    ratio minus 1, and the median wall time of each variant.

    Both variants run back-to-back each round so clock-frequency drift
    hits them equally, and the one that runs first alternates from
    round to round so neither always pays for the other's warm-up.
    The ratio is taken within a round, so a slow stretch of the machine
    cancels out instead of landing on whichever side it happened to hit;
    many short rounds keep each pair close in time and give the median
    enough pairs to ignore the rounds a burst of load did split.
    """
    times = {False: [], True: []}
    ratios = []
    for i in range(repeats):
        for guarded in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            hot_loop(iters, guarded)
            times[guarded].append(time.perf_counter() - t0)
        ratios.append(times[True][-1] / times[False][-1])
    return statistics.median(ratios) - 1.0, statistics.median(times[False]), statistics.median(times[True])


@pytest.fixture
def table():
    from repro.analysis import format_table

    return format_table
