"""The benchmark's own arithmetic: percentiles, spreads, error rates,
span self time, and the host-speed calibration loop.

Kept free of any ``repro`` import so the tests in ``test_arith.py`` run
without the simulator.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: The tail percentile the benchmark reports (``rt_p90_ms``) ...
TAIL_Q = 0.9
#: ... when it leaves at least this many samples beyond it.
MIN_TAIL = 10
#: How far :func:`reportable_percentile` steps down at a time.
STEP = 0.05

#: Seconds :func:`calibrate` takes on the reference host (a 2-vCPU VM,
#: at its fastest); it only sets the unit of rescaled times.
CAL_REFERENCE_S = 0.0007
_CAL_ROW = np.arange(64)


def calibrate() -> float:
    """Seconds for a fixed loop of small numpy reductions and dict stores
    (the faster of two tries, so one preemption does not count).

    The simulator spends its host time on the same kind of work, so the
    loop slows down with the host the way the simulator does.  Timed
    runs multiply each measured interval by ``CAL_REFERENCE_S`` over the
    loop time taken just before it: a shared host's speed swings (here
    up to 1.8x within seconds) then cancel instead of landing in the
    metric.  The loop does not touch the simulator, so a change to the
    simulator cannot move it.
    """
    best = float("inf")
    for _ in range(2):
        store: Dict[int, int] = {}
        total = 0
        start = time.perf_counter()
        for i in range(300):
            total += int((_CAL_ROW > (i & 63)).sum())
            store[i & 255] = total
        best = min(best, time.perf_counter() - start)
    return best


#: Calibration loops :class:`HostSpeed` takes the median of.
WINDOW = 5


class HostSpeed:
    """Rescaling factors from the last :data:`WINDOW` calibration loops.

    The median of a short window keeps one disturbed loop from skewing
    an interval while still following the host's swings, which last
    seconds.
    """

    def __init__(self) -> None:
        self.recent: List[float] = []
        self.calibration_s = 0.0

    def factor(self) -> float:
        """Calibrate now; return reference seconds per measured second."""
        cal = calibrate()
        self.calibration_s += cal
        self.recent = (self.recent + [cal])[-WINDOW:]
        return CAL_REFERENCE_S / statistics.median(self.recent)


#: Seconds :func:`import_time` takes on the reference host; it only sets
#: the unit of rescaled set-up times.
IMPORT_REFERENCE_S = 0.2

#: A stand-in set-up: a fresh interpreter loading numpy and a spread of
#: pure-Python standard modules, then filling a dict.
_IMPORT_PROBE = """\
import time
t = time.perf_counter()
import numpy, json, argparse, http.server, email.parser, xml.dom.minidom, logging
import unittest, decimal, fractions, statistics, dataclasses, asyncio, csv, difflib
import tarfile, zipfile, pdb, pydoc
d = {}
for i in range(20000):
    d[i % 977] = [i] * 3
print(time.perf_counter() - t)
"""


def import_time() -> float:
    """Seconds the stand-in set-up takes in a fresh interpreter, timed
    inside it.

    Set-up time is mostly a fresh process reading and executing modules,
    which the host slows down differently from warm computation, so
    set-up samples are rescaled by this probe instead of
    :func:`calibrate`.  On the reference host, set-up over this probe
    spread 0.05 (quartile distance over median, 40 pairs) where set-up
    over a bare numpy import spread 0.12 and raw set-up 0.13.  It
    imports no simulator code.
    """
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation between
    closest ranks — the ``method="inclusive"`` rule of
    :func:`statistics.quantiles`."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    data = sorted(samples)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the ``q``-quantile's position in ``n``."""
    return n - 1 - int(q * (n - 1) + 1e-9)


def reportable_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile at or below :data:`TAIL_Q` that still has at
    least :data:`MIN_TAIL` samples beyond it, as ``(q, value)``.

    Walks down from :data:`TAIL_Q` in :data:`STEP` decrements; returns
    ``None`` when even the median would leave fewer than :data:`MIN_TAIL`
    beyond.
    """
    n = len(samples)
    q = TAIL_Q
    while q >= 0.5 - 1e-9:
        if n and samples_beyond(n, q) >= MIN_TAIL:
            return round(q, 4), percentile(samples, q)
        q -= STEP
    return None


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 0.5) if len(samples) > 1 else float(samples[0])


#: Outcomes that count as a failed operation.
FAILED_OUTCOMES = frozenset({"error", "refused", "timeout", "mismatch"})


def error_rate(outcomes: Iterable[str]) -> Tuple[int, int, float]:
    """``(attempted, failed, rate)`` over per-operation outcome labels.

    ``ok`` succeeds; ``error`` (an exception or non-terminal ``done``
    state), ``refused`` (HTTP 429/503), ``timeout`` and ``mismatch`` (a
    digest differing from its pin or oracle) each count as failed.
    """
    attempted = failed = 0
    for outcome in outcomes:
        attempted += 1
        if outcome in FAILED_OUTCOMES:
            failed += 1
        elif outcome != "ok":
            raise ValueError(f"unknown outcome {outcome!r}")
    return attempted, failed, (failed / attempted if attempted else 0.0)


class SpanRecorder:
    """Nested wall-clock spans, aggregated per call path as they close.

    ``push``/``pop`` bracket one call.  A span's *self* time is its
    duration minus the part covered by its direct children; each closed
    span's duration is charged to its parent as covered time.  The
    aggregate ``path -> [count, total_s, self_s]`` is what
    ``repro``'s span-tree renderer prints.  ``clock`` is injectable so
    tests can drive exact timings.
    """

    def __init__(self, clock=None) -> None:
        self.clock = clock or time.perf_counter
        # Open frames: [path, start_s, child_s].
        self._stack: List[list] = []
        self.agg: Dict[Tuple[str, ...], List[float]] = {}

    def push(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else ()
        self._stack.append([parent + (name,), self.clock(), 0.0])

    def pop(self) -> None:
        path, start, child_s = self._stack.pop()
        elapsed = self.clock() - start
        agg = self.agg.get(path)
        if agg is None:
            self.agg[path] = [1, elapsed, elapsed - child_s]
        else:
            agg[0] += 1
            agg[1] += elapsed
            agg[2] += elapsed - child_s
        if self._stack:
            self._stack[-1][2] += elapsed

    def by_name(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: ``(calls, self_s)`` summed over every path."""
        out: Dict[str, List[float]] = {}
        for path, (count, _total, self_s) in self.agg.items():
            entry = out.setdefault(path[-1], [0, 0.0])
            entry[0] += count
            entry[1] += self_s
        return {name: (int(c), s) for name, (c, s) in out.items()}

    def root_total_s(self) -> float:
        return sum(t for path, (_c, t, _s) in self.agg.items() if len(path) == 1)
