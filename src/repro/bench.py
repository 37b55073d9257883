"""The bench-regression harness: is the simulator getting slower?

A *bench* is one experiment invocation pinned to fixed parameters and a
fixed seed, run with the span profiler and metrics on, and reported as
wall time plus a domain throughput (activations/s, ECC words/s, PCM
writes/s, ...).  :data:`SUITE` covers each simulated technology — DRAM
hammering, flash two-step programming, ECC evaluation, retention
profiling, PCM endurance — so a slowdown in any subsystem moves at
least one bench.

``repro bench`` runs the suite and writes a schema-versioned
``BENCH_<timestamp>.json``; ``repro bench --compare BASELINE.json``
diffs a fresh (or ``--input``-loaded) run against a saved baseline and
exits nonzero when any bench slowed beyond the threshold.  CI runs it
as a hard gate against ``benchmarks/baseline.json`` with
``--fail-on-regress 75``: the job fails when any bench slows by more
than 75%.

Wall times are machine-dependent: comparisons are only meaningful
between runs on comparable hardware, which is why CI's threshold is
wide (shared runners are noisy) while a local gate can be tight;
``--warn-only`` reports without failing.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.experiments.runner import JobTimeout, call_with_deadline, execute_job
from repro.telemetry.ids import environment_fingerprint
from repro.telemetry.ledger import git_sha

__all__ = [
    "BENCH_SCHEMA",
    "BenchSpec",
    "SUITE",
    "bench_names",
    "compare_reports",
    "fingerprint_mismatches",
    "load_report",
    "run_bench",
    "run_suite",
    "write_report",
]

BENCH_SCHEMA = 1

#: Default regression threshold (percent wall-time increase) for
#: ``repro bench --compare``.
DEFAULT_REGRESS_PCT = 10.0


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark: an experiment pinned to params, seed, and a unit.

    Attributes:
        name: stable bench identifier (comparison key across reports).
        experiment: registry name of the experiment to run.
        params: full-size parameter bindings.
        quick_params: smaller bindings for ``--quick`` / CI runs.
        seed: fixed seed (throughput must not vary with the draw).
        unit_metric: telemetry counter whose total is the work done, or
            ``None`` when the bench has no natural unit (wall time only).
        unit: human name of one unit of work.
    """

    name: str
    experiment: str
    params: Mapping[str, Any] = field(default_factory=dict)
    quick_params: Optional[Mapping[str, Any]] = None
    seed: int = 0
    unit_metric: Optional[str] = None
    unit: str = "ops"

    def bindings(self, quick: bool = False) -> Dict[str, Any]:
        if quick and self.quick_params is not None:
            return dict(self.quick_params)
        return dict(self.params)


#: One bench per simulated technology (§II DRAM, §III flash/PCM, plus
#: the ECC and retention analysis machinery).
SUITE: List[BenchSpec] = [
    BenchSpec(
        name="dram_hammer",
        experiment="rowhammer_basic",
        params={"victims": 64},
        quick_params={"victims": 8},
        unit_metric="dram_activations_total",
        unit="activations",
    ),
    BenchSpec(
        name="flash_twostep",
        experiment="twostep_study",
        params={"pe_cycles": 8000},
        quick_params={"pe_cycles": 2000},
        unit_metric="flash_page_reads_total",
        unit="page reads",
    ),
    BenchSpec(
        name="ecc_ladder",
        experiment="ecc_study",
        params={"victims": 400},
        quick_params={"victims": 60},
        unit_metric="ecc_words_total",
        unit="words",
    ),
    BenchSpec(
        name="retention_profiling",
        experiment="retention_study",
        params={"rows": 2048, "cells_per_row": 512},
        quick_params={"rows": 256, "cells_per_row": 128},
    ),
    BenchSpec(
        name="flash_fcr",
        experiment="fcr_study",
        unit_metric="flash_page_reads_total",
        unit="page reads",
    ),
    BenchSpec(
        name="pcm_endurance",
        experiment="pcm_study",
        unit_metric="pcm_writes_total",
        unit="writes",
    ),
]


def bench_names() -> List[str]:
    return [spec.name for spec in SUITE]


def _counter_total(metrics: Optional[Mapping[str, Any]], name: str) -> float:
    if not metrics:
        return 0.0
    return float(sum(
        entry["value"] for entry in metrics.get("counters", ())
        if entry["name"] == name
    ))


def run_bench(spec: BenchSpec, quick: bool = False,
              timeout_s: Optional[float] = None) -> Dict[str, Any]:
    """Execute one bench; returns its JSON-safe report entry.

    The job runs through :func:`execute_job` with metrics *and* the
    span profiler on, so the entry carries a per-phase breakdown along
    with the headline wall time.  With ``timeout_s`` the bench runs
    under a wall-clock deadline: a bench that exceeds it yields an
    entry with ``error`` set (``"JobTimeout: ..."``) instead of hanging
    the suite.
    """
    start = time.perf_counter()
    try:
        result = call_with_deadline(
            lambda: execute_job(
                spec.experiment,
                params=spec.bindings(quick),
                seed=spec.seed,
                observe=("metrics", "spans"),
            ),
            timeout_s,
        )
    except JobTimeout as exc:
        return {
            "name": spec.name,
            "experiment": spec.experiment,
            "params": spec.bindings(quick),
            "seed": spec.seed,
            "quick": quick,
            "wall_s": time.perf_counter() - start,
            "unit": spec.unit,
            "units": 0.0,
            "throughput": None,
            "peak_rss_kb": 0,
            "spans": [],
            "error": f"JobTimeout: {exc}",
        }
    units = _counter_total(result.metrics, spec.unit_metric) if spec.unit_metric else 0.0
    wall = result.duration_s
    entry: Dict[str, Any] = {
        "name": spec.name,
        "experiment": spec.experiment,
        "params": spec.bindings(quick),
        "seed": spec.seed,
        "quick": quick,
        "wall_s": wall,
        "unit": spec.unit,
        "units": units,
        "throughput": (units / wall) if (units and wall > 0) else None,
        "peak_rss_kb": result.peak_rss_kb,
        "spans": (result.profile or {}).get("spans", []),
    }
    return entry


def run_suite(names: Optional[Sequence[str]] = None,
              quick: bool = False,
              timeout_s: Optional[float] = None) -> Dict[str, Any]:
    """Run the (possibly filtered) suite; returns the full report."""
    selected = SUITE if not names else [s for s in SUITE if s.name in set(names)]
    if names:
        unknown = set(names) - {s.name for s in SUITE}
        if unknown:
            raise ValueError(
                f"unknown bench(es): {', '.join(sorted(unknown))}; "
                f"available: {', '.join(bench_names())}"
            )
    import repro

    return {
        "schema": BENCH_SCHEMA,
        "ts": time.time(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        "host": socket.gethostname(),
        "repro_version": repro.__version__,
        "git_sha": git_sha(),
        "fingerprint": environment_fingerprint(),
        "quick": quick,
        "benches": [run_bench(spec, quick=quick, timeout_s=timeout_s)
                    for spec in selected],
    }


def write_report(report: Mapping[str, Any],
                 path: Union[str, Path, None] = None) -> Path:
    """Write a report; default filename is ``BENCH_<timestamp>.json``."""
    if path is None:
        stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime(report.get("ts", time.time())))
        path = Path(f"BENCH_{stamp}.json")
    path = Path(path)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path


def load_report(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and minimally validate a bench report."""
    with open(path) as handle:
        report = json.load(handle)
    if not isinstance(report, dict) or "benches" not in report:
        raise ValueError(f"{path}: not a bench report (no 'benches' key)")
    schema = report.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: bench schema {schema!r} not supported (want {BENCH_SCHEMA})"
        )
    return report


def fingerprint_mismatches(current: Mapping[str, Any],
                           baseline: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Environment-fingerprint fields that differ between two reports.

    Wall-time deltas across different hosts, interpreters, or numpy
    builds measure the environment, not the code — the comparison
    must say so instead of silently gating on them.  Fields missing
    from one side (pre-fingerprint baselines) are never mismatches.
    """
    fp_cur = current.get("fingerprint") or {}
    fp_base = baseline.get("fingerprint") or {}
    out: List[Dict[str, Any]] = []
    for key in sorted(set(fp_cur) | set(fp_base)):
        a, b = fp_base.get(key), fp_cur.get(key)
        if a is not None and b is not None and a != b:
            out.append({"field": key, "baseline": a, "current": b})
    return out


def compare_reports(current: Mapping[str, Any], baseline: Mapping[str, Any],
                    threshold_pct: float = DEFAULT_REGRESS_PCT) -> Dict[str, Any]:
    """Diff two reports bench-by-bench on wall time.

    A bench *regresses* when its wall time grew more than
    ``threshold_pct`` percent over the baseline.  Benches present on
    only one side are reported but never counted as regressions.
    ``fingerprint_mismatches`` lists environment differences (host,
    python/numpy) that make the wall-time comparison
    apples-to-oranges; callers should surface them as warnings.
    """
    base_by_name = {b["name"]: b for b in baseline.get("benches", ())}
    cur_by_name = {b["name"]: b for b in current.get("benches", ())}
    rows: List[Dict[str, Any]] = []
    regressions: List[str] = []
    for name, bench in cur_by_name.items():
        base = base_by_name.get(name)
        if base is None:
            rows.append({"name": name, "wall_s": bench["wall_s"],
                         "base_wall_s": None, "delta_pct": None,
                         "regressed": False, "note": "new"})
            continue
        base_wall = base["wall_s"]
        delta_pct = (100.0 * (bench["wall_s"] - base_wall) / base_wall
                     if base_wall > 0 else 0.0)
        regressed = delta_pct > threshold_pct
        if regressed:
            regressions.append(name)
        rows.append({"name": name, "wall_s": bench["wall_s"],
                     "base_wall_s": base_wall, "delta_pct": delta_pct,
                     "regressed": regressed, "note": ""})
    missing = sorted(set(base_by_name) - set(cur_by_name))
    for name in missing:
        rows.append({"name": name, "wall_s": None,
                     "base_wall_s": base_by_name[name]["wall_s"],
                     "delta_pct": None, "regressed": False, "note": "missing"})
    return {
        "threshold_pct": threshold_pct,
        "rows": rows,
        "regressions": regressions,
        "fingerprint_mismatches": fingerprint_mismatches(current, baseline),
        "ok": not regressions,
    }
