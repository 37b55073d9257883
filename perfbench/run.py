#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload percmd_hammer --seed 0 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with every in-program
guard (metrics, trace, spans, physics, sanitizer) off.  ``--trace 1``
is a separate pass that attributes host time to the simulator's layers
(``tracer.py``), measures the observer tax of each guard, and reports
the service's own timings.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads (``WORKLOADS.md`` has the rationale): ``percmd_hammer``,
``mixed_trace`` and ``device_batch`` run the simulator in this process;
``service_rt`` drives ``repro serve`` in its own process.

The benchmark builds nothing: it imports ``repro`` from ``src/`` next
to this directory, and exits 2 without a result when that is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Run artifacts (traces, service state dirs); ignored by git.
OUT = ROOT / ".perfbench"

WORKLOADS = ("percmd_hammer", "mixed_trace", "device_batch", "service_rt")
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
    "rt_p50_ms": "ms", "rt_p90_ms": "ms", "jobs_per_s": "1/s",
}
#: Fresh-process set-up measurements per run; the median is reported.
SETUP_PROBES = 5
#: Sessions a timed run makes at least, after its untimed warm-up.
MIN_SESSIONS = 3
#: Ops a timed run makes at least, so the p90 keeps ten samples beyond it.
MIN_OPS = 110
#: In-program guards whose cost the traced pass measures, one at a time.
GUARDS = ("metrics", "spans", "trace", "physics", "sanitize_cheap")
TAX_WORKLOADS = ("percmd_hammer", "device_batch")

# Every per-layer metric and its unit; a layer a workload does not run
# reports 0.
PER_LAYER = {
    "controller.self_s": "s", "controller.commands": "count",
    "controller.refresh.self_s": "s", "controller.refresh.ticks": "count",
    "mitigations.self_s": "s", "mitigations.on_activate.calls": "count",
    "mitigations.refreshes": "count",
    "cpu.self_s": "s", "cpu.cache.hit_ratio": "ratio",
    "softmc.self_s": "s", "softmc.instructions": "count",
    "dram.module.self_s": "s", "dram.module.calls": "count",
    "dram.bank.self_s": "s", "dram.bank.activate.calls": "count",
    "dram.bank.execute.calls": "count", "dram.bank.refresh.calls": "count",
    "dram.disturbance.self_s": "s", "dram.disturbance.flip_mask.calls": "count",
    "ecc.self_s": "s", "ecc.words": "count",
    "fieldstudy.self_s": "s", "fieldstudy.modules": "count",
    "attacks.self_s": "s", "attacks.templates": "count",
    "service.admit_p50_ms": "ms", "service.queue_wait_p50_ms": "ms",
    "service.poll_lag_p50_ms": "ms", "service.durable_records_per_job": "count",
    "runner.exec_p50_ms": "ms", "runner.overhead_p50_ms": "ms",
    "runner.cache_hit_ratio": "ratio", "runner.jobs": "count",
    "sim.acts": "count", "sim.flips": "count", "sim.time_ns": "ns",
    "sim.mitigation_refreshes": "count",
    "bench.trace_overhead": "ratio", "bench.unattributed_share": "ratio",
    "telemetry.tax.metrics": "ratio", "telemetry.tax.spans": "ratio",
    "telemetry.tax.trace": "ratio", "telemetry.tax.physics": "ratio",
    "sanitizer.tax.cheap": "ratio",
}


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def prepare_environment() -> None:
    """Import ``repro`` from this checkout with every guard off."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no simulator sources at {SRC / 'repro'}; run from a full checkout")
    for var in ("REPRO_SANITIZE", "REPRO_CHAOS", "REPRO_CHAOS_STATE", "REPRO_DRAM_ENGINE",
                "REPRO_FLIP_LOG_CAP", "REPRO_AUDIT_CAP", "REPRO_RUN_ID"):
        os.environ.pop(var, None)
    os.environ["REPRO_LEDGER"] = "off"
    os.environ["REPRO_CAPTURE"] = "off"
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, float],
         units: Dict[str, str]) -> None:
    print(f"error_rate: {failed}/{attempted} = {failed / max(1, attempted):.4f}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
def setup_probe(workload: str, seed: int) -> None:
    """Child-process mode: time importing ``repro`` plus building the
    workload's inputs, from a fresh interpreter."""
    start = time.perf_counter()
    prepare_environment()
    from workloads import SIM_WORKLOADS

    SIM_WORKLOADS[workload](seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(workload: str, seed: int) -> List[float]:
    """Set-up samples in reference seconds (see :func:`stats.import_time`)."""
    import stats

    samples = []
    for _ in range(SETUP_PROBES):
        factor = stats.IMPORT_REFERENCE_S / stats.import_time()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"setup probe failed:\n{proc.stderr}", code=1)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"] * factor)
    return samples


class SessionRun:
    """One pass of a workload's fixed work, timed.

    ``wall_s`` and ``latencies`` are in reference seconds: each op's time
    is rescaled by the calibration loop run just before it (see
    :func:`stats.calibrate`), the few glue instructions between ops by
    the session's mean factor.  ``raw_wall_s`` is the plain wall clock
    with the calibration loops left out.
    """

    def __init__(self, workload, recorder=None) -> None:
        import stats
        from tracer import ROOT as ROOT_SPAN
        from workloads import Session

        gc.collect()
        self.session = Session()
        clock = time.perf_counter
        self.latencies: List[float] = []
        factors: List[float] = []
        speed = stats.HostSpeed()
        raw_ops = 0.0
        if recorder is not None:
            recorder.push(ROOT_SPAN)
        start = clock()
        for op in workload.ops(self.session):
            factors.append(speed.factor())
            t = clock()
            op()
            dt = clock() - t
            raw_ops += dt
            self.latencies.append(dt * factors[-1])
        #: Seconds the calibration loops took inside the session.
        self.calibration_s = speed.calibration_s
        self.raw_wall_s = clock() - start - self.calibration_s
        if recorder is not None:
            recorder.pop()
        glue = self.raw_wall_s - raw_ops
        self.wall_s = sum(self.latencies) + glue * sum(factors) / len(factors)


class DigestCheck:
    """Each session's ``sim.*`` digest against the pin for this seed, or,
    for an unpinned seed, against the run's first session (partial).

    Every session leaves an outcome label, ``ok`` or ``mismatch``, and
    the result line counts them with :func:`stats.error_rate`.
    """

    def __init__(self, workload: str, seed: int) -> None:
        pin_file = HERE / "pins.json"
        pins = json.loads(pin_file.read_text()) if pin_file.is_file() else {}
        self.expected: Optional[Dict[str, Any]] = pins.get(workload, {}).get(str(seed))
        self.pinned = self.expected is not None
        self.outcomes: List[str] = []

    def check(self, digest: Dict[str, Any], label: str) -> None:
        if self.expected is None:
            self.expected = digest
        if digest == self.expected:
            self.outcomes.append("ok")
        else:
            self.outcomes.append("mismatch")
            print(f"digest mismatch ({label}): {digest} != {self.expected}")

    def emit(self, metrics: Dict[str, float], units: Dict[str, str]) -> None:
        import stats

        attempted, failed, _rate = stats.error_rate(self.outcomes)
        kind = "pinned" if self.pinned else "partial (unpinned seed: sessions compared)"
        state = "ok" if not failed else f"{failed} mismatched"
        print(f"output check: {kind}; {attempted} sessions, {state}")
        emit(not failed, attempted, failed, metrics, units)


def run_sim(args) -> None:
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    prepare_environment()
    from repro.sanitizer import runtime as sanit
    from repro.telemetry import physics as phys
    from repro.telemetry import runtime as telem

    import stats
    from workloads import SIM_WORKLOADS

    telem.disable_all()
    phys.disable_physics()
    sanit.set_level("off")
    workload = SIM_WORKLOADS[args.workload](args.seed)
    check = DigestCheck(args.workload, args.seed)

    check.check(SessionRun(workload).session.digest(), "warm-up")  # untimed

    if args.trace:
        check.emit(traced_pass(args, workload, check, telem, phys, sanit), PER_LAYER)
        return

    walls: List[float] = []
    raw_walls: List[float] = []
    latencies: List[float] = []
    deadline = time.perf_counter() + args.seconds
    while (len(walls) < MIN_SESSIONS or len(latencies) < MIN_OPS
           or time.perf_counter() < deadline):
        run = SessionRun(workload)
        walls.append(run.wall_s)
        raw_walls.append(run.raw_wall_s)
        latencies.extend(run.latencies)
        check.check(run.session.digest(), f"session {len(walls)}")
        del run  # free the session's modules before the next one
    tail = stats.reportable_percentile(latencies)
    if tail is None:
        fail(f"only {len(latencies)} ops: too few for any tail percentile", code=1)
    q, p90 = tail
    print(f"{args.workload} seed={args.seed}: {len(latencies)} ops; session walls "
          f"{['%.3f' % w for w in walls]} (raw {['%.3f' % w for w in raw_walls]}); "
          f"setup samples {['%.3f' % s for s in setup]}; tail percentile q={q}")
    metrics = {
        "setup_s": stats.median(setup),
        "wall_s": stats.median(walls),
        "peak_rss_mb": peak_rss_mb(),
        "rt_p50_ms": stats.median(latencies) * 1e3,
        "rt_p90_ms": p90 * 1e3,
        "jobs_per_s": len(latencies) / sum(walls),
    }
    check.emit(metrics, END_TO_END)


def _guard(name: str, on: bool, telem, phys, sanit) -> None:
    if name == "metrics":
        telem.enable_metrics(fresh=True) if on else telem.disable_metrics()
    elif name == "spans":
        telem.enable_profiling(fresh=True) if on else telem.disable_profiling()
    elif name == "trace":
        telem.enable_tracing(fresh=True) if on else telem.disable_tracing()
    elif name == "physics":
        phys.enable_physics(fresh=True) if on else phys.disable_physics()
    elif name == "sanitize_cheap":
        sanit.set_level("cheap" if on else "off")


def traced_pass(args, workload, check, telem, phys, sanit) -> Dict[str, float]:
    import stats
    import tracer
    from repro.telemetry.spans import SpanProfile

    plain = []
    for i in range(2):
        run = SessionRun(workload)
        plain.append(run.wall_s)
        check.check(run.session.digest(), f"untraced {i + 1}")
        del run
    base = stats.median(plain)

    metrics = {name: 0.0 for name in PER_LAYER}
    if args.workload in TAX_WORKLOADS:
        for guard in GUARDS:
            _guard(guard, True, telem, phys, sanit)
            try:
                run = SessionRun(workload)
            finally:
                _guard(guard, False, telem, phys, sanit)
            check.check(run.session.digest(), f"guard {guard}")
            key = "sanitizer.tax.cheap" if guard == "sanitize_cheap" else f"telemetry.tax.{guard}"
            metrics[key] = run.wall_s / base - 1.0
            del run

    recorder = stats.SpanRecorder()
    installed = tracer.Tracer(recorder).install()
    try:
        traced = SessionRun(workload, recorder)
    finally:
        installed.uninstall()
    session = traced.session
    digest = session.digest()
    check.check(digest, "traced")

    self_s, calls = tracer.attribute(recorder)
    match = tracer.calls_matching
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    metrics.update({
        "controller.commands": match(calls, "controller", "activate", "read", "write"),
        "controller.refresh.ticks": match(calls, "controller.refresh", "tick"),
        "mitigations.on_activate.calls": match(calls, "mitigations", "on_activate"),
        "mitigations.refreshes": digest["sim.mitigation_refreshes"],
        "dram.module.calls": match(calls, "dram.module"),
        "dram.bank.activate.calls": match(calls, "dram.bank", "activate"),
        "dram.bank.execute.calls": match(calls, "dram.bank", "execute"),
        "dram.bank.refresh.calls": match(calls, "dram.bank", "refresh_row", "refresh_rows",
                                         "refresh_all"),
        "dram.disturbance.flip_mask.calls": match(calls, "dram.disturbance", "flip_mask",
                                                  "flip_mask_batch"),
        "ecc.words": match(calls, "ecc", "decode"),
        "fieldstudy.modules": match(calls, "fieldstudy", "whole_module_errors"),
    })
    for key in ("cpu.cache.hit_ratio", "softmc.instructions", "attacks.templates"):
        metrics[key] = session.counts.get(key, 0.0)
    for key in ("sim.acts", "sim.flips", "sim.time_ns", "sim.mitigation_refreshes"):
        metrics[key] = digest[key]
    # The calibration loops run inside the root span; leave them out.
    bench_self = self_s.get(tracer.layer_of(tracer.ROOT), 0.0) - traced.calibration_s
    self_s[tracer.layer_of(tracer.ROOT)] = bench_self
    covered = recorder.root_total_s() - traced.calibration_s
    traced_wall = traced.raw_wall_s
    metrics["bench.trace_overhead"] = traced.wall_s / base - 1.0
    metrics["bench.unattributed_share"] = bench_self / covered

    profile = SpanProfile({path: (int(c), t, s) for path, (c, t, s) in recorder.agg.items()})
    OUT.mkdir(exist_ok=True)
    out = OUT / f"trace-{args.workload}-seed{args.seed}.txt"
    out.write_text(profile.render_tree() + "\n\n" + profile.render_folded())
    layered = sorted(((s, layer) for layer, s in self_s.items()), reverse=True)
    print(f"traced pass: untraced wall {base:.3f} s, traced wall {traced.wall_s:.3f} s "
          f"(reference seconds), trace overhead {metrics['bench.trace_overhead']:.3f}")
    print(f"attribution: layers {covered - bench_self:.3f} s + benchmark/unwrapped "
          f"{bench_self:.3f} s = spans {covered:.3f} s (traced wall {traced_wall:.3f} s)")
    for seconds, layer in layered:
        print(f"  {layer:<20} {seconds:9.3f} s  {100 * seconds / covered:5.1f}%")
    top = max((item for item in layered if item[1] != tracer.layer_of(tracer.ROOT)),
              default=(0.0, "none"))
    print(f"top layer: {top[1]} ({100 * top[0] / covered:.1f}% of traced wall)")
    for guard in GUARDS:
        key = "sanitizer.tax.cheap" if guard == "sanitize_cheap" else f"telemetry.tax.{guard}"
        shown = f"{metrics[key]:+.3f}" if args.workload in TAX_WORKLOADS else "not measured"
        print(f"observer tax {guard}: {shown}")
    print(f"span tree and folded stacks: {out.relative_to(ROOT)}")
    print("\n".join(profile.render_tree().splitlines()[:30]))
    return metrics


# ----------------------------------------------------------------------
def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no simulator sources at {SRC / 'repro'}; run from a full checkout")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return
    if args.workload == "service_rt":
        prepare_environment()
        import service_rt

        service_rt.run(args, emit=emit, end_to_end=END_TO_END, per_layer=PER_LAYER)
        return
    run_sim(args)


if __name__ == "__main__":
    main()
