"""Command-line front end: run any paper experiment from the shell.

Usage::

    python -m repro list
    python -m repro run fig1_error_rates --seed 0
    python -m repro run c3 c4 c5 --parallel 3 --json
    python -m repro run rowhammer_basic --metrics
    python -m repro stats --format prometheus
    python -m repro trace rowhammer_basic --output trace.jsonl
    python -m repro describe para_reliability
    python -m repro report f1 c3 --output report.md
    python -m repro report rowhammer_basic --seeds 4 --format html --check
    python -m repro sweep fig1_error_rates --seeds 8 --parallel 4
    python -m repro sweep fig1_error_rates --seeds 64 --timeout 30
    python -m repro sweep rowhammer_basic --seeds 16 --sanitize full
    python -m repro replay .repro-failures/rowhammer_basic-7-ab12cd34ef567890.json
    python -m repro chaos
    python -m repro serve --state-dir .repro-service
    python -m repro submit fig1_error_rates --seeds 16 --wait
    python -m repro jobs

Experiments resolve by registry name *or* legacy alias (``f1``,
``c2``…) through :mod:`repro.experiments`.  Results print as text
tables, or as JSON with ``--json``; ``--record`` wraps the payload in
its full :class:`~repro.experiments.result.ExperimentResult` provenance
(seed, params, duration, peak RSS, version, cache hit).

Observability: ``run``/``sweep`` accept ``--metrics``, which collects
the telemetry the simulated hardware emits (merged across ``--parallel``
worker processes) and persists the snapshot to ``--metrics-out``;
``stats`` renders a saved snapshot as a table, JSON, or Prometheus text
format; ``trace`` replays one experiment with event tracing on and
emits the JSONL event stream; ``profile`` runs one experiment under the
span profiler and renders where the time went; ``ledger`` lists, shows,
and diffs the append-only run manifest every runner job feeds; and
``bench`` drives the bench-regression suite (``repro bench --compare
BASELINE.json`` exits nonzero past the regression threshold).

Physics observability: ``run``/``sweep`` also accept ``--physics``,
which records the domain layer — per-row disturbance heat maps, flip
provenance (dominant aggressor, hammer pressure, data pattern, refresh
epoch), and the mitigation decision audit trail — and persists it to
``--physics-out`` (the file doubles as a metrics snapshot of the
bank-level physics aggregates, so ``repro stats --input
.repro-physics.json --format prometheus`` renders them).  ``report``
runs (or fetches from cache) experiments with the full telemetry suite
on and renders one self-contained markdown or HTML artifact — heat
map, provenance table, audit summary, span tree, metric table, and an
environment fingerprint; ``report --check`` fails the command unless
the artifact's three independently accumulated flip totals agree (heat
map, provenance aggregates, ``dram_bit_flips_total``).

Live telemetry: ``run``/``sweep`` take ``--serve-metrics [PORT]``,
which arms worker→parent metric streaming and serves a Prometheus
``/metrics`` endpoint *while the batch runs* — live hardware counters
folded from in-flight jobs plus sweep progress gauges (jobs by state,
ETA, per-worker heartbeat ages), all labeled with the sweep's
``run_id``; ``sweep --live`` repaints a top(1)-style progress view on
stderr from the same event stream.  ``ledger diff RUN_A RUN_B`` (two
run-ID refs) joins the two runs' records on ``job_id`` instead of
diffing single records positionally.

Hardened execution: ``run``/``sweep`` take ``--timeout`` (per-job
wall-clock deadline → structured ``timeout`` outcome).  A failed job
is reported, never retried: experiments are deterministic and failed
results are never cached, so running the command again re-executes
exactly the failed jobs.  The result cache is the resume point:
running an interrupted sweep again picks up where it left off, because
every finished job is a cache hit.  ``--no-cache`` keeps no finished
results; a fresh ``--cache-dir`` makes a one-off sweep resumable.
Exit codes: 0 all jobs ok, 1 one or more jobs failed/timed out, 2 usage
error, 130 interrupted (completed results flushed to the cache).
``chaos`` runs the fault-injection scenario suite
(:mod:`repro.chaos.harness`) proving those recovery paths.

Experiment service: ``serve`` runs the crash-tolerant daemon
(:mod:`repro.service`) — journaled HTTP job submission run one
submission at a time, graceful SIGTERM/SIGINT drain (exit 0),
SIGKILL-and-restart resume on the same ``--state-dir`` (one daemon per
dir: a second exits 2); ``submit``/``jobs`` are its client verbs.  CLI
sweeps get the same drain contract: SIGTERM flushes completed jobs to the
cache and exits 143 with a resume hint (SIGINT stays 130).

Sanitizer: ``run``/``sweep`` take ``--sanitize {off,cheap,full}``
(runtime invariant checks, see :mod:`repro.sanitizer`) and
``--capture-dir`` (where failed jobs leave replayable failure bundles);
``repro replay BUNDLE`` re-executes a captured failure under the
bundle's recorded knobs and compares failure digests.  ``replay`` exit
codes: 0 the failure reproduced with the identical digest, 3 it did
not reproduce (clean run or a different failure), 2 the file is not a
readable bundle.

Seed handling is introspected from each experiment's registered
signature — an exception raised *inside* an experiment always
propagates with its traceback instead of being silently retried
without a seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional

from repro.experiments import (
    ExperimentResult,
    ExperimentRunner,
    Job,
    execute_job,
    registry,
    to_jsonable,
)
from repro.telemetry import MetricsRegistry, TraceRecorder
from repro.telemetry import runtime as telem

#: Default on-disk result cache for ``sweep`` (created in the CWD).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Default metrics-snapshot file shared by ``run --metrics`` and ``stats``.
DEFAULT_METRICS_PATH = ".repro-metrics.json"

#: Default physics-snapshot file shared by ``run --physics`` and ``stats``.
DEFAULT_PHYSICS_PATH = ".repro-physics.json"

#: Default state directory shared by ``serve``/``submit``/``jobs``.
DEFAULT_STATE_DIR = ".repro-service"


def _render_text(result: Any, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines: List[str] = []
    jsonable = to_jsonable(result)
    if isinstance(jsonable, dict):
        for key, value in jsonable.items():
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(jsonable, list):
        for item in jsonable:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{jsonable}")
    return lines


def _is_flat(value: Any) -> bool:
    if isinstance(value, dict):
        return all(not isinstance(v, (dict, list)) for v in value.values())
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value) and len(value) <= 12
    return True


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the experiments of the RowHammer DATE 2017 paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    invocable = sorted(registry.invocable_names())

    list_cmd = sub.add_parser("list", help="list available experiments")
    list_cmd.add_argument("--tag", default=None, help="only experiments carrying this tag")
    list_cmd.add_argument("--format", choices=("text", "markdown"), default="text",
                          help="markdown emits the EXPERIMENTS.md index table")

    describe = sub.add_parser("describe", help="show an experiment's claim, params, docstring")
    describe.add_argument("name", choices=invocable)

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("names", nargs="+", choices=invocable, metavar="name")
    run.add_argument("--seed", type=int, default=0, help="experiment seed")
    run.add_argument("--json", action="store_true", help="emit JSON instead of text")
    run.add_argument("--record", action="store_true",
                     help="emit the full ExperimentResult (payload + provenance)")
    run.add_argument("--parallel", type=int, default=1, metavar="N",
                     help="fan out over N worker processes")
    run.add_argument("--cache-dir", default=None,
                     help="enable the on-disk result cache rooted here")
    run.add_argument("--metrics", action="store_true",
                     help="collect hardware telemetry and persist the snapshot")
    run.add_argument("--metrics-out", default=DEFAULT_METRICS_PATH,
                     help=f"metrics snapshot file (default: {DEFAULT_METRICS_PATH})")
    run.add_argument("--physics", action="store_true",
                     help="collect the physics layer (per-row heat maps, flip "
                          "provenance, mitigation audit) and persist it")
    run.add_argument("--physics-out", default=DEFAULT_PHYSICS_PATH,
                     help=f"physics snapshot file (default: {DEFAULT_PHYSICS_PATH})")
    run.add_argument("--timeout", type=float, default=None, metavar="SECS",
                     help="per-job wall-clock deadline (structured timeout "
                          "outcome instead of a hang)")
    _add_serve_metrics_arg(run)
    _add_sanitize_args(run)

    report = sub.add_parser(
        "report",
        help="run experiments with full telemetry, write a self-contained "
             "report artifact (heat map, flip provenance, mitigation audit, "
             "span tree, metrics, environment fingerprint)")
    report.add_argument("names", nargs="+", choices=invocable, metavar="name")
    report.add_argument("--seed", type=int, default=0,
                        help="seed for single-seed reports (default 0)")
    report.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="sweep each experiment over N deterministically "
                             "derived seeds instead of one --seed")
    report.add_argument("--base-seed", type=int, default=0,
                        help="root of the --seeds derivation")
    report.add_argument("--output", default="report.md",
                        help="artifact file to write (default: report.md)")
    report.add_argument("--format", choices=("markdown", "html"), default=None,
                        help="artifact format (default: by --output extension)")
    report.add_argument("--check", action="store_true",
                        help="fail unless the artifact's flip totals agree "
                             "across the heat map, the provenance table, and "
                             "dram_bit_flips_total")
    report.add_argument("--parallel", type=int, default=1, metavar="N")
    report.add_argument("--cache-dir", default=None)
    _add_sanitize_args(report)

    sweep = sub.add_parser(
        "sweep", help="run one experiment across N deterministically derived seeds"
    )
    sweep.add_argument("name", choices=invocable)
    sweep.add_argument("--seeds", type=int, default=8, metavar="N",
                       help="number of seeds to derive and run")
    sweep.add_argument("--base-seed", type=int, default=0,
                       help="root of the deterministic seed derivation")
    sweep.add_argument("--parallel", type=int, default=1, metavar="N")
    sweep.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help=f"on-disk result cache (default: {DEFAULT_CACHE_DIR})")
    sweep.add_argument("--no-cache", action="store_true", help="disable the result cache")
    sweep.add_argument("--json", action="store_true",
                       help="emit the full result records as JSON")
    sweep.add_argument("--metrics", action="store_true",
                       help="collect hardware telemetry and persist the snapshot")
    sweep.add_argument("--metrics-out", default=DEFAULT_METRICS_PATH,
                       help=f"metrics snapshot file (default: {DEFAULT_METRICS_PATH})")
    sweep.add_argument("--physics", action="store_true",
                       help="collect the physics layer (per-row heat maps, "
                            "flip provenance, mitigation audit) and persist it")
    sweep.add_argument("--physics-out", default=DEFAULT_PHYSICS_PATH,
                       help=f"physics snapshot file (default: {DEFAULT_PHYSICS_PATH})")
    sweep.add_argument("--timeout", type=float, default=None, metavar="SECS",
                       help="per-job wall-clock deadline (structured timeout "
                            "outcome instead of a hang)")
    sweep.add_argument("--live", action="store_true",
                       help="repaint a live progress view (per-job state, "
                            "worker heartbeat ages, top spans) on stderr")
    _add_serve_metrics_arg(sweep)
    _add_sanitize_args(sweep)

    replay = sub.add_parser(
        "replay",
        help="re-execute a captured failure bundle and check it reproduces",
    )
    replay.add_argument("bundle",
                        help="failure bundle JSON written by a sanitizer/"
                             "capture-armed run (see --capture-dir)")
    replay.add_argument("--json", action="store_true",
                        help="emit the replay report as JSON")
    replay.add_argument("--timeout", type=float, default=None, metavar="SECS",
                        help="per-job deadline for the replay (required to "
                             "reproduce JobTimeout bundles)")

    stats = sub.add_parser(
        "stats", help="render a metrics snapshot saved by run/sweep --metrics"
    )
    stats.add_argument("--input", default=DEFAULT_METRICS_PATH,
                       help=f"metrics snapshot file (default: {DEFAULT_METRICS_PATH})")
    stats.add_argument("--format", choices=("table", "json", "prometheus"),
                       default="table", help="output format")

    trace = sub.add_parser(
        "trace", help="run one experiment with event tracing, emit a JSONL trace"
    )
    trace.add_argument("name", choices=invocable)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--output", default="-",
                       help="JSONL destination ('-' = stdout)")
    trace.add_argument("--buffer", type=int, default=65536, metavar="N",
                       help="in-memory ring-buffer capacity (events)")
    trace.add_argument("--spill", default=None, metavar="PATH",
                       help="spill overflowing events to this JSONL file "
                            "instead of evicting the oldest")

    profile = sub.add_parser(
        "profile", help="run one experiment under the span profiler"
    )
    profile.add_argument("name", choices=invocable)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--json", action="store_true",
                         help="emit the profile snapshot as JSON")
    profile.add_argument("--folded", default=None, metavar="PATH",
                         help="also write flamegraph folded stacks "
                              "('-' = stdout instead of the tree)")

    ledger = sub.add_parser(
        "ledger", help="inspect the append-only run ledger"
    )
    ledger.add_argument("--path", default=None,
                        help="ledger file (default: $REPRO_LEDGER_PATH or "
                             "~/.cache/repro/ledger.jsonl)")
    ledger_sub = ledger.add_subparsers(dest="ledger_command", required=True)
    ledger_list = ledger_sub.add_parser("list", help="list recorded runs")
    ledger_list.add_argument("--limit", type=int, default=20, metavar="N",
                             help="show the most recent N records")
    ledger_list.add_argument("--name", default=None,
                             help="only records of this experiment")
    ledger_show = ledger_sub.add_parser("show", help="show one record")
    ledger_show.add_argument("ref", help="1-based index, negative index, or id prefix")
    ledger_diff = ledger_sub.add_parser("diff", help="compare two records")
    ledger_diff.add_argument("ref_a")
    ledger_diff.add_argument("ref_b")

    bench = sub.add_parser(
        "bench", help="run the bench-regression suite"
    )
    bench.add_argument("names", nargs="*", metavar="bench",
                       help="benches to run (default: the full suite)")
    bench.add_argument("--quick", action="store_true",
                       help="small parameterizations (CI-sized)")
    bench.add_argument("--out", default=None, metavar="PATH",
                       help="report file (default: BENCH_<timestamp>.json)")
    bench.add_argument("--input", default=None, metavar="PATH",
                       help="compare/print a saved report instead of running")
    bench.add_argument("--compare", default=None, metavar="BASELINE",
                       help="diff against a baseline report")
    bench.add_argument("--fail-on-regress", type=float, default=None,
                       metavar="PCT",
                       help="regression threshold in percent "
                            "(default 10; implies --compare must be set)")
    bench.add_argument("--warn-only", action="store_true",
                       help="report regressions but exit 0 (CI mode)")
    bench.add_argument("--json", action="store_true",
                       help="emit the report (and comparison) as JSON")
    bench.add_argument("--timeout", type=float, default=None, metavar="SECS",
                       help="per-bench wall-clock deadline (a bench past it "
                            "reports an error instead of hanging the suite)")

    chaos_cmd = sub.add_parser(
        "chaos",
        help="run the fault-injection scenario suite against the "
             "hardened runner",
    )
    chaos_cmd.add_argument("scenarios", nargs="*", metavar="scenario",
                           help="scenarios to run (default: all); "
                                "see --list")
    chaos_cmd.add_argument("--list", action="store_true",
                           help="list available scenarios and exit")
    chaos_cmd.add_argument("--jobs", type=int, default=None, metavar="N",
                           help="sweep size per scenario (defaults per "
                                "scenario; combined pins 16)")
    chaos_cmd.add_argument("--workers", type=int, default=4, metavar="N",
                           help="pool workers per scenario (default 4)")
    chaos_cmd.add_argument("--workdir", default=None, metavar="DIR",
                           help="scratch directory (kept for inspection; "
                                "default: a deleted tempdir)")
    chaos_cmd.add_argument("--keep", action="store_true",
                           help="keep the scratch tempdir for inspection")
    chaos_cmd.add_argument("--json", action="store_true",
                           help="emit scenario outcomes as JSON")

    serve = sub.add_parser(
        "serve",
        help="run the crash-tolerant experiment service daemon "
             "(journaled jobs, graceful drain, /metrics)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None, metavar="PORT",
                       help="listen port (default: 9465; 0 = ephemeral, "
                            "the bound port lands in service.json)")
    serve.add_argument("--state-dir", default=DEFAULT_STATE_DIR, metavar="DIR",
                       help="journal/ledger/cache root "
                            f"(default: {DEFAULT_STATE_DIR}); restart on the "
                            "same dir to resume interrupted work")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="width of the runner pool the daemon keeps "
                            "warm for every submission (default 2)")
    serve.add_argument("--max-queue", type=int, default=64, metavar="N",
                       help="queued-job bound before submissions shed "
                            "with 429 (default 64)")
    serve.add_argument("--timeout", type=float, default=None, metavar="SECS",
                       help="default per-job wall-clock deadline")

    submit = sub.add_parser(
        "submit", help="submit an experiment or seed sweep to a running "
                       "service")
    submit.add_argument("name", choices=invocable)
    submit.add_argument("--seed", type=int, default=0,
                        help="seed for a single-experiment job")
    submit.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="submit a sweep over N derived seeds instead")
    submit.add_argument("--base-seed", type=int, default=0,
                        help="root of the sweep's seed derivation")
    submit.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="experiment parameter (JSON value or string; "
                             "repeatable)")
    submit.add_argument("--timeout", type=float, default=None, metavar="SECS",
                        help="per-job deadline for this submission")
    submit.add_argument("--url", default=None,
                        help="service URL (default: read from the "
                             "--state-dir's service.json)")
    submit.add_argument("--state-dir", default=DEFAULT_STATE_DIR, metavar="DIR",
                        help="state dir whose daemon to target "
                             f"(default: {DEFAULT_STATE_DIR})")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job settles; exit 0 iff done")
    submit.add_argument("--wait-timeout", type=float, default=300.0,
                        metavar="SECS", help="--wait deadline (default 300)")
    submit.add_argument("--json", action="store_true",
                        help="emit the service's response as JSON")

    jobs_cmd = sub.add_parser(
        "jobs", help="list, inspect, or cancel jobs on a running service")
    jobs_cmd.add_argument("sid", nargs="?", default=None,
                          help="job ID to inspect (default: list all)")
    jobs_cmd.add_argument("--cancel", action="store_true",
                          help="cancel the given job (cooperative)")
    jobs_cmd.add_argument("--url", default=None,
                          help="service URL (default: read from the "
                               "--state-dir's service.json)")
    jobs_cmd.add_argument("--state-dir", default=DEFAULT_STATE_DIR,
                          metavar="DIR",
                          help="state dir whose daemon to target "
                               f"(default: {DEFAULT_STATE_DIR})")
    jobs_cmd.add_argument("--json", action="store_true",
                          help="emit records as JSON")

    test_module = sub.add_parser(
        "test-module",
        help="memtest-style RowHammer test of one simulated module",
    )
    test_module.add_argument("--manufacturer", choices=("A", "B", "C"), default="B")
    test_module.add_argument("--date", type=float, default=2013.0)
    test_module.add_argument("--seed", type=int, default=0)
    test_module.add_argument("--refresh-multiplier", type=float, default=1.0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        index = registry.render_index(fmt=args.format) if args.tag is None else "\n".join(
            f"{spec.name}  {spec.claim}" for spec in registry.all_specs(tag=args.tag)
        )
        print(index)
        return 0
    if args.command == "describe":
        return _describe(args.name)
    if args.command == "run":
        return _run(args)
    if args.command == "report":
        return _report(args)
    if args.command == "sweep":
        return _sweep(args)
    if args.command == "replay":
        return _replay(args)
    if args.command == "stats":
        return _stats(args)
    if args.command == "trace":
        return _trace(args)
    if args.command == "profile":
        return _profile(args)
    if args.command == "ledger":
        return _ledger(args)
    if args.command == "bench":
        return _bench(args)
    if args.command == "chaos":
        return _chaos(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "submit":
        return _submit(args)
    if args.command == "jobs":
        return _jobs(args)
    if args.command == "test-module":
        return _test_module(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def _describe(name: str) -> int:
    spec = registry.get(name)
    print(f"{spec.name}: {spec.claim}")
    meta = [f"section §{spec.section}"]
    if spec.aliases:
        meta.append("aliases: " + ", ".join(spec.aliases))
    if spec.tags:
        meta.append("tags: " + ", ".join(spec.tags))
    meta.append("seed: " + ("accepted" if spec.accepts_seed else "not taken"))
    print("  " + " · ".join(meta))
    if spec.params:
        print("  params:")
        for param in spec.params.values():
            annotation = f" ({param.annotation})" if param.annotation else ""
            desc = f" — {param.description}" if param.description else ""
            print(f"    {param.name}{annotation} = {param.default!r}{desc}")
    print()
    print(spec.doc)
    return 0


def _add_serve_metrics_arg(cmd: argparse.ArgumentParser) -> None:
    from repro.telemetry.export import DEFAULT_EXPORT_PORT

    cmd.add_argument("--serve-metrics", nargs="?", type=int, default=None,
                     const=DEFAULT_EXPORT_PORT, metavar="PORT",
                     help="serve live Prometheus /metrics on 127.0.0.1 "
                          f"while the batch runs (default port "
                          f"{DEFAULT_EXPORT_PORT}; 0 = ephemeral); arms "
                          "worker metric streaming")


def _serve_metrics(args, runner: ExperimentRunner):
    """Start the live exporter when ``--serve-metrics`` was given;
    returns the server (caller must ``stop()`` it) or ``None``.

    A busy (or otherwise unbindable) port degrades to a warning — the
    exporter is observability, not the experiment; the run proceeds
    without it.  ``--serve-metrics 0`` binds an ephemeral port; the
    resolved port is what the startup line prints.
    """
    if getattr(args, "serve_metrics", None) is None:
        return None
    from repro.telemetry.export import MetricsHTTPServer

    try:
        server = MetricsHTTPServer(runner.live_exposition,
                                   port=args.serve_metrics).start()
    except OSError as exc:
        print(f"warning: cannot serve metrics on port {args.serve_metrics} "
              f"({exc}); continuing without the live exporter",
              file=sys.stderr)
        return None
    print(f"serving metrics at {server.url}/metrics (run {runner.run_id})",
          file=sys.stderr)
    return server


def _add_sanitize_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--sanitize", choices=("off", "cheap", "full"),
                     default=None,
                     help="runtime invariant checks: cheap = O(1) "
                          "structural, full = +shadow-state scans "
                          "(default: $REPRO_SANITIZE or off)")
    cmd.add_argument("--capture-dir", default=None, metavar="DIR",
                     help="write replayable failure bundles here when a "
                          "job fails ('off' disables; default: "
                          ".repro-failures when the sanitizer is on)")


def _apply_sanitize(args) -> None:
    """Install ``--sanitize``/``--capture-dir`` through the environment,
    so forked pool workers inherit them alongside this process."""
    import os

    from repro.sanitizer import bundle as sanbundle
    from repro.sanitizer import runtime as sanit

    if getattr(args, "sanitize", None):
        os.environ[sanit.ENV_SANITIZE] = args.sanitize
        sanit.sync_from_env()
    if getattr(args, "capture_dir", None):
        os.environ[sanbundle.ENV_CAPTURE] = args.capture_dir


def _make_runner(parallel: int, cache_dir: Optional[str],
                 **options) -> ExperimentRunner:
    return ExperimentRunner(cache_dir=cache_dir, max_workers=max(1, parallel),
                            **options)


def _observed(args) -> List[str]:
    """The observers ``--metrics``/``--physics`` ask jobs to collect."""
    return [name for name in ("metrics", "physics") if getattr(args, name)]


def _write_metrics_snapshot(runner: ExperimentRunner, path: str,
                            command: str, names: List[str]) -> None:
    """Persist the runner's merged metrics so ``repro stats`` can render
    them from a separate process."""
    import repro

    record = {
        "repro_version": repro.__version__,
        "command": command,
        "names": [registry.resolve(n) for n in names],
        "metrics": runner.metrics.snapshot(),
    }
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(f"metrics: {len(runner.metrics)} series -> {path}", file=sys.stderr)


def _write_physics_snapshot(runner: ExperimentRunner, path: str,
                            command: str, names: List[str]) -> None:
    """Persist the runner's merged physics layer.  The record carries
    both the full-resolution snapshot and its bank-level aggregates as
    a metrics snapshot, so ``repro stats --input <path> --format
    prometheus`` renders the physics families unchanged."""
    import repro

    record = {
        "repro_version": repro.__version__,
        "command": command,
        "names": [registry.resolve(n) for n in names],
        "physics": runner.physics.snapshot(),
        "metrics": runner.physics.to_registry().snapshot(),
    }
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(f"physics: {runner.physics.total_flips()} flips over "
          f"{len(record['physics']['heat'])} rows -> {path}", file=sys.stderr)


def _print_batch_errors(summary: dict) -> None:
    """Surface a batch's failed jobs on stderr (never silently dropped)."""
    for job in summary["errored"]:
        seed = "-" if job["seed"] is None else job["seed"]
        print(f"error: {job['name']} (seed {seed}): {job['error']}",
              file=sys.stderr)
    print(f"{summary['errors']}/{summary['jobs']} jobs failed", file=sys.stderr)


def _run(args) -> int:
    _apply_sanitize(args)
    stream = True if args.serve_metrics is not None else None
    runner = _make_runner(args.parallel, args.cache_dir, observe=_observed(args),
                          timeout_s=args.timeout, stream=stream)
    jobs = [Job(name, {}, args.seed) for name in args.names]
    server = _serve_metrics(args, runner)
    try:
        results = runner.run(jobs)
    except KeyboardInterrupt:
        print("interrupted; completed results were flushed", file=sys.stderr)
        return 130
    finally:
        if server is not None:
            server.stop()
    for i, result in enumerate(results):
        body = result.to_json_dict() if args.record else result.payload
        if args.json:
            print(json.dumps(body, indent=2, default=repr))
        else:
            if len(results) > 1:
                if i:
                    print()
                print(f"== {result.name} ==")
            if result.error and not args.record:
                print(f"error: {result.error}")
            else:
                print("\n".join(_render_text(body)))
    if args.metrics:
        _write_metrics_snapshot(runner, args.metrics_out, "run", args.names)
    if args.physics:
        _write_physics_snapshot(runner, args.physics_out, "run", args.names)
    summary = runner.summary(results)
    if summary["errors"]:
        _print_batch_errors(summary)
        return 1
    return 0


def _format_provenance(result: ExperimentResult) -> str:
    seed = "-" if result.seed is None else result.seed
    cached = " · cache hit" if result.cache_hit else ""
    return (f"seed {seed} · {result.duration_s:.3f} s · "
            f"peak RSS {result.peak_rss_kb} KiB{cached}")


def _report_jobs(names: List[str], seed: int, seeds: Optional[int],
                 base_seed: int) -> List[Job]:
    """The report's job list: one ``--seed`` job per experiment, or a
    ``--seeds`` sweep per experiment (seedless experiments always run
    once)."""
    from repro.experiments.runner import derive_seed

    jobs: List[Job] = []
    for name in names:
        spec = registry.get(name)
        if seeds is not None and spec.accepts_seed:
            jobs.extend(Job(name, {}, derive_seed(base_seed, i))
                        for i in range(seeds))
        else:
            jobs.append(Job(name, {}, seed))
    return jobs


def _report(args) -> int:
    """Run experiments under the full telemetry suite and render one
    self-contained report artifact (see :mod:`repro.report`)."""
    from repro.report import check_report, render_report

    if args.seeds is not None and args.seeds < 1:
        print("error: a sweep needs --seeds >= 1", file=sys.stderr)
        return 2
    _apply_sanitize(args)
    fmt = args.format
    if fmt is None:
        fmt = "html" if args.output.endswith((".html", ".htm")) else "markdown"
    runner = _make_runner(args.parallel, args.cache_dir,
                          observe=("metrics", "spans", "physics"))
    jobs = _report_jobs(args.names, args.seed, args.seeds, args.base_seed)
    try:
        results = runner.run(jobs)
    except KeyboardInterrupt:
        print("interrupted; completed results were flushed", file=sys.stderr)
        return 130
    text = render_report(results, physics=runner.physics,
                         metrics=runner.metrics, profile=runner.profile,
                         fmt=fmt)
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"wrote {args.output} ({fmt}, {len(results)} job(s), "
          f"{runner.physics.total_flips()} flips)")
    summary = runner.summary(results)
    if summary["errors"]:
        _print_batch_errors(summary)
        return 1
    if args.check:
        problems = check_report(results, runner.physics, runner.metrics)
        for problem in problems:
            print(f"check: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("check: flip totals agree (heat map, provenance, "
              "dram_bit_flips_total)", file=sys.stderr)
    return 0


def _sweep(args) -> int:
    _apply_sanitize(args)
    cache_dir = None if args.no_cache else args.cache_dir
    renderer = None
    if args.live:
        from repro.telemetry.live import LiveRenderer

        renderer = LiveRenderer()
    stream = True if (args.serve_metrics is not None or args.live) else None
    runner = _make_runner(args.parallel, cache_dir,
                          observe=_observed(args) + (["spans"] if args.live else []),
                          timeout_s=args.timeout, stream=stream,
                          on_progress=renderer.update if renderer else None)
    server = _serve_metrics(args, runner)
    # SIGTERM drains exactly like Ctrl-C: the runner's interrupt path
    # flushes completed results to the cache, and we exit with
    # the conventional 143 so a supervisor can tell drain from abort.
    import signal
    import threading

    drained_by = {}

    def _sigterm_drain(signum, frame):
        drained_by["signal"] = "SIGTERM"
        raise KeyboardInterrupt

    prev_sigterm = None
    if threading.current_thread() is threading.main_thread():
        prev_sigterm = signal.signal(signal.SIGTERM, _sigterm_drain)
    try:
        results = runner.sweep(args.name, seeds=args.seeds, base_seed=args.base_seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        label = ("terminated (graceful drain)" if drained_by
                 else "interrupted")
        if cache_dir is None:
            hint = ("completed results were not kept (--no-cache); "
                    "pass --cache-dir to make a sweep resumable")
        else:
            hint = ("re-run the same command; finished jobs come from "
                    f"the cache at {cache_dir}")
        print(f"{label}; {hint}", file=sys.stderr)
        return 143 if drained_by else 130
    finally:
        if prev_sigterm is not None:
            signal.signal(signal.SIGTERM, prev_sigterm)
        if server is not None:
            server.stop()
    if renderer is not None:
        renderer.finish(runner)
    if args.metrics:
        _write_metrics_snapshot(runner, args.metrics_out, "sweep", [args.name])
    if args.physics:
        _write_physics_snapshot(runner, args.physics_out, "sweep", [args.name])
    summary = runner.summary(results)
    if args.json:
        print(json.dumps([r.to_json_dict() for r in results], indent=2, default=repr))
        if summary["errors"]:
            _print_batch_errors(summary)
            return 1
        return 0
    name = registry.resolve(args.name)
    extra = ""
    if summary["timeouts"]:
        extra += f", {summary['timeouts']} timeouts"
    if summary["pool_rebuilds"]:
        extra += f", {summary['pool_rebuilds']} pool rebuilds"
    print(f"sweep {name}: {len(results)} seeds from base {args.base_seed} "
          f"({summary['cache_hits']} cache hits, {summary['errors']} errors{extra})")
    for result in results:
        suffix = f" · ERROR {result.error}" if result.error else ""
        print(f"  {_format_provenance(result)}{suffix}")
    if cache_dir is not None:
        print(f"cache: {cache_dir}")
    if summary["errors"]:
        _print_batch_errors(summary)
        return 1
    return 0


def _serve(args) -> int:
    """Run the experiment service daemon until a drain completes.

    SIGTERM/SIGINT initiate a graceful drain: admission stops (503),
    the in-flight chunk finishes into the cache, queued jobs stay
    journaled for the next incarnation, and the process exits 0.  A
    state dir already held by another daemon exits 2.
    """
    from repro.service import ExperimentService
    from repro.service.daemon import DEFAULT_SERVICE_PORT, StateDirBusy

    port = DEFAULT_SERVICE_PORT if args.port is None else args.port
    service = ExperimentService(
        args.state_dir, host=args.host, port=port,
        workers=args.workers,
        max_queue=args.max_queue,
        timeout_s=args.timeout)
    try:
        service.start()
    except StateDirBusy as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{port}: {exc}",
              file=sys.stderr)
        return 2
    service.install_signal_handlers()
    recovered = sum(1 for rec in service.jobs.values()
                    if rec.state == "queued")
    resumed = f", {recovered} journaled job(s) re-enqueued" if recovered else ""
    print(f"repro service {service.service_id} listening on {service.url} "
          f"(state: {service.state_dir}{resumed})", file=sys.stderr)
    code = service.serve_forever()
    print(f"repro service {service.service_id} drained; exiting",
          file=sys.stderr)
    return code


def _service_client(args):
    from repro.service import ServiceClient

    if args.url:
        return ServiceClient(args.url)
    return ServiceClient.from_state_dir(args.state_dir)


def _parse_params(pairs: List[str]) -> dict:
    """``--param KEY=VALUE`` pairs; values parse as JSON, else strings."""
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--param wants KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    return params


def _submit(args) -> int:
    from repro.service import ServiceError, ServiceTimeout

    payload: dict = {"name": args.name}
    try:
        params = _parse_params(args.param)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if params:
        payload["params"] = params
    if args.seeds is not None:
        payload["seeds"] = args.seeds
        payload["base_seed"] = args.base_seed
    else:
        payload["seed"] = args.seed
    if args.timeout is not None:
        payload["timeout_s"] = args.timeout
    try:
        client = _service_client(args)
        response = client.submit(payload)
        if args.wait:
            response = client.wait(response["sid"],
                                   timeout_s=args.wait_timeout)
    except (ServiceTimeout, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
    else:
        dup = " (duplicate: already submitted)" if response.get("duplicate") \
            else ""
        print(f"job {response['sid']} [{response.get('kind')}] "
              f"{response.get('name')}: {response.get('state')}{dup}")
        summary = response.get("summary")
        if summary:
            print(f"  {summary.get('jobs', 0)} job(s), "
                  f"{summary.get('errors', 0)} error(s), "
                  f"{summary.get('cache_hits', 0)} cache hit(s), "
                  f"{summary.get('duration_s', 0.0):.3f} s")
        if response.get("error"):
            print(f"  error: {response['error']}")
    if args.wait:
        return 0 if response.get("state") == "done" else 1
    return 0


def _jobs(args) -> int:
    from repro.service import ServiceError

    try:
        client = _service_client(args)
        if args.sid is None:
            if args.cancel:
                print("error: --cancel needs a job ID", file=sys.stderr)
                return 2
            records = client.jobs()
            if args.json:
                print(json.dumps(records, indent=2, sort_keys=True))
                return 0
            if not records:
                print("(no jobs)")
                return 0
            print(f"{'sid':<14}{'kind':<12}{'name':<28}{'state':<14}progress")
            for rec in records:
                print(f"{rec['sid']:<14}{rec.get('kind', '?'):<12}"
                      f"{rec.get('name', '?'):<28}{rec.get('state'):<14}"
                      f"{rec.get('completed', 0)}/{rec.get('jobs', '?')}")
            return 0
        record = (client.cancel(args.sid) if args.cancel
                  else client.job(args.sid))
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _replay(args) -> int:
    """Re-execute a captured failure bundle; exit 0 iff it reproduces.

    Exit codes: 0 = reproduced (identical failure digest), 3 = did not
    reproduce (clean rerun or a different failure), 2 = the file is not
    a readable bundle.
    """
    from repro.sanitizer.bundle import BundleError, load_bundle, replay_bundle

    try:
        bundle = load_bundle(args.bundle)
    except BundleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = replay_bundle(bundle, timeout_s=args.timeout)
    if args.json:
        body = report.to_json_dict()
        body["bundle"] = args.bundle
        body["name"] = bundle["name"]
        body["seed"] = bundle.get("seed")
        print(json.dumps(body, indent=2, sort_keys=True))
    else:
        seed = "-" if bundle.get("seed") is None else bundle["seed"]
        print(f"replay {bundle['name']} (seed {seed}) from {args.bundle}")
        print(f"  captured: {bundle.get('error')}")
        print(f"  replayed: {report.result.error or 'ok (no failure)'}")
        verdict = "reproduced" if report.reproduced else "did NOT reproduce"
        print(f"  digest: expected {report.expected_digest}, "
              f"got {report.digest} -> {verdict}")
    return 0 if report.reproduced else 3


def _stats(args) -> int:
    """Render a metrics snapshot saved by ``run``/``sweep --metrics``."""
    try:
        with open(args.input) as handle:
            record = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read metrics snapshot {args.input!r}: {exc}\n"
              f"hint: produce one with `repro run <experiment> --metrics`",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {args.input!r} is not a metrics snapshot: {exc}", file=sys.stderr)
        return 2
    snapshot = record.get("metrics", record)  # accept bare snapshots too
    reg = MetricsRegistry.from_snapshot(snapshot)
    if args.format == "json":
        print(json.dumps(record, indent=2, sort_keys=True))
    elif args.format == "prometheus":
        sys.stdout.write(reg.render_prometheus())
    else:
        names = record.get("names")
        if names:
            print(f"# {record.get('command', 'run')}: {', '.join(names)} "
                  f"(repro {record.get('repro_version', '?')})")
        print(reg.render_table())
    return 0


def _trace(args) -> int:
    """Run one experiment with event tracing on; emit the JSONL trace."""
    try:
        recorder = TraceRecorder(capacity=args.buffer, spill_path=args.spill)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with telem.observing(trace=recorder):
        execute_job(args.name, seed=args.seed)
    kinds_by_count = recorder.counts_by_kind()
    if args.spill is not None:
        recorder.flush()
        written = recorder.spilled
        destination = args.spill
    elif args.output == "-":
        written = recorder.write_jsonl(sys.stdout)
        destination = "stdout"
    else:
        written = recorder.dump_jsonl(args.output)
        destination = args.output
    kinds = ", ".join(f"{kind}={count}" for kind, count
                      in kinds_by_count.items()) or "none"
    print(f"trace {registry.resolve(args.name)}: {recorder.emitted} events "
          f"({kinds}); {recorder.dropped} dropped; wrote {written} -> {destination}",
          file=sys.stderr)
    return 0


def _profile(args) -> int:
    """Run one experiment under the span profiler; render the tree."""
    from repro.telemetry import SpanProfile

    result = execute_job(args.name, seed=args.seed, observe=("spans",))
    profile = SpanProfile.from_snapshot(result.profile or {})
    if args.json:
        print(json.dumps({
            "name": result.name,
            "seed": result.seed,
            "duration_s": result.duration_s,
            "coverage_s": profile.total_s(),
            "profile": result.profile,
        }, indent=2, sort_keys=True))
        return 0
    if args.folded is not None:
        folded = profile.render_folded()
        if args.folded == "-":
            sys.stdout.write(folded)
        else:
            with open(args.folded, "w") as handle:
                handle.write(folded)
            print(f"wrote folded stacks -> {args.folded}", file=sys.stderr)
            print(profile.render_tree())
        return 0
    coverage = profile.total_s()
    pct = 100.0 * coverage / result.duration_s if result.duration_s > 0 else 0.0
    print(f"# {result.name} · seed {result.seed} · {result.duration_s:.3f} s "
          f"wall · spans cover {coverage:.3f} s ({pct:.1f}%)")
    print(profile.render_tree())
    return 0


def _open_ledger(args):
    from repro.telemetry import ledger as ledger_mod

    if args.path is not None:
        return ledger_mod.RunLedger(args.path)
    return ledger_mod.RunLedger(ledger_mod.ledger_path())


def _warn_corrupt_lines(book) -> None:
    if book.corrupt_lines:
        print(f"warning: skipped {book.corrupt_lines} corrupt ledger "
              f"line(s) in {book.path}", file=sys.stderr)


def _ledger(args) -> int:
    """Inspect the append-only run ledger."""
    book = _open_ledger(args)
    if args.ledger_command == "list":
        records = book.records()
        _warn_corrupt_lines(book)
        if args.name is not None:
            records = [r for r in records if r.get("name") == args.name]
        if not records:
            print(f"(ledger {book.path} is empty)")
            return 0
        total = len(records)
        start = max(0, total - args.limit)
        print(f"# {book.path} · {total} records (showing {total - start})")
        for offset, record in enumerate(records[start:], start=start + 1):
            status = "ok" if record.get("ok", True) else "ERR"
            cached = " cache" if record.get("cache_hit") else ""
            seed = record.get("seed")
            seed_s = "-" if seed is None else seed
            print(f"{offset:>4}  {record.get('id', '?'):<12}  "
                  f"{record.get('time', '?'):<24}  {status:<3} "
                  f"{record.get('name', '?')}  seed {seed_s}  "
                  f"{record.get('duration_s', 0.0):.3f} s{cached}")
        return 0
    if args.ledger_command == "show":
        record = book.find(args.ref)
        _warn_corrupt_lines(book)
        if record is None:
            print(f"error: no ledger record matching {args.ref!r} in {book.path}",
                  file=sys.stderr)
            return 2
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    if args.ledger_command == "diff":
        records = book.records()
        _warn_corrupt_lines(book)
        rid_a, runs_a = _run_records(records, args.ref_a)
        rid_b, runs_b = _run_records(records, args.ref_b)
        if rid_a and rid_b:
            return _ledger_run_diff(rid_a, runs_a, rid_b, runs_b)
        rec_a = book.find(args.ref_a)
        rec_b = book.find(args.ref_b)
        for ref, rec in ((args.ref_a, rec_a), (args.ref_b, rec_b)):
            if rec is None:
                print(f"error: no ledger record matching {ref!r} in {book.path}",
                      file=sys.stderr)
                return 2
        return _ledger_diff(rec_a, rec_b)
    raise AssertionError(args.ledger_command)  # pragma: no cover


def _run_records(records: List[dict], ref: str):
    """Resolve a ref as a run: ``(run_id, its records)`` when the ref
    prefix-matches exactly one recorded ``run_id``, else ``(None, [])``."""
    run_ids = sorted({str(r.get("run_id")) for r in records if r.get("run_id")})
    matches = [rid for rid in run_ids if rid.startswith(ref)]
    if len(matches) != 1:
        return None, []
    rid = matches[0]
    return rid, [r for r in records if r.get("run_id") == rid]


def _ledger_run_diff(rid_a: str, recs_a: List[dict],
                     rid_b: str, recs_b: List[dict]) -> int:
    """Join two runs' records on ``job_id`` and diff each pair.

    The ``job_id`` is derived from (name, params, seed), so the join
    pairs *the same job* across the runs regardless of completion
    order — no positional matching.  Last record wins per job (a
    re-run job's final ledger line is the one that counts).
    """
    by_a = {r["job_id"]: r for r in recs_a if r.get("job_id")}
    by_b = {r["job_id"]: r for r in recs_b if r.get("job_id")}
    print(f"a: run {rid_a} · {len(recs_a)} records")
    print(f"b: run {rid_b} · {len(recs_b)} records")
    shared = sorted(set(by_a) & set(by_b))
    differing = 0
    for jid in shared:
        ra, rb = by_a[jid], by_b[jid]
        same = (ra.get("payload_digest") == rb.get("payload_digest")
                and ra.get("ok") == rb.get("ok"))
        if not same:
            differing += 1
        da, db = ra.get("duration_s", 0.0), rb.get("duration_s", 0.0)
        delta = f" ({100.0 * (db - da) / da:+.1f}%)" if da else ""
        seed = ra.get("seed")
        verdict = "identical" if same else "DIFFERENT"
        print(f"{'  ' if same else '! '}{jid}  {ra.get('name')}  "
              f"seed {'-' if seed is None else seed}  payload {verdict}  "
              f"{da:.3f}s -> {db:.3f}s{delta}")
    for jid in sorted(set(by_a) - set(by_b)):
        print(f"! {jid}  only in a  ({by_a[jid].get('name')} "
              f"seed {by_a[jid].get('seed')})")
    for jid in sorted(set(by_b) - set(by_a)):
        print(f"! {jid}  only in b  ({by_b[jid].get('name')} "
              f"seed {by_b[jid].get('seed')})")
    print(f"{len(shared)} job(s) joined on job_id, "
          f"{differing} differing")
    return 0


def _ledger_diff(rec_a: dict, rec_b: dict) -> int:
    """Print a field-by-field comparison of two ledger records."""
    for side, rec in (("a", rec_a), ("b", rec_b)):
        run = rec.get("run_id") or "-"
        job = rec.get("job_id") or "-"
        print(f"{side}: {rec.get('id')}  {rec.get('time')}  {rec.get('name')}  "
              f"run {run}  job {job}")
    for key in ("job_id", "name", "seed", "params", "git_sha",
                "repro_version", "ok"):
        va, vb = rec_a.get(key), rec_b.get(key)
        marker = "  " if va == vb else "! "
        print(f"{marker}{key}: {va!r} -> {vb!r}")
    da, db = rec_a.get("duration_s", 0.0), rec_b.get("duration_s", 0.0)
    delta = f" ({100.0 * (db - da) / da:+.1f}%)" if da else ""
    print(f"  duration_s: {da:.3f} -> {db:.3f}{delta}")
    same_payload = rec_a.get("payload_digest") == rec_b.get("payload_digest")
    print(f"{'  ' if same_payload else '! '}payload: "
          f"{'identical' if same_payload else 'DIFFERENT'} "
          f"({rec_a.get('payload_digest')} vs {rec_b.get('payload_digest')})")
    totals_a = rec_a.get("metrics_totals") or {}
    totals_b = rec_b.get("metrics_totals") or {}
    moved = {k for k in set(totals_a) | set(totals_b)
             if totals_a.get(k, 0) != totals_b.get(k, 0)}
    if moved:
        print("! metrics moved:")
        for key in sorted(moved):
            print(f"!   {key}: {totals_a.get(key, 0):g} -> {totals_b.get(key, 0):g}")
    elif totals_a or totals_b:
        print("  metrics totals: identical")
    return 0


def _bench(args) -> int:
    """Run (or load) the bench suite; optionally gate on a baseline."""
    from repro import bench as bench_mod

    threshold = args.fail_on_regress
    if threshold is not None and args.compare is None:
        print("error: --fail-on-regress requires --compare", file=sys.stderr)
        return 2
    if args.input is not None:
        try:
            report = bench_mod.load_report(args.input)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            report = bench_mod.run_suite(args.names or None, quick=args.quick,
                                         timeout_s=args.timeout)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        out = bench_mod.write_report(report, args.out)
        print(f"wrote {out}", file=sys.stderr)

    comparison = None
    if args.compare is not None:
        try:
            baseline = bench_mod.load_report(args.compare)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        comparison = bench_mod.compare_reports(
            report, baseline,
            threshold_pct=threshold if threshold is not None
            else bench_mod.DEFAULT_REGRESS_PCT,
        )
        for mismatch in comparison.get("fingerprint_mismatches", ()):
            print(f"warning: environment fingerprint mismatch on "
                  f"{mismatch['field']!r}: baseline {mismatch['baseline']!r} "
                  f"vs current {mismatch['current']!r} — wall-time deltas "
                  f"compare environments, not code", file=sys.stderr)

    if args.json:
        body = {"report": report}
        if comparison is not None:
            body["comparison"] = comparison
        print(json.dumps(body, indent=2, sort_keys=True))
    else:
        print(f"{'bench':<22}  {'wall':>10}  {'throughput':>16}")
        for bench in report["benches"]:
            if bench.get("error"):
                print(f"{bench['name']:<22}  {bench['wall_s']:>9.3f}s  "
                      f"{'TIMED OUT':>16}")
                continue
            tput = (f"{bench['throughput']:,.0f} {bench['unit']}/s"
                    if bench.get("throughput") else "-")
            print(f"{bench['name']:<22}  {bench['wall_s']:>9.3f}s  {tput:>16}")
        if comparison is not None:
            print(f"\nvs baseline (threshold {comparison['threshold_pct']:g}%):")
            for row in comparison["rows"]:
                if row["note"]:
                    print(f"  {row['name']:<22}  ({row['note']})")
                    continue
                flag = "  REGRESSED" if row["regressed"] else ""
                print(f"  {row['name']:<22}  {row['base_wall_s']:.3f}s -> "
                      f"{row['wall_s']:.3f}s  ({row['delta_pct']:+.1f}%){flag}")

    timed_out = [b["name"] for b in report["benches"] if b.get("error")]
    if timed_out:
        print(f"timed out: {', '.join(timed_out)}", file=sys.stderr)
        return 0 if args.warn_only else 1
    if comparison is not None and not comparison["ok"]:
        names = ", ".join(comparison["regressions"])
        print(f"regression: {names}", file=sys.stderr)
        return 0 if args.warn_only else 1
    return 0


def _chaos(args) -> int:
    """Run the fault-injection scenario suite; exit 1 on any failed check."""
    from pathlib import Path

    from repro.chaos import harness

    if args.list:
        for name, (fn, default_jobs) in harness.SCENARIOS.items():
            doc = (fn.__doc__ or "").strip().split("\n")[0]
            print(f"{name:<10} ({default_jobs} jobs)  {doc}")
        return 0
    try:
        outcomes = harness.run_suite(
            args.scenarios or None,
            workdir=Path(args.workdir) if args.workdir else None,
            jobs=args.jobs,
            workers=max(2, args.workers),
            keep=args.keep,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([
            {"name": o.name, "passed": o.passed,
             "checks": [{"label": c.label, "ok": c.ok, "observed": c.observed}
                        for c in o.checks]}
            for o in outcomes
        ], indent=2))
    else:
        for outcome in outcomes:
            status = "PASS" if outcome.passed else "FAIL"
            print(f"{status}  {outcome.name} "
                  f"({sum(c.ok for c in outcome.checks)}/{len(outcome.checks)} checks)")
            for check in outcome.checks:
                if not check.ok:
                    print(f"      FAIL {check.label}: {check.observed}")
    failed = [o.name for o in outcomes if not o.passed]
    if failed:
        print(f"chaos: recovery FAILED in {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"chaos: {len(outcomes)} scenario(s) recovered clean", file=sys.stderr)
    return 0


def _test_module(args) -> int:
    """memtest-style RowHammer test of one simulated module (§II's [80])."""
    from repro.dram.module import DramModule
    from repro.dram.timing import DDR3_1066
    from repro.fieldstudy.campaign import whole_module_errors

    module = DramModule.from_vintage(
        args.manufacturer, args.date, serial="cli-dut", seed=args.seed, timing=DDR3_1066
    )
    try:
        result = whole_module_errors(module, refresh_multiplier=args.refresh_multiplier)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"module: manufacturer {args.manufacturer}, date {args.date}, "
          f"refresh x{args.refresh_multiplier:g}")
    print(f"activation budget per victim: {result.budget}")
    print(f"errors: {result.errors} ({result.errors_per_billion:.3g} per 10^9 cells)")
    print("VULNERABLE to RowHammer" if result.vulnerable else "no RowHammer errors observed")
    return 1 if result.vulnerable else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
