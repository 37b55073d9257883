"""Telemetry: counters, histograms, and event tracing for the simulators.

The paper's claims are statements about *rates and distributions* —
activations per refresh window, flips per vintage, errors vs. P/E
cycles — so the simulators carry a first-class observability layer:

* :mod:`repro.telemetry.metrics` — :class:`Counter`, :class:`Gauge`,
  and fixed-bucket :class:`Histogram` series in a process-local
  :class:`MetricsRegistry`, snapshot/merge-able across pool workers;
* :mod:`repro.telemetry.trace` — a bounded :class:`TraceRecorder`
  ring buffer of typed :class:`TraceEvent` records with JSONL spill;
* :mod:`repro.telemetry.runtime` — the process-global sinks and the
  ``metrics_on`` / ``trace_on`` hot-path guards instrument sites read.

Everything is **off by default**; a disabled instrument site costs one
module-attribute read.  Enable via the CLI (``repro run --metrics``,
``repro trace``) or programmatically::

    from repro import telemetry

    telemetry.enable_metrics(fresh=True)
    ...  # run simulator code
    print(telemetry.get_registry().render_table())

To observe one block with private sinks, :func:`observing` installs
them (guards on, optional trace ``context``) and restores everything
on exit; the runner runs each in-process job in one such scope.  A
job's run ID is an argument, never ambient state: the runner hands
its ``run_id`` to every job it executes, in-process or in a pool
worker (:mod:`repro.telemetry.ids`).
"""

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.events import EventStream, SweepProgress
from repro.telemetry.ids import environment_fingerprint, job_id_from_key, new_run_id
from repro.telemetry.ledger import RunLedger, build_record, default_ledger
from repro.telemetry.physics import (
    AuditEvent,
    PhysicsCollector,
    disable_physics,
    enable_physics,
    get_collector,
)
from repro.telemetry.runtime import (
    counter,
    disable_all,
    disable_metrics,
    disable_profiling,
    disable_tracing,
    enable_metrics,
    enable_profiling,
    enable_tracing,
    gauge,
    get_profiler,
    get_registry,
    get_tracer,
    histogram,
    observing,
    profiled,
    span,
    trace,
)
from repro.telemetry.spans import SpanProfile, SpanProfiler
from repro.telemetry.trace import TraceEvent, TraceRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "TraceEvent",
    "TraceRecorder",
    "SpanProfile",
    "SpanProfiler",
    "AuditEvent",
    "PhysicsCollector",
    "enable_physics",
    "disable_physics",
    "get_collector",
    "RunLedger",
    "build_record",
    "default_ledger",
    "EventStream",
    "SweepProgress",
    "new_run_id",
    "job_id_from_key",
    "environment_fingerprint",
    "enable_metrics",
    "disable_metrics",
    "enable_tracing",
    "disable_tracing",
    "enable_profiling",
    "disable_profiling",
    "disable_all",
    "observing",
    "get_registry",
    "get_tracer",
    "get_profiler",
    "counter",
    "gauge",
    "histogram",
    "trace",
    "span",
    "profiled",
]
