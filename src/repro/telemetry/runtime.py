"""Process-global telemetry state and the hot-path guard flags.

Instrumented simulator code imports this module once and guards every
metric/trace touch on the two module globals::

    from repro.telemetry import runtime as telem

    if telem.metrics_on:
        telem.counter("dram_activations_total", bank=self.index).inc()
    if telem.trace_on:
        telem.trace("activate", t=time, bank=self.index, row=row)

When telemetry is disabled (the default) each site costs exactly one
module-attribute read and a falsy branch — the "near-zero when off"
contract the overhead benchmark enforces.

This module is a leaf: it imports nothing from the rest of ``repro``,
so any simulator layer can depend on it without cycles.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Optional, Sequence

from repro.telemetry import physics as _physics
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.spans import SpanProfiler, span_name
from repro.telemetry.trace import TraceRecorder

__all__ = [
    "metrics_on",
    "trace_on",
    "spans_on",
    "enable_metrics",
    "disable_metrics",
    "enable_tracing",
    "disable_tracing",
    "enable_profiling",
    "disable_profiling",
    "disable_all",
    "observing",
    "job_lock",
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

#: Hot-path guards. Read directly (``telem.metrics_on``) by instrument
#: sites; mutate only through the enable/disable helpers and
#: :func:`observing` below.
metrics_on: bool = False
trace_on: bool = False
spans_on: bool = False

_registry = MetricsRegistry()
_tracer = TraceRecorder()
_profiler = SpanProfiler()

#: Distinguishes "argument not passed" from an explicit ``None``.
_UNSET: Any = object()


# ----------------------------------------------------------------------
# Switches
# ----------------------------------------------------------------------
def enable_metrics(fresh: bool = False) -> MetricsRegistry:
    """Turn metric collection on; optionally start from an empty registry."""
    global metrics_on, _registry
    if fresh:
        _registry = MetricsRegistry()
    metrics_on = True
    return _registry


def disable_metrics() -> None:
    global metrics_on
    metrics_on = False


def enable_tracing(capacity: Optional[int] = None,
                   spill_path: Any = _UNSET,
                   fresh: bool = False) -> TraceRecorder:
    """Turn event tracing on, optionally rebuilding the recorder.

    The recorder is rebuilt (with an empty buffer) when ``fresh`` is
    set or when any field is passed; fields *not* passed carry over
    from the current recorder, so re-enabling with only ``spill_path``
    keeps the configured capacity.  Pass ``spill_path=None`` explicitly
    to drop an existing spill destination.
    """
    global trace_on, _tracer
    if capacity is not None and capacity < 1:
        raise ValueError(f"trace capacity must be >= 1, got {capacity}")
    if fresh or capacity is not None or spill_path is not _UNSET:
        _tracer = TraceRecorder(
            capacity=capacity if capacity is not None else _tracer.capacity,
            spill_path=spill_path if spill_path is not _UNSET else _tracer.spill_path,
        )
    trace_on = True
    return _tracer


def disable_tracing() -> None:
    global trace_on
    trace_on = False


def enable_profiling(fresh: bool = False) -> SpanProfiler:
    """Turn span profiling on; optionally start from an empty profiler."""
    global spans_on, _profiler
    if fresh:
        _profiler = SpanProfiler()
    spans_on = True
    return _profiler


def disable_profiling() -> None:
    global spans_on
    spans_on = False


def disable_all() -> None:
    disable_metrics()
    disable_tracing()
    disable_profiling()
    _physics.disable_physics()


# ----------------------------------------------------------------------
# Current sinks
# ----------------------------------------------------------------------
def get_registry() -> MetricsRegistry:
    return _registry


def get_tracer() -> TraceRecorder:
    return _tracer


def get_profiler() -> SpanProfiler:
    return _profiler


@contextmanager
def observing(metrics: Optional[MetricsRegistry] = None,
              trace: Optional[TraceRecorder] = None,
              spans: Optional[SpanProfiler] = None,
              physics: Optional[_physics.PhysicsCollector] = None,
              context: Optional[Mapping[str, Any]] = None) -> Iterator[None]:
    """Observe a block with the given sinks; restore everything on exit.

    Each sink passed is installed as the process sink with its guard
    turned on; ``context`` is merged into the active tracer's context
    (explicit event fields still win).  On exit every sink, guard and
    the tracer context return to what they were, so scopes nest.  The
    runner wraps each in-process job in one scope (under
    :data:`job_lock`), whose sinks' snapshots then ride in the result.
    """
    global _registry, _tracer, _profiler, metrics_on, trace_on, spans_on
    saved = (_registry, _tracer, _profiler, metrics_on, trace_on, spans_on,
             _physics._collector, _physics.physics_on)
    if metrics is not None:
        _registry, metrics_on = metrics, True
    if trace is not None:
        _tracer, trace_on = trace, True
    if spans is not None:
        _profiler, spans_on = spans, True
    if physics is not None:
        _physics._collector, _physics.physics_on = physics, True
    tracer = _tracer
    prev_context = tracer.context
    if context:
        tracer.context = {**prev_context, **context}
    try:
        yield
    finally:
        tracer.context = prev_context
        (_registry, _tracer, _profiler, metrics_on, trace_on, spans_on,
         _physics._collector, _physics.physics_on) = saved


#: Held by the runner around each in-process job: the sinks above are
#: process-global, so jobs on different threads take turns.
job_lock = threading.RLock()


def _reset_job_lock() -> None:
    # A child forked while another thread held the lock would inherit
    # it held by a thread that does not exist there.
    global job_lock
    job_lock = threading.RLock()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_reset_job_lock)


# ----------------------------------------------------------------------
# Recording helpers (call only behind the guards)
# ----------------------------------------------------------------------
def counter(name: str, **labels: Any) -> Counter:
    return _registry.counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge:
    return _registry.gauge(name, **labels)


def histogram(name: str, edges: Optional[Sequence[float]] = None,
              **labels: Any) -> Histogram:
    return _registry.histogram(name, edges=edges, **labels)


def trace(kind: str, t: Optional[float] = None, **fields: Any) -> None:
    _tracer.emit(kind, t, **fields)


# ----------------------------------------------------------------------
# Span profiling (see repro.telemetry.spans)
# ----------------------------------------------------------------------
class _Span:
    """One open span; created per ``with`` entry, never shared."""

    __slots__ = ("name", "_profiler")

    def __init__(self, name: str):
        self.name = name
        self._profiler: Optional[SpanProfiler] = None

    def __enter__(self) -> "_Span":
        if spans_on:
            # Pin the sink so a profiler swap mid-span cannot unbalance
            # the new profiler's stack.
            self._profiler = _profiler
            self._profiler.push(self.name)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._profiler is not None:
            self._profiler.pop()
            self._profiler = None


class _NullSpan:
    """Shared no-op context manager returned while profiling is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


def span(_name: str, **labels: Any):
    """Open a profiling span: ``with telem.span("ecc.evaluate", code=c):``.

    Near-zero when profiling is off: one flag check, then a shared
    no-op context manager (no allocation, no clock reads).  The span
    name is positional-only in spirit (``_name``) so any label key —
    including ``name`` — stays usable.
    """
    if not spans_on:
        return _NULL_SPAN
    return _Span(span_name(_name, labels))


def profiled(_name: str, **labels: Any):
    """Decorator form of :func:`span` for whole-function phases::

        @telem.profiled("retention.profile")
        def profile_population(...): ...

    The flag is checked per call, so decorated functions stay on the
    undecorated fast path while profiling is off.
    """
    import functools

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if not spans_on:
                return fn(*args, **kwargs)
            with _Span(span_name(_name, labels)):
                return fn(*args, **kwargs)
        return wrapper

    return decorate
