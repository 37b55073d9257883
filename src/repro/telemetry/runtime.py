"""Process-global observer state: one table of every observer, and the
hot-path guard flags instrument sites read.

Five observers watch the simulators.  Each has a sink (or a setting)
and a guard that instrument sites read as one module attribute:

* ``metrics`` — ``telem.metrics_on`` guards a :class:`MetricsRegistry`;
* ``trace`` — ``telem.trace_on`` guards a :class:`TraceRecorder`;
* ``spans`` — ``telem.spans_on`` guards a :class:`SpanProfiler`;
* ``physics`` — ``phys.physics_on`` guards a
  :class:`~repro.telemetry.physics.PhysicsCollector`;
* ``sanitize`` — the sanitizer level, behind ``sanit.sanitize_on`` and
  ``sanit.full_on``.

:data:`OBSERVERS` holds one entry per observer, and every switch goes
through it: the ``enable_*``/``disable_*`` helpers, :func:`disable_all`
(the four sinks; never the sanitizer level) and :func:`observing`,
which saves and restores every entry.  The runner collects per-job
sinks through the same entries.

Instrumented simulator code imports this module once and guards every
metric/trace touch on the module globals::

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
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Sequence, Union

from repro.telemetry import physics as _physics
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.spans import SpanProfile, SpanProfiler, span_name
from repro.telemetry.trace import TraceRecorder

__all__ = [
    "metrics_on",
    "trace_on",
    "spans_on",
    "OBSERVERS",
    "SinkObserver",
    "SettingObserver",
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
#: sites; mutate only through the switches below.
metrics_on: bool = False
trace_on: bool = False
spans_on: bool = False

_registry = MetricsRegistry()
_tracer = TraceRecorder()
_profiler = SpanProfiler()

#: Distinguishes "argument not passed" from an explicit ``None``.
_UNSET: Any = object()


# ----------------------------------------------------------------------
# The observer table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SinkObserver:
    """A sink and its hot-path guard, both plain attributes of ``module``.

    ``install(sink)`` makes ``sink`` current with the guard on;
    ``save()``/``restore()`` round-trip the (sink, guard) pair.  A job
    collects the observer when ``field`` is set: it runs against a
    fresh ``new()`` sink whose snapshot rides in that
    :class:`~repro.experiments.result.ExperimentResult` field, and the
    runner merges those snapshots into one ``merged()`` aggregate.
    """

    name: str
    module: Any
    guard: str
    sink: str
    new: Callable[[], Any]
    field: Optional[str] = None
    merged: Optional[Callable[[], Any]] = None

    def save(self) -> Any:
        return getattr(self.module, self.sink), getattr(self.module, self.guard)

    def restore(self, state: Any) -> None:
        setattr(self.module, self.sink, state[0])
        setattr(self.module, self.guard, state[1])

    def install(self, sink: Any) -> None:
        self.restore((sink, True))

    def enable(self, fresh: bool = False) -> Any:
        """Turn the guard on; optionally start from a fresh sink."""
        if fresh:
            setattr(self.module, self.sink, self.new())
        setattr(self.module, self.guard, True)
        return getattr(self.module, self.sink)

    def disable(self) -> None:
        setattr(self.module, self.guard, False)


@dataclass(frozen=True)
class SettingObserver:
    """An observer that is one setting (the sanitizer level): ``save``
    reads it, ``install`` sets it.  Jobs never collect it."""

    name: str
    save: Callable[[], Any]
    install: Callable[[Any], Any]

    def restore(self, state: Any) -> None:
        self.install(state)


Observer = Union[SinkObserver, SettingObserver]

_this = sys.modules[__name__]

#: Every observer, by name.  The sanitizer adds its ``sanitize`` entry
#: when :mod:`repro.sanitizer.runtime` is imported.
OBSERVERS: Dict[str, Observer] = {
    obs.name: obs for obs in (
        SinkObserver("metrics", _this, "metrics_on", "_registry",
                     MetricsRegistry, field="metrics", merged=MetricsRegistry),
        SinkObserver("trace", _this, "trace_on", "_tracer", TraceRecorder),
        SinkObserver("spans", _this, "spans_on", "_profiler",
                     SpanProfiler, field="profile", merged=SpanProfile),
        SinkObserver("physics", _physics, "physics_on", "_collector",
                     _physics.PhysicsCollector, field="physics",
                     merged=_physics.PhysicsCollector),
    )
}


# ----------------------------------------------------------------------
# Switches
# ----------------------------------------------------------------------
def enable_metrics(fresh: bool = False) -> MetricsRegistry:
    """Turn metric collection on; optionally start from an empty registry."""
    return OBSERVERS["metrics"].enable(fresh)


def disable_metrics() -> None:
    OBSERVERS["metrics"].disable()


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
    if fresh or capacity is not None or spill_path is not _UNSET:
        OBSERVERS["trace"].install(TraceRecorder(
            capacity=capacity if capacity is not None else _tracer.capacity,
            spill_path=spill_path if spill_path is not _UNSET else _tracer.spill_path,
        ))
    return OBSERVERS["trace"].enable()


def disable_tracing() -> None:
    OBSERVERS["trace"].disable()


def enable_profiling(fresh: bool = False) -> SpanProfiler:
    """Turn span profiling on; optionally start from an empty profiler."""
    return OBSERVERS["spans"].enable(fresh)


def disable_profiling() -> None:
    OBSERVERS["spans"].disable()


def disable_all() -> None:
    """Turn every sink's guard off; the sanitizer level is left alone."""
    for obs in OBSERVERS.values():
        if isinstance(obs, SinkObserver):
            obs.disable()


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
def observing(*, context: Optional[Mapping[str, Any]] = None,
              **installs: Any) -> Iterator[None]:
    """Observe a block; restore every observer on exit.

    Each keyword names a :data:`OBSERVERS` entry: a sink passed for
    ``metrics``, ``trace``, ``spans`` or ``physics`` becomes the
    process sink with its guard on, and ``sanitize`` installs a
    sanitizer level (``None`` leaves an observer as it is).
    ``context`` is merged into the active tracer's context (explicit
    event fields still win).  On exit every entry of the table, and the
    tracer context, returns to what it was, whatever the block
    switched, so scopes nest.  The runner wraps each in-process job in
    one scope (under :data:`job_lock`), whose sinks' snapshots then
    ride in the result.
    """
    unknown = sorted(installs.keys() - OBSERVERS.keys())
    if unknown:
        raise TypeError(f"observing() got unknown observers: {', '.join(unknown)}")
    saved = [(obs, obs.save()) for obs in OBSERVERS.values()]
    try:
        for name, value in installs.items():
            if value is not None:
                OBSERVERS[name].install(value)
        tracer = _tracer
        prev_context = tracer.context
        if context:
            tracer.context = {**prev_context, **context}
        try:
            yield
        finally:
            tracer.context = prev_context
    finally:
        for obs, state in saved:
            obs.restore(state)


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
