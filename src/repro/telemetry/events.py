"""Live worker→parent event streaming for pool sweeps.

Post-hoc telemetry (snapshots riding inside ``ExperimentResult``) makes
a long sweep a black box until it ends.  This module adds the live
half: pool workers send **heartbeat events**, each carrying the job
registry's full :meth:`~repro.telemetry.MetricsRegistry.snapshot`,
over a ``multiprocessing`` queue.  The parent's :class:`EventStream`
keeps the latest snapshot per in-flight job (so a registry reset or
swap mid-job needs no special case), maintains a
:class:`SweepProgress` view, and flags workers whose heartbeat goes
stale *before* their timeout deadline fires.  A finished job's
metrics arrive in its result, so ``job_end`` carries none.

Streaming is armed exactly when :func:`sink` is not ``None``; with it
off, the only cost is :func:`job_registry` handing out a plain
:class:`~repro.telemetry.MetricsRegistry`.

Heartbeats deliberately piggyback on *metric activity* (the
:class:`StreamingRegistry` accessors rate-limit-flush on every
instrument touch) rather than on a side thread: a wedged or sleeping
job touches no instruments, so its heartbeat stops — which is exactly
the signal a liveness thread would mask.  The flip side: a healthy job
in a phase that touches no instrument also goes silent, and is flagged.

Staleness is judged with **parent-side receive timestamps**
(``time.monotonic()`` in the parent); monotonic clocks are not
comparable across processes.
"""

from __future__ import annotations

import os
import queue as queue_mod
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry import runtime as telem
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "DEFAULT_HEARTBEAT_S",
    "WorkerStream",
    "StreamingRegistry",
    "SweepProgress",
    "EventStream",
    "job_registry",
    "worker_init",
    "arm_local",
    "disarm",
    "sink",
]

_sink: Optional["WorkerStream"] = None

#: Default minimum interval between heartbeats.
DEFAULT_HEARTBEAT_S = 0.5
#: Floor of the default stale-heartbeat threshold.
MIN_STALE_AFTER_S = 1.5

#: Job states tracked by :class:`SweepProgress`.
JOB_STATES = ("pending", "running", "ok", "errored", "timeout", "cached")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class WorkerStream:
    """Worker-side half: pushes small dict events through ``put``
    (best-effort — a dead queue must never kill the job).
    """

    def __init__(self, put: Callable[[Dict[str, Any]], None],
                 interval_s: float = DEFAULT_HEARTBEAT_S):
        self._put = put
        self.interval_s = interval_s
        self.pid = os.getpid()
        self.job_id: Optional[str] = None
        self.run_id: Optional[str] = None
        self._last_flush = 0.0

    # -- job lifecycle -------------------------------------------------
    def on_job_start(self, job_id: str, name: str, seed: int,
                     run_id: Optional[str] = None) -> None:
        self.job_id = job_id
        self.run_id = run_id
        self._last_flush = time.monotonic()
        self._send({"kind": "job_start", "name": name, "seed": seed})

    def on_job_end(self, job_id: str, outcome: str,
                   duration_s: Optional[float] = None) -> None:
        self.job_id = job_id
        self._send({"kind": "job_end", "outcome": outcome,
                    "duration_s": duration_s})
        self.job_id = None
        self.run_id = None

    def tick(self, force: bool = False) -> None:
        """Rate-limited flush; instrument sites call this constantly."""
        now = time.monotonic()
        if not force and now - self._last_flush < self.interval_s:
            return
        self._last_flush = now
        self._flush()

    # -- internals -----------------------------------------------------
    def _flush(self) -> None:
        event: Dict[str, Any] = {"kind": "heartbeat",
                                 "metrics": telem.get_registry().snapshot()}
        spans = self._top_spans()
        if spans:
            event["spans"] = spans
        self._send(event)

    def _send(self, event: Dict[str, Any]) -> None:
        event.setdefault("pid", self.pid)
        event.setdefault("ts", time.time())
        if self.job_id is not None:
            event.setdefault("job_id", self.job_id)
        if self.run_id:
            event.setdefault("run_id", self.run_id)
        try:
            self._put(event)
        except Exception:
            pass

    def _top_spans(self, n: int = 5) -> Optional[List[Dict[str, Any]]]:
        if not telem.spans_on:
            return None
        by_leaf: Dict[str, float] = {}
        for path, (count, total_s, self_s) in telem.get_profiler().profile().entries.items():
            leaf = path[-1]
            by_leaf[leaf] = by_leaf.get(leaf, 0.0) + self_s
        top = sorted(by_leaf.items(), key=lambda kv: -kv[1])[:n]
        return [{"span": leaf, "self_s": self_s} for leaf, self_s in top]


class StreamingRegistry(MetricsRegistry):
    """Job registry whose accessors piggyback a rate-limited stream
    flush on every instrument touch — progress heartbeats for free,
    and silence exactly when the job stops making progress.
    """

    def counter(self, name: str, **labels: Any):
        metric = super().counter(name, **labels)
        if _sink is not None:
            _sink.tick()
        return metric

    def gauge(self, name: str, **labels: Any):
        metric = super().gauge(name, **labels)
        if _sink is not None:
            _sink.tick()
        return metric

    def histogram(self, name: str, edges: Any = None, **labels: Any):
        metric = super().histogram(name, edges=edges, **labels)
        if _sink is not None:
            _sink.tick()
        return metric


def job_registry() -> MetricsRegistry:
    """The registry a fresh job should use: streaming when armed."""
    if _sink is not None:
        return StreamingRegistry()
    return MetricsRegistry()


def worker_init(q: Any, interval_s: float) -> None:
    """``ProcessPoolExecutor`` initializer: arm streaming in a worker."""
    global _sink
    _sink = WorkerStream(q.put, interval_s)


def arm_local(handler: Callable[[Dict[str, Any]], None],
              interval_s: float = DEFAULT_HEARTBEAT_S) -> WorkerStream:
    """Arm streaming in-process (serial runner path): events go straight
    to ``handler`` instead of through a queue."""
    global _sink
    _sink = WorkerStream(handler, interval_s)
    return _sink


def disarm() -> None:
    global _sink
    _sink = None


def sink() -> Optional[WorkerStream]:
    """The armed worker stream, or ``None`` when streaming is off."""
    return _sink


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class SweepProgress:
    """Parent-side live view of one batch: per-job states, per-worker
    heartbeats, stale warnings, and an ETA estimated from the
    wall-clock distribution of completed jobs.

    All ``*_mono`` fields are parent ``time.monotonic()`` readings.
    """

    def __init__(self, run_id: Optional[str] = None):
        self.run_id = run_id
        self.started_mono = time.monotonic()
        self.jobs: Dict[str, Dict[str, Any]] = {}
        self.workers: Dict[int, Dict[str, Any]] = {}
        self.stale_events: List[Dict[str, Any]] = []
        self.job_spans: Dict[str, List[Dict[str, Any]]] = {}

    # -- job state transitions ----------------------------------------
    def add_job(self, job_id: str, name: str, seed: int) -> None:
        self.jobs.setdefault(job_id, {
            "job_id": job_id, "name": name, "seed": seed, "state": "pending",
            "pid": None, "started_mono": None, "finished_mono": None,
            "last_beat_mono": None, "duration_s": None, "stale_warned": False,
        })

    def mark_running(self, job_id: str, pid: Optional[int] = None) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            return
        job["state"] = "running"
        if pid is not None:
            job["pid"] = pid
        now = time.monotonic()
        if job["started_mono"] is None:
            job["started_mono"] = now
        job["last_beat_mono"] = now

    def mark_pending(self, job_id: str) -> None:
        """Back to the queue (pool rebuild requeue)."""
        job = self.jobs.get(job_id)
        if job is None:
            return
        job.update(state="pending", pid=None, started_mono=None,
                   last_beat_mono=None, stale_warned=False)

    def mark_done(self, job_id: str, outcome: str, cache_hit: bool = False,
                  duration_s: Optional[float] = None) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            return
        if cache_hit:
            job["state"] = "cached"
        elif outcome == "ok":
            job["state"] = "ok"
        elif outcome == "timeout":
            job["state"] = "timeout"
        else:
            job["state"] = "errored"
        job["finished_mono"] = time.monotonic()
        job["duration_s"] = duration_s
        self.job_spans.pop(job_id, None)

    def beat(self, job_id: Optional[str], pid: Optional[int],
             now_mono: Optional[float] = None) -> None:
        now = time.monotonic() if now_mono is None else now_mono
        if pid is not None:
            worker = self.workers.setdefault(pid, {"pid": pid})
            worker["last_seen_mono"] = now
            worker["job_id"] = job_id
        if job_id is not None:
            job = self.jobs.get(job_id)
            if job is not None:
                job["last_beat_mono"] = now
                if pid is not None:
                    job["pid"] = pid

    # -- derived views -------------------------------------------------
    def counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            counts[job["state"]] += 1
        counts["total"] = len(self.jobs)
        counts["done"] = counts["ok"]
        counts["errored"] += counts["timeout"]
        return counts

    def finished(self) -> int:
        return sum(1 for j in self.jobs.values()
                   if j["state"] in ("ok", "errored", "timeout", "cached"))

    def elapsed_s(self, now_mono: Optional[float] = None) -> float:
        now = time.monotonic() if now_mono is None else now_mono
        return max(0.0, now - self.started_mono)

    def eta_s(self, workers: int = 1,
              now_mono: Optional[float] = None) -> Optional[float]:
        """Remaining wall-clock estimate: mean completed-job duration
        times outstanding jobs, divided by the worker count."""
        durations = [j["duration_s"] for j in self.jobs.values()
                     if j["state"] in ("ok", "errored", "timeout")
                     and j["duration_s"] is not None]
        if not durations:
            return None
        remaining = [j for j in self.jobs.values()
                     if j["state"] in ("pending", "running")]
        if not remaining:
            return 0.0
        mean = sum(durations) / len(durations)
        now = time.monotonic() if now_mono is None else now_mono
        eta = 0.0
        for job in remaining:
            spent = (now - job["started_mono"]
                     if job["started_mono"] is not None else 0.0)
            eta += max(mean - spent, 0.0)
        return eta / max(workers, 1)

    def heartbeat_ages(self, now_mono: Optional[float] = None) -> Dict[int, float]:
        now = time.monotonic() if now_mono is None else now_mono
        return {pid: max(0.0, now - w["last_seen_mono"])
                for pid, w in self.workers.items()
                if w.get("last_seen_mono") is not None}


class EventStream:
    """Parent-side half of one live-telemetry session: the worker event
    queue, the :class:`SweepProgress` view, and the latest registry of
    every in-flight job.

    The runner owns one per :class:`ExperimentRunner` when streaming is
    requested; :meth:`pool_initargs` wires workers up, and
    :meth:`drain`/:meth:`check_stale` run in the parent's wait loop.
    Thread-safe: the metrics HTTP exporter reads through
    :meth:`live_registry` from its own thread, and the runner guards its
    own metric merges with :attr:`lock`.

    Unless given, ``stale_after_s`` is ``max(3 * heartbeat_s, 1.5 s)``,
    capped at half of ``timeout_s`` so staleness can fire before the
    deadline does.
    """

    def __init__(self, progress: Optional[SweepProgress] = None,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                 stale_after_s: Optional[float] = None,
                 timeout_s: Optional[float] = None):
        self.progress = progress or SweepProgress()
        self.heartbeat_s = heartbeat_s
        if stale_after_s is None:
            stale_after_s = max(3 * heartbeat_s, MIN_STALE_AFTER_S)
            if timeout_s:
                stale_after_s = min(stale_after_s, timeout_s / 2.0)
        self.stale_after_s = stale_after_s
        self.lock = threading.Lock()
        self.inflight: Dict[str, MetricsRegistry] = {}
        self.events_seen = 0
        self._queue: Any = None

    def attach(self, progress: SweepProgress) -> None:
        with self.lock:
            self.progress = progress
            self.inflight.clear()
            self.events_seen = 0

    @property
    def queue(self) -> Any:
        if self._queue is None:
            import multiprocessing
            self._queue = multiprocessing.SimpleQueue()
        return self._queue

    def pool_initargs(self) -> Tuple[Any, float]:
        """``initargs`` for a pool whose ``initializer`` is :func:`worker_init`."""
        return (self.queue, self.heartbeat_s)

    def arm_local(self) -> WorkerStream:
        return arm_local(self.handle, self.heartbeat_s)

    def handle(self, event: Dict[str, Any]) -> None:
        with self.lock:
            self.events_seen += 1
            kind = event.get("kind")
            pid = event.get("pid")
            job_id = event.get("job_id")
            now = time.monotonic()
            self.progress.beat(job_id if kind != "job_end" else None, pid, now)
            if kind == "job_start" and job_id:
                if job_id not in self.progress.jobs:
                    self.progress.add_job(job_id, event.get("name", "?"),
                                          event.get("seed", -1))
                self.progress.mark_running(job_id, pid)
            elif kind == "job_end" and job_id:
                self.inflight.pop(job_id, None)
            elif kind == "heartbeat" and job_id:
                snapshot = event.get("metrics")
                if snapshot is not None:
                    self.inflight[job_id] = MetricsRegistry.from_snapshot(snapshot)
                spans = event.get("spans")
                if spans:
                    self.progress.job_spans[job_id] = spans

    def drain(self, q: Any = None) -> int:
        """Non-blocking: consume every queued event (from ``q``, default
        this stream's own queue); return the count."""
        if q is None:
            if self._queue is None:
                return 0
            q = self._queue
        n = 0
        while True:
            try:
                if q.empty():
                    break
                event = q.get()
            except (queue_mod.Empty, OSError, EOFError):
                break
            if isinstance(event, dict):
                self.handle(event)
            n += 1
        return n

    def check_stale(self, stale_after_s: Optional[float] = None,
                    now_mono: Optional[float] = None) -> List[Dict[str, Any]]:
        """Flag running jobs whose heartbeat age exceeds the threshold
        (default :attr:`stale_after_s`).

        Each job is flagged at most once; returns the newly stale ones.
        """
        if stale_after_s is None:
            stale_after_s = self.stale_after_s
        now = time.monotonic() if now_mono is None else now_mono
        newly: List[Dict[str, Any]] = []
        with self.lock:
            for job_id, job in self.progress.jobs.items():
                if job["state"] != "running" or job["stale_warned"]:
                    continue
                last = job["last_beat_mono"] or job["started_mono"]
                if last is None:
                    continue
                age = now - last
                if age >= stale_after_s:
                    job["stale_warned"] = True
                    record = {"job_id": job_id, "pid": job["pid"],
                              "age_s": age, "at_mono": now, "ts": time.time()}
                    self.progress.stale_events.append(record)
                    newly.append(record)
        return newly

    def live_registry(self, base: Optional[MetricsRegistry] = None
                      ) -> MetricsRegistry:
        """A fresh registry merging finalized metrics with the latest
        snapshot of every in-flight job."""
        with self.lock:
            merged = MetricsRegistry()
            if base is not None:
                merged.merge(base.snapshot())
            for registry in self.inflight.values():
                merged.merge(registry.snapshot())
            return merged
