"""The experiment service daemon: HTTP front end + journaled execution.

One :class:`ExperimentService` owns a state directory::

    <state-dir>/
      daemon.lock         # held (fcntl.lockf) for the daemon's whole life
      service.json        # endpoint record: host, port, pid, service_id
      jobs.jsonl          # append-only job journal (crash-safe)
      ledger.jsonl        # run ledger of every executed job (command=service)
      cache/              # shared result cache: the resume point of every job

Design decisions that make it kill-tolerant:

* **One daemon per state dir.**  :meth:`ExperimentService.start` takes
  an exclusive POSIX record lock on ``daemon.lock`` before it replays
  the journal, binds, or writes ``service.json``; a second daemon on
  the same directory refuses to start (:class:`StateDirBusy`).  The
  kernel drops a record lock when its holder dies — forked pool
  workers that outlive a SIGKILLed daemon do not keep it (they would
  under ``flock``) — so a restart never waits on a staleness bound.
* **Journal first.**  A submission is journaled before it is queued;
  the 202 response only goes out once the record is fsynced.  Replay
  on startup re-enqueues every journaled submission without a
  ``done``/``cancel`` record.
* **One submission at a time, in chunks.**  One worker thread takes
  submissions from the queue in order and runs each through the
  hardened :class:`~repro.experiments.runner.ExperimentRunner` in
  chunks of ``2 × workers`` jobs, with cancel/drain checks between
  chunks.  Every finished job lands in the result cache as it
  completes — so a SIGKILL loses at most the chunk in flight, and a
  restart re-runs the submission, whose finished jobs come back as
  cache hits instead of re-executing.  A *poisoned* submission
  (invariant violation, timed-out job, runner-level collapse) stops
  at the end of the chunk with a structured ``failed`` state; plain
  job errors run to completion → ``error``.  Every result carries its
  submission's run ID, which the runner passes to its jobs explicitly.
* **Graceful drain.**  SIGTERM/SIGINT stop admission (503), let the
  in-flight chunk finish (its results are cached), leave queued jobs
  journaled for the next incarnation, and exit 0.
* **Bounded queue.**  Past ``max_queue`` waiting jobs, submissions are
  shed with 429 + ``Retry-After`` (estimated from observed job
  durations) instead of growing without limit.
"""

from __future__ import annotations

import fcntl
import json
import os
import signal
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Set, Tuple, Union

from repro.experiments.runner import ExperimentRunner
from repro.service.journal import JobJournal, JobSpec
from repro.telemetry import MetricsRegistry, RunLedger
from repro.telemetry import export, ids

__all__ = ["DEFAULT_SERVICE_PORT", "ENDPOINT_FILE", "LOCK_FILE",
           "ExperimentService", "StateDirBusy", "lock_state_dir",
           "read_endpoint"]

#: Default ``repro serve`` port (one above the metrics exporter's).
DEFAULT_SERVICE_PORT = 9465

#: The endpoint record the daemon drops in its state dir on startup.
ENDPOINT_FILE = "service.json"

#: The lock file a daemon holds for its whole life.
LOCK_FILE = "daemon.lock"

#: ``Retry-After`` seconds sent while draining (a restart is expected).
DRAINING_RETRY_AFTER_S = 10

#: Terminal in-memory job states (no further transitions).
_TERMINAL = ("done", "error", "cancelled", "failed")

#: Journal ``done`` outcome → in-memory state (unknown outcomes are
#: conservative errors).
_OUTCOME_STATE = {"ok": "done", "cancelled": "cancelled", "failed": "failed"}


def read_endpoint(state_dir: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The endpoint record of the daemon owning ``state_dir``, if any."""
    path = Path(state_dir).expanduser() / ENDPOINT_FILE
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return record if isinstance(record, dict) else None


class StateDirBusy(RuntimeError):
    """Another live daemon holds the state directory's lock.

    Deliberately not an :class:`OSError`, so callers can tell a busy
    state directory apart from a failed bind.
    """


def lock_state_dir(state_dir: Union[str, Path]) -> int:
    """Take ``<state_dir>/daemon.lock`` exclusively; returns the fd.

    The lock lives until the fd is closed or the process dies.  Raises
    :class:`StateDirBusy` naming the holder's pid (from
    ``service.json``) when another process holds it.
    """
    path = Path(state_dir).expanduser() / LOCK_FILE
    fd = os.open(str(path), os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.lockf(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError as exc:
        os.close(fd)
        if not isinstance(exc, (BlockingIOError, PermissionError)):
            raise  # not EAGAIN/EACCES: a failure, not a holder
        pid = (read_endpoint(state_dir) or {}).get("pid", "unknown")
        raise StateDirBusy(f"state dir {path.parent} is in use by "
                           f"another daemon (pid {pid})") from exc
    return fd


class _JobRecord:
    """In-memory view of one service job (the journal is the truth)."""

    __slots__ = ("sid", "spec", "state", "submitted_ts", "started_ts",
                 "finished_ts", "run_id", "completed", "summary", "result",
                 "error", "wall_s", "peak_rss_kb", "inflight")

    def __init__(self, sid: str, spec: JobSpec, state: str = "queued"):
        self.sid = sid
        self.spec = spec
        self.state = state
        self.submitted_ts = time.time()
        self.started_ts: Optional[float] = None
        self.finished_ts: Optional[float] = None
        self.run_id: Optional[str] = None
        self.completed = 0
        self.summary: Optional[Dict[str, Any]] = None
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.wall_s = 0.0          # cumulative chunk wall time
        self.peak_rss_kb = 0       # max per-job RSS observed so far
        self.inflight = 0          # jobs in the chunk currently executing

    def brief(self) -> Dict[str, Any]:
        return {
            "sid": self.sid,
            "kind": self.spec.kind,
            "name": self.spec.name,
            "state": self.state,
            "jobs": self.spec.job_count,
            "completed": self.completed,
            "inflight": self.inflight,
            "wall_s": round(self.wall_s, 6),
            "peak_rss_kb": self.peak_rss_kb,
            "submitted_ts": self.submitted_ts,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
            "run_id": self.run_id,
        }

    def full(self) -> Dict[str, Any]:
        body = self.brief()
        body["spec"] = self.spec.to_json_dict()
        if self.summary is not None:
            body["summary"] = self.summary
        if self.result is not None:
            body["result"] = self.result
        if self.error is not None:
            body["error"] = self.error
        return body


class ExperimentService:
    """A crash-tolerant daemon running submissions on the hardened runner.

    ``workers`` is the runner pool width; submissions run one at a
    time, in submission order.  ``start_worker=False`` leaves the
    worker thread unstarted — deterministic queue-state tests use it;
    production never does.
    """

    def __init__(self, state_dir: Union[str, Path],
                 host: str = "127.0.0.1",
                 port: int = DEFAULT_SERVICE_PORT,
                 workers: int = 2,
                 max_queue: int = 64,
                 timeout_s: Optional[float] = None,
                 start_worker: bool = True):
        self.state_dir = Path(state_dir).expanduser()
        self.host = host
        self.requested_port = port
        self.workers = max(1, int(workers))
        self.max_queue = max(0, int(max_queue))
        self.timeout_s = timeout_s
        self.service_id = ids.new_run_id(prefix="s")
        self.started_mono = time.monotonic()

        self.journal = JobJournal(self.state_dir / "jobs.jsonl")
        self.ledger = RunLedger(self.state_dir / "ledger.jsonl")
        self.cache_dir = self.state_dir / "cache"

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self.jobs: Dict[str, _JobRecord] = {}
        self.order: List[str] = []
        self.queue: Deque[str] = deque()
        self.cancel_requests: Set[str] = set()
        self.draining = False
        self.degraded = False
        self.metrics = MetricsRegistry()
        self._avg_job_s = 1.0  # EWMA of per-runner-job wall seconds
        #: The submission executing now and its runner, if any.
        self._running: Optional[Tuple[_JobRecord, ExperimentRunner]] = None
        self._state_lock_fd: Optional[int] = None
        self._drained = threading.Event()
        self._start_worker = start_worker
        self._worker: Optional[threading.Thread] = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self.port: Optional[int] = None

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "ExperimentService":
        """Lock the state dir, replay the journal, bind the HTTP server,
        start the worker.

        Raises :class:`StateDirBusy` if another daemon holds the state
        dir; the lock is released again if a later step (e.g. the
        bind) fails.
        """
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._state_lock_fd = lock_state_dir(self.state_dir)
        try:
            self._replay_journal()
            self._httpd = ThreadingHTTPServer(
                (self.host, self.requested_port), self._handler_class())
        except BaseException:
            self._release_state_lock()
            raise
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http", daemon=True)
        self._http_thread.start()
        if self._start_worker:
            self._worker = threading.Thread(
                target=self._worker_loop, name="repro-service-worker",
                daemon=True)
            self._worker.start()
        self._write_endpoint()
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _write_endpoint(self) -> None:
        record = {"host": self.host, "port": self.port, "pid": os.getpid(),
                  "service_id": self.service_id,
                  "state_dir": str(self.state_dir)}
        path = self.state_dir / ENDPOINT_FILE
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)

    def _replay_journal(self) -> None:
        """Restore job state from the journal; re-enqueue unfinished work."""
        had_journal = self.journal.path.is_file()
        state = self.journal.replay()
        recovered = 0
        for sid in state.order:
            try:
                spec = JobSpec.from_payload(state.submits[sid].get("spec"))
            except ValueError as exc:
                rec = _JobRecord(sid, JobSpec(kind="experiment",
                                              name="unknown"), state="error")
                rec.error = f"unreplayable submission: {exc}"
                self.jobs[sid] = rec
                self.order.append(sid)
                continue
            rec = _JobRecord(sid, spec)
            start_rec = state.starts.get(sid)
            if start_rec is not None:
                rec.run_id = start_rec.get("run_id")
            done = state.done.get(sid)
            if done is not None:
                self._fold_done(rec, done)
            elif sid in state.cancelled:
                rec.state = "cancelled"
            else:
                rec.state = "queued"
                self.queue.append(sid)
                recovered += 1
            self.jobs[sid] = rec
            self.order.append(sid)
        if had_journal:
            self.metrics.counter("service_journal_replays_total").inc()
            self.metrics.gauge("service_journal_corrupt_lines").set(
                state.corrupt_lines)
            if recovered:
                self.metrics.counter("service_jobs_recovered_total").inc(
                    recovered)

    @staticmethod
    def _fold_done(rec: _JobRecord, done: Dict[str, Any]) -> None:
        """Apply a journal ``done`` record to an in-memory job record."""
        outcome = done.get("outcome", "ok")
        rec.state = _OUTCOME_STATE.get(outcome, "error")
        rec.completed = int(done.get("jobs") or done.get("completed") or 0)
        rec.finished_ts = done.get("ts")
        rec.run_id = done.get("run_id") or rec.run_id
        rec.summary = {k: done[k] for k in
                       ("jobs", "errors", "timeouts", "cache_hits",
                        "duration_s", "job_ids") if k in done}
        if done.get("error"):
            rec.error = done["error"]

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main thread only)."""
        def _drain_signal(signum, frame):
            self.initiate_drain(signal.Signals(signum).name)

        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, _drain_signal)

    def initiate_drain(self, reason: str = "request") -> None:
        """Stop admitting; let the in-flight chunk finish; then exit."""
        with self._cond:
            if self.draining:
                return
            self.draining = True
            self.metrics.counter("service_drains_total", reason=reason).inc()
            self._cond.notify_all()

    def serve_forever(self) -> int:
        """Block until a drain completes; returns the process exit code."""
        try:
            while not self._drained.wait(timeout=0.2):
                pass
        except KeyboardInterrupt:  # un-handlered SIGINT (e.g. no signals)
            self.initiate_drain("SIGINT")
            self._drained.wait()
        self._shutdown_http()
        self._release_state_lock()
        return 0

    def stop(self) -> None:
        """Programmatic drain + shutdown (tests and in-process harness)."""
        self.initiate_drain("stop")
        if self._worker is not None:
            self._worker.join()
        self._drained.set()
        self._shutdown_http()
        self._release_state_lock()

    def _shutdown_http(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None

    def _release_state_lock(self) -> None:
        if self._state_lock_fd is not None:
            os.close(self._state_lock_fd)
            self._state_lock_fd = None

    # -- worker -----------------------------------------------------------
    def _worker_loop(self) -> None:
        """Run queued submissions one at a time until a drain."""
        while True:
            with self._cond:
                while not self.queue and not self.draining:
                    self._cond.wait()
                if self.draining:
                    break
                sid = self.queue.popleft()
                rec = self.jobs[sid]
                rec.state = "running"
                rec.started_ts = time.time()
                rec.run_id = ids.new_run_id()
                self.journal.start(sid, rec.run_id)
                spec = rec.spec
                runner = ExperimentRunner(
                    cache_dir=self.cache_dir,
                    max_workers=self.workers,
                    observe=("metrics",),
                    ledger=self.ledger,
                    ledger_command="service",
                    timeout_s=spec.timeout_s if spec.timeout_s is not None
                    else self.timeout_s,
                    run_id=rec.run_id,
                )
                self._running = (rec, runner)
            self._execute(rec, runner)
        self._drained.set()

    def _execute(self, rec: _JobRecord, runner: ExperimentRunner) -> None:
        """Run one submission chunk by chunk.  Before each chunk a
        cancel request ends it ``cancelled`` and a drain parks it
        ``checkpointed``; a poisoned chunk ends it ``failed``."""
        jobs = rec.spec.expand()
        size = 2 * self.workers
        results: List[Any] = []
        state = poison = None
        for start in range(0, len(jobs), size):
            with self._lock:
                if rec.sid in self.cancel_requests:
                    state = "cancelled"
                elif self.draining:
                    state = "checkpointed"
            if state is not None:
                break
            poison = self._run_chunk(rec, runner, jobs[start:start + size],
                                     results)
            if poison is not None:
                state = "failed"
                break
        self._finalize(rec, runner, results, state, poison)

    def _run_chunk(self, rec: _JobRecord, runner: ExperimentRunner,
                   chunk: List[Any], results: List[Any]) -> Optional[str]:
        """Run one chunk into ``results``; returns the poison reason, if
        the chunk poisoned the submission."""
        with self._lock:
            rec.inflight = len(chunk)
        started = time.monotonic()
        poison: Optional[str] = None
        done: List[Any] = []
        try:
            done = runner.run(chunk)
        except Exception as exc:  # runner-level collapse poisons the submission
            poison = f"{type(exc).__name__}: {exc}"
        wall = time.monotonic() - started
        with self._lock:
            rec.inflight = 0
            rec.wall_s += wall
            results.extend(done)
            rec.completed = len(results)
            rec.peak_rss_kb = max([rec.peak_rss_kb,
                                   *(r.peak_rss_kb for r in done)])
            if done:
                self._avg_job_s = 0.5 * self._avg_job_s \
                    + 0.5 * (wall / len(done))
            self.metrics.counter("service_chunks_total").inc()
        if poison is None:
            poison = next((f"poisoned by job {r.job_id}: outcome={r.outcome}"
                           for r in done
                           if r.outcome in ("timeout", "invariant")), None)
        return poison

    def _finalize(self, rec: _JobRecord, runner: ExperimentRunner,
                  results: List[Any], state: Optional[str],
                  poison: Optional[str] = None) -> None:
        """Settle a submission: ``state`` is ``cancelled``, ``failed``
        (by ``poison``) or ``checkpointed``, or ``None`` for one that ran
        every job."""
        sid = rec.sid
        summary = runner.summary(results)
        job_ids = [r.job_id for r in results if r.job_id][:1024]
        with self._lock:
            if runner.metrics is not None:
                self.metrics.merge(runner.metrics.snapshot())
            if runner.degraded_to_serial:
                self.degraded = True
            self.cancel_requests.discard(sid)
            self._running = None
            rec.completed = len(results)
            rec.inflight = 0
            rec.summary = {
                "jobs": summary["jobs"],
                "errors": summary["errors"],
                "timeouts": summary["timeouts"],
                "cache_hits": summary["cache_hits"],
                "duration_s": round(summary["duration_s"], 6),
                "job_ids": job_ids,
            }
            if state is not None:
                # ``checkpointed`` writes no ``done`` record: the journal
                # keeps the submission pending and the next incarnation
                # re-runs it; its finished jobs come back as cache hits.
                rec.state = state
                if poison is not None:
                    rec.error = poison
            elif summary["errors"]:
                rec.state = "error"
                first = summary["errored"][0]
                rec.error = f"{summary['errors']} job(s) failed " \
                            f"(first: {first['error']})"
            else:
                rec.state = "done"
                if rec.spec.kind == "experiment" and results:
                    rec.result = results[0].to_json_dict()
            if rec.state in _TERMINAL:
                rec.finished_ts = time.time()
                self.metrics.counter("service_jobs_total",
                                     outcome=rec.state).inc()
        if rec.state == "cancelled":
            self.journal.done(sid, "cancelled", completed=len(results),
                              run_id=rec.run_id)
        elif rec.state in ("done", "error", "failed"):
            outcome = {"done": "ok", "failed": "failed"}.get(
                rec.state, "error")
            self.journal.done(
                sid, outcome,
                jobs=summary["jobs"], errors=summary["errors"],
                timeouts=summary["timeouts"],
                cache_hits=summary["cache_hits"],
                duration_s=round(summary["duration_s"], 6),
                run_id=rec.run_id, job_ids=job_ids,
                **({"error": rec.error} if rec.error else {}))

    # -- admission --------------------------------------------------------
    def _retry_after_s(self) -> int:
        depth = len(self.queue)
        estimate = self._avg_job_s * (depth + 1) / self.workers
        return max(1, min(60, int(round(estimate))))

    def submit(self, payload: Any):
        """Admission control; returns ``(status, body, headers)``."""
        try:
            spec = JobSpec.from_payload(payload)
        except ValueError as exc:
            with self._lock:
                self.metrics.counter("service_rejections_total",
                                     reason="invalid").inc()
            return 400, {"error": str(exc)}, {}
        sid = spec.sid
        with self._cond:
            existing = self.jobs.get(sid)
            if existing is not None:
                self.metrics.counter("service_duplicates_total").inc()
                body = existing.brief()
                body["duplicate"] = True
                return 200, body, {}
            if self.draining:
                self.metrics.counter("service_rejections_total",
                                     reason="draining").inc()
                return 503, {"error": "service is draining"}, \
                    {"Retry-After": str(DRAINING_RETRY_AFTER_S)}
            if len(self.queue) >= self.max_queue:
                retry_after = self._retry_after_s()
                self.metrics.counter("service_rejections_total",
                                     reason="overflow").inc()
                return 429, {"error": "queue full",
                             "queue_depth": len(self.queue),
                             "retry_after_s": retry_after}, \
                    {"Retry-After": str(retry_after)}
            if not self.journal.submit(spec):
                self.metrics.counter("service_rejections_total",
                                     reason="journal").inc()
                return 500, {"error": "journal append failed"}, {}
            rec = _JobRecord(sid, spec)
            self.jobs[sid] = rec
            self.order.append(sid)
            self.queue.append(sid)
            self.metrics.counter("service_admissions_total",
                                 kind=spec.kind).inc()
            self._cond.notify_all()
            return 202, rec.brief(), {}

    def cancel(self, sid: str):
        """Cooperative cancel; returns ``(status, body)``."""
        with self._cond:
            rec = self.jobs.get(sid)
            if rec is None:
                return 404, {"error": f"no job {sid!r}"}
            if rec.state == "queued":
                try:
                    self.queue.remove(sid)
                except ValueError:  # pragma: no cover - raced with worker
                    pass
                rec.state = "cancelled"
                rec.finished_ts = time.time()
                self.metrics.counter("service_cancels_total").inc()
                self.metrics.counter("service_jobs_total",
                                     outcome="cancelled").inc()
                self.journal.cancel(sid)
                return 200, rec.brief()
            if rec.state == "running":
                self.cancel_requests.add(sid)
                self.metrics.counter("service_cancels_total").inc()
                self.journal.cancel(sid)
                body = rec.brief()
                body["state"] = "cancelling"
                return 202, body
            return 409, {"error": f"job {sid!r} already {rec.state}"}

    # -- introspection ----------------------------------------------------
    def health(self) -> Dict[str, Any]:
        with self._lock:
            counts: Dict[str, int] = {}
            for rec in self.jobs.values():
                counts[rec.state] = counts.get(rec.state, 0) + 1
            status = ("draining" if self.draining
                      else "degraded" if self.degraded else "live")
            return {
                "status": status,
                "service_id": self.service_id,
                "pid": os.getpid(),
                "uptime_s": round(time.monotonic() - self.started_mono, 3),
                "queue_depth": len(self.queue),
                "in_flight": int(self._running is not None),
                "draining": self.draining,
                "degraded": self.degraded,
                "jobs": counts,
            }

    def exposition(self) -> str:
        """The ``/metrics`` body: service families + live runner metrics."""
        registry = MetricsRegistry()
        with self._lock:
            registry.merge(self.metrics.snapshot())
            registry.gauge("service_queue_depth").set(len(self.queue))
            registry.gauge("service_draining").set(int(self.draining))
            registry.gauge("service_degraded").set(int(self.degraded))
            running = self._running
            registry.gauge("service_active_submissions").set(
                int(running is not None))
            registry.gauge("service_inflight_jobs").set(
                running[0].inflight if running is not None else 0)
        if running is not None:
            try:
                registry.merge(running[1].live_metrics().snapshot())
            except Exception:  # a finishing runner must not fail a scrape
                pass
        return export.render_exposition(registry)

    # -- HTTP -------------------------------------------------------------
    def _handler_class(self):
        service = self

        class Handler(BaseHTTPRequestHandler):
            def _send_json(self, status: int, body: Dict[str, Any],
                           headers: Optional[Dict[str, str]] = None) -> None:
                blob = (json.dumps(body, indent=1, sort_keys=True,
                                   default=repr) + "\n").encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(blob)))
                for key, value in (headers or {}).items():
                    self.send_header(key, value)
                self.end_headers()
                self.wfile.write(blob)

            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                if path == "/healthz":
                    self._send_json(200, service.health())
                elif path == "/metrics":
                    blob = service.exposition().encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", export.CONTENT_TYPE)
                    self.send_header("Content-Length", str(len(blob)))
                    self.end_headers()
                    self.wfile.write(blob)
                elif path == "/jobs":
                    with service._lock:
                        body = {"service_id": service.service_id,
                                "jobs": [service.jobs[sid].brief()
                                         for sid in service.order]}
                    self._send_json(200, body)
                elif path.startswith("/jobs/"):
                    sid = path[len("/jobs/"):]
                    with service._lock:
                        rec = service.jobs.get(sid)
                        body = rec.full() if rec is not None else None
                    if body is None:
                        self._send_json(404, {"error": f"no job {sid!r}"})
                    else:
                        self._send_json(200, body)
                else:
                    self._send_json(404, {"error": f"no route {path!r}"})

            def do_POST(self) -> None:  # noqa: N802 (stdlib API name)
                path = self.path.split("?", 1)[0].rstrip("/")
                if path != "/jobs":
                    self._send_json(404, {"error": f"no route {path!r}"})
                    return
                try:
                    length = int(self.headers.get("Content-Length") or 0)
                    payload = json.loads(
                        self.rfile.read(length).decode("utf-8") or "null")
                except (ValueError, UnicodeDecodeError) as exc:
                    self._send_json(400, {"error": f"bad JSON body: {exc}"})
                    return
                status, body, headers = service.submit(payload)
                self._send_json(status, body, headers)

            def do_DELETE(self) -> None:  # noqa: N802 (stdlib API name)
                path = self.path.split("?", 1)[0].rstrip("/")
                if not path.startswith("/jobs/"):
                    self._send_json(404, {"error": f"no route {path!r}"})
                    return
                status, body = service.cancel(path[len("/jobs/"):])
                self._send_json(status, body)

            def log_message(self, *args: Any) -> None:
                pass  # client polls must not spam the daemon's stderr

        return Handler
