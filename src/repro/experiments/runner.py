"""Execute experiments: one-shot, fan-out, seed sweeps — and survive.

The :class:`ExperimentRunner` turns ``(experiment, params, seed)`` jobs
into :class:`~repro.experiments.result.ExperimentResult` records:

* **parallel** — jobs fan out through a
  :class:`concurrent.futures.ProcessPoolExecutor` (experiments are
  CPU-bound numpy code, so processes, not threads), held by a
  :class:`WorkerPool` that a long-lived caller can keep warm across
  batches and whose workers exit when their parent dies;
* **deterministic** — sweep seeds derive from ``(base_seed, index)``
  via SHA-256, so the same sweep always runs the same jobs;
* **measured** — every job records wall-clock duration and the peak RSS
  of the process that ran it: a high-water mark over that process's
  life, so a warm worker's covers every job it has run;
* **cached** — results persist to an on-disk JSON cache keyed by
  ``(name, params, seed)``; a re-run becomes a near-instant cache hit,
  which is also how an interrupted sweep resumes: running it again
  restores every finished job from the cache;
* **hardened** — the batch path applies the same fault discipline the
  paper applies to memory:

  - per-job wall-clock **timeouts** (runner default, per-:class:`Job`
    override) produce a structured ``timeout`` outcome instead of a
    hang; the worker stuck on the job is reclaimed by rebuilding the
    pool;
  - a raising job becomes one **errored** result that is never
    cached, so running the batch again re-executes it (jobs are
    deterministic in ``(name, params, seed)``: there is no transient
    failure to retry);
  - a dying pool (worker SIGKILL/OOM/segfault → ``BrokenProcessPool``)
    is **rebuilt** and its in-flight jobs requeued, up to
    :data:`MAX_POOL_REBUILDS` times; after that every job the runner has
    not finished becomes an errored ``BrokenProcessPool`` result, so a
    job that keeps killing workers never runs in the parent;
  - ``KeyboardInterrupt`` **drains** already-completed futures into the
    cache and ledger before re-raising, so Ctrl-C never loses finished
    work.

Seed handling is introspected from each experiment's registered
signature (:mod:`repro.experiments.registry`), so a ``TypeError``
raised *inside* an experiment propagates instead of being mistaken for
"takes no seed".
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments import registry
from repro.experiments.result import ExperimentResult, canonical_json, to_jsonable
from repro.telemetry import (
    MetricsRegistry,
    PhysicsCollector,
    RunLedger,
    SpanProfile,
)
from repro.telemetry import default_ledger
from repro.telemetry import events as stream_events
from repro.telemetry import ids
from repro.telemetry import runtime as telem
from repro.telemetry.events import EventStream, SweepProgress

try:  # not available on Windows; RSS reads as 0 there
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]


#: How many times one runner replaces a pool whose worker died before it
#: fails its unfinished jobs (a timeout's rebuild ends its job: no loop).
MAX_POOL_REBUILDS = 3


class JobTimeout(Exception):
    """A job exceeded its wall-clock deadline.

    Stringifies into the ``"JobTimeout: ..."`` error the ``timeout``
    outcome classification keys on.
    """


def violation_subsystem(error: Optional[str]) -> str:
    """The ``[subsystem]`` tag of an ``InvariantViolation: ...`` error."""
    if error:
        start = error.find("[")
        end = error.find("]", start + 1)
        if start != -1 and end > start:
            return error[start + 1:end]
    return "unknown"


@dataclass(frozen=True)
class Job:
    """One unit of work: an experiment name, bound params, and a seed.

    ``timeout_s`` overrides the runner's default per-job deadline
    (``None`` inherits it).
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = 0
    timeout_s: Optional[float] = None


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic, well-spread per-job seed for sweeps.

    SHA-256 of ``"base:index"`` truncated to 31 bits: stable across
    runs, machines, and Python versions (unlike ``hash``).
    """
    digest = hashlib.sha256(f"{base_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def _alarm_available() -> bool:
    """Can :func:`call_with_deadline` enforce a deadline here?"""
    return (threading.current_thread() is threading.main_thread()
            and hasattr(signal, "setitimer"))


def call_with_deadline(fn, timeout_s: Optional[float]):
    """Run ``fn()`` under a wall-clock deadline; raise :class:`JobTimeout`.

    Enforcement uses ``SIGALRM`` and therefore only engages on the main
    thread of a POSIX process; elsewhere the call runs unguarded (the
    runner sends such timed batches to the pool, which enforces
    deadlines parent-side instead).
    """
    if not timeout_s or timeout_s <= 0 or not _alarm_available():
        return fn()

    def _alarm(signum, frame):
        raise JobTimeout(f"exceeded {timeout_s:g}s wall-clock")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _peak_rss_kb() -> int:
    if resource is None:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux but bytes on macOS.
    return int(rss // 1024) if sys.platform == "darwin" else int(rss)


def collectable(observe: Iterable[str]) -> Tuple[str, ...]:
    """The observers named in ``observe``, in observer-table order.

    Only entries of :data:`~repro.telemetry.runtime.OBSERVERS` with a
    result field (``metrics``, ``spans``, ``physics``) can be collected
    per job; any other name raises ``ValueError``.
    """
    wanted = set(observe)
    bad = sorted(n for n in wanted
                 if getattr(telem.OBSERVERS.get(n), "field", None) is None)
    if bad:
        raise ValueError(f"cannot collect per job: {', '.join(bad)}")
    return tuple(n for n in telem.OBSERVERS if n in wanted)


def _job_sink(name: str) -> Any:
    # job_registry() returns a StreamingRegistry when live streaming is
    # armed, so instrument touches double as worker heartbeats.
    if name == "metrics":
        return stream_events.job_registry()
    return telem.OBSERVERS[name].new()


def execute_job(name: str, params: Optional[Mapping[str, Any]] = None,
                seed: Optional[int] = 0,
                observe: Iterable[str] = (),
                run_id: Optional[str] = None) -> ExperimentResult:
    """Run one experiment in-process and return its structured result.

    This is the single run-one-experiment path shared by the CLI's
    ``run``/``report``/``sweep`` and the pool workers.  The payload is
    normalized to JSON-safe types here so cached and fresh results are
    indistinguishable downstream.

    ``observe`` names the observers the job collects (see
    :func:`collectable`).  Each runs against a fresh sink of its own
    and its snapshot rides in the result field the observer's table
    entry names: ``metrics``, ``profile`` (for ``spans``; the whole job
    runs under a root ``job{name=...}`` span) or ``physics`` (per-row
    heat, flip provenance, mitigation audit).  Per-job snapshots thus
    cross process boundaries and merge in the parent.  All the sinks
    are installed by one :func:`~repro.telemetry.runtime.observing`
    scope, held under ``telem.job_lock``, which restores the caller's
    observers afterwards: the sinks are process-global, so in-process
    jobs on different threads run one at a time.

    ``run_id`` (the caller's run, ``None`` outside one) is stamped on
    the result and, with the job ID, into every trace event the job
    emits.

    Exceptions raised inside the experiment propagate (the batch-level
    fault tolerance lives in :meth:`ExperimentRunner.run`); the
    ``job_end`` trace event still fires, with ``ok``/``error`` fields
    distinguishing the failure — including the exception's class name
    for ``MemoryError``/``SystemExit``-grade failures.
    """
    import repro

    spec = registry.get(name)
    kwargs = spec.bind(params=params, seed=seed)
    jid = ids.job_id_from_key(job_key(spec.name, params or {}, seed))
    context: Dict[str, Any] = {"job_id": jid}
    if run_id:
        context["run_id"] = run_id
    sinks = {obs: _job_sink(obs) for obs in collectable(observe)}
    ok = True
    error: Optional[str] = None
    with telem.job_lock, telem.observing(context=context, **sinks):
        if telem.trace_on:
            telem.trace("job_start", name=spec.name, seed=seed)
        start = time.perf_counter()
        try:
            with telem.span("job", name=spec.name):
                payload = spec.fn(**kwargs)
        except BaseException as exc:
            ok = False
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            duration = time.perf_counter() - start
            if telem.trace_on:
                end_fields: Dict[str, Any] = {"name": spec.name, "seed": seed,
                                              "duration_s": duration, "ok": ok}
                if error is not None:
                    end_fields["error"] = error
                telem.trace("job_end", **end_fields)
    return ExperimentResult(
        name=spec.name,
        payload=to_jsonable(payload),
        seed=seed if spec.accepts_seed else None,
        params=dict(params or {}),
        duration_s=duration,
        peak_rss_kb=_peak_rss_kb(),
        version=repro.__version__,
        run_id=run_id,
        job_id=jid,
        **{telem.OBSERVERS[obs].field: sink.snapshot()
           for obs, sink in sinks.items()},
    )


def execute_job_safe(name: str, params: Optional[Mapping[str, Any]] = None,
                     seed: Optional[int] = 0,
                     observe: Iterable[str] = (),
                     run_id: Optional[str] = None) -> ExperimentResult:
    """:func:`execute_job`, but a raising experiment becomes an errored
    :class:`ExperimentResult` (``payload=None``, ``error`` set) instead
    of propagating — the unit of the batch runner's fault tolerance.

    ``MemoryError`` and ``SystemExit`` are captured too (a worker
    calling ``sys.exit`` must not kill its pool), carrying their class
    name in ``result.error``; ``KeyboardInterrupt`` always propagates.

    Framework-level errors (unknown experiment name, bad params) still
    raise: they are caller bugs, not job failures.  This is also the
    chaos injection point: an armed ``REPRO_CHAOS`` schedule may kill,
    hang, or fail the job right here (see :mod:`repro.chaos`), and the
    failure-capture point: when capture is armed (sanitizer on, or
    ``REPRO_CAPTURE`` set — see :mod:`repro.sanitizer.bundle`), any
    failed job writes a replayable bundle before returning.  The stream
    announcements, capture, the chaos hook and the job body all run
    under ``telem.job_lock``.
    """
    import repro
    from repro import chaos
    from repro.sanitizer import runtime as sanit
    from repro.sanitizer.bundle import CaptureContext

    spec = registry.get(name)
    spec.bind(params=params, seed=seed)  # param errors are caller bugs: raise now
    # Pool workers inherit REPRO_SANITIZE through the environment; the
    # sync here makes the level effective whatever process we run in.
    sanit.sync_from_env()
    jid = ids.job_id_from_key(job_key(spec.name, params or {}, seed))
    result: Optional[ExperimentResult] = None
    with telem.job_lock:
        sink = stream_events.sink()
        if sink is not None:
            # Announce before the chaos hook: a job that hangs right at
            # start must already be visible to the parent's stale check.
            sink.on_job_start(jid, spec.name,
                              seed if spec.accepts_seed else -1, run_id)
        capture = CaptureContext.arm_if_enabled()
        start = time.perf_counter()
        try:
            chaos.on_job_start(spec.name, seed)
            result = execute_job(name, params=params, seed=seed,
                                 observe=observe, run_id=run_id)
            return result
        except (Exception, SystemExit) as exc:
            detail = str(exc)
            if isinstance(exc, SystemExit) and not detail:
                detail = repr(exc.code)
            result = ExperimentResult(
                name=spec.name,
                payload=None,
                seed=seed if spec.accepts_seed else None,
                params=dict(params or {}),
                duration_s=time.perf_counter() - start,
                peak_rss_kb=_peak_rss_kb(),
                version=repro.__version__,
                error=f"{type(exc).__name__}: {detail}",
                run_id=run_id,
                job_id=jid,
            )
            if capture is not None:
                try:
                    capture.write_bundle(result, exc)
                except Exception:  # capture must never mask the job failure
                    pass
            return result
        finally:
            if capture is not None:
                capture.restore()
            if sink is not None:
                sink.on_job_end(
                    jid,
                    result.outcome if result is not None else "error",
                    result.duration_s if result is not None else None)


def _pool_worker(job: Tuple[str, Dict[str, Any], Optional[int],
                             Tuple[str, ...], str]) -> ExperimentResult:
    # Re-import inside the worker so spawn-based pools (macOS/Windows)
    # repopulate the registry; under fork this is a no-op.
    import repro.experiments  # noqa: F401

    name, params, seed, observe, run_id = job
    # The safe variant keeps one raising job from poisoning the pool
    # and aborting its completed siblings.
    return execute_job_safe(name, params=params, seed=seed,
                            observe=observe, run_id=run_id)


def job_key(name: str, params: Any, seed: Optional[int]) -> str:
    """The canonical ``(name, params, seed)`` job identity digest.

    The :class:`ResultCache` file name, and the root of every job and
    service ID: aliases resolve to the canonical experiment name and
    params are key-sorted, so the same job always produces the same key.
    """
    canonical = registry.resolve(name)
    ordered = {k: params[k] for k in sorted(params)}
    blob = canonical_json({"name": canonical, "params": ordered, "seed": seed})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


#: Temp files this much older than "now" are crash leftovers, not
#: concurrent writers, and are swept on cache init.
_TMP_MAX_AGE_S = 3600.0


class ResultCache:
    """On-disk JSON result cache keyed by ``(name, params, seed)``.

    The cache is the one record of a finished job kept for reuse: a
    sweep that was interrupted, or a service submission whose daemon
    died, resumes by running again and hitting it.  Only successful
    results are stored, so errored and timed-out jobs re-run.

    Writes are crash- and contention-safe: each writer stages through a
    unique ``.tmp.<pid>.<nonce>`` file (two sweeps sharing one cache
    directory can never clobber each other's staging file), fsyncs, and
    atomically renames into place.  Reads quarantine corrupt entries —
    truncated JSON, an empty file, a wrong-schema record — by renaming
    them to ``*.corrupt`` and reporting a miss, so one torn write can
    never crash (or permanently wedge) a run.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.write_errors = 0
        self._write_warned = False
        self._sweep_stale_tmps()

    def _sweep_stale_tmps(self) -> None:
        """Remove staging files abandoned by crashed writers.

        Age-gated so a concurrent writer's live staging file survives.
        """
        if not self.root.is_dir():
            return
        cutoff = time.time() - _TMP_MAX_AGE_S
        for tmp in self.root.glob("*/*.tmp*"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except OSError:  # raced with another sweeper: fine
                pass

    def key(self, name: str, params: Mapping[str, Any], seed: Optional[int]) -> str:
        return job_key(name, params, seed)

    def path(self, name: str, params: Mapping[str, Any], seed: Optional[int]) -> Path:
        return self.root / registry.resolve(name) / f"{self.key(name, params, seed)}.json"

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - raced removal
                pass

    def get(self, name: str, params: Mapping[str, Any],
            seed: Optional[int]) -> Optional[ExperimentResult]:
        path = self.path(name, params, seed)
        if not path.is_file():
            return None
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            record = json.loads(text)
            if not isinstance(record, dict):
                raise ValueError("cache record is not a JSON object")
            return ExperimentResult.from_json_dict(record, cache_hit=True)
        except (ValueError, KeyError, TypeError):
            # Torn write or foreign schema: quarantine and miss.
            self._quarantine(path)
            return None

    def put(self, result: ExperimentResult) -> Optional[Path]:
        """Persist one result; returns its path, or ``None`` when the
        write failed (``ENOSPC``, ``EACCES``, ...) and execution should
        degrade to uncached — a full disk must fail the *cache*, never
        the job.  Failures tally in :attr:`write_errors` and warn once.
        """
        path = self.path(result.name, result.params, result.seed)
        record = result.to_json_dict()
        record["cache_hit"] = False
        text = json.dumps(record, indent=1, sort_keys=True)

        from repro import chaos

        tmp: Optional[Path] = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if chaos.tear_cache_write(result.name, result.seed):
                # Injected torn write: the final file holds truncated JSON,
                # as if this process died mid-write without the tmp dance.
                path.write_text(text[: max(1, len(text) // 2)])
                return path
            tmp = path.with_name(
                f"{path.name}.tmp.{os.getpid()}.{os.urandom(4).hex()}")
            with open(tmp, "w") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            self._note_write_failure(path, exc)
            return None
        finally:
            if tmp is not None and tmp.exists():  # write or rename failed
                try:
                    tmp.unlink()
                except OSError:  # pragma: no cover - raced removal
                    pass
        return path

    def _note_write_failure(self, path: Path, exc: OSError) -> None:
        self.write_errors += 1
        if telem.metrics_on:
            telem.counter("cache_write_errors_total").inc()
        if not self._write_warned:
            self._write_warned = True
            print(f"warning: result cache write failed ({path}: {exc}); "
                  f"continuing uncached", file=sys.stderr)


def _worker_init(stream_initargs: Optional[Tuple[Any, float]]) -> None:
    """``ProcessPoolExecutor`` initializer of every :class:`WorkerPool`.

    Ends this worker once the process that started it dies.  Idle pool
    workers block on the call queue forever, so a parent that dies
    without shutting its pool down (``kill -9`` of one process, not its
    group) would leak them.  A daemon thread waits on the parent's
    sentinel, the pipe end that reads EOF once the parent is gone, under
    every start method; ``os.getppid()`` would not do under
    ``forkserver``, whose workers' parent is the fork server, and that
    server lives on for as long as they do.  ``PR_SET_PDEATHSIG`` is no
    substitute either: it fires when the forking *thread* exits, and the
    service forks from its worker thread.  ``stream_initargs`` arms live
    telemetry (see :func:`~repro.telemetry.events.worker_init`).
    """
    parent = multiprocessing.parent_process()

    def watch() -> None:
        parent.join()
        os._exit(0)

    if parent is not None:
        threading.Thread(target=watch, name="repro-parent-watch",
                         daemon=True).start()
    if stream_initargs is not None:
        stream_events.worker_init(*stream_initargs)


class WorkerPool:
    """A lazily forked process pool that can outlive one batch.

    :meth:`get` creates the executor on first use (its workers fork at
    the first submit), :meth:`replace` kills it and stands up a fresh
    one, :meth:`close` shuts it down gracefully.  An
    :class:`ExperimentRunner` handed a pool borrows it: batches reuse
    its warm workers and only :meth:`replace` it after a worker crash
    or a timed-out job.  Workers fork with the registry and environment
    of the moment, so an experiment registered or a variable set later
    is invisible to them.  Every worker exits on its own once its parent
    process dies.  ``stream_initargs`` arms live telemetry in each
    worker (see :meth:`~repro.telemetry.events.EventStream.pool_initargs`).
    """

    def __init__(self, workers: int,
                 stream_initargs: Optional[Tuple[Any, float]] = None):
        self.workers = workers
        self._stream_initargs = stream_initargs
        self._executor: Optional[ProcessPoolExecutor] = None

    def get(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_worker_init,
                initargs=(self._stream_initargs,))
        return self._executor

    def replace(self) -> ProcessPoolExecutor:
        """Tear the executor down *now*, hung or broken workers
        included, and return a fresh one."""
        if self._executor is not None:
            executor, self._executor = self._executor, None
            processes = list(getattr(executor, "_processes", {}).values())
            executor.shutdown(wait=False, cancel_futures=True)
            for proc in processes:
                try:
                    proc.kill()
                except Exception:  # pragma: no cover - already-reaped worker
                    pass
        return self.get()

    def close(self) -> None:
        if self._executor is not None:
            executor, self._executor = self._executor, None
            executor.shutdown(wait=True, cancel_futures=True)


class _Pending:
    """One not-yet-finalized job in a batch."""

    __slots__ = ("index", "job", "job_id", "started_at", "deadline")

    def __init__(self, index: int, job: Job, job_id: str = ""):
        self.index = index
        self.job = job
        self.job_id = job_id
        self.started_at: Optional[float] = None
        self.deadline: Optional[float] = None


class ExperimentRunner:
    """Run experiment jobs with optional process fan-out and caching.

    ``max_workers=None`` or ``1`` runs jobs inline (no pool overhead —
    the right default for one fast experiment); ``max_workers=N`` fans
    misses out over ``N`` worker processes.  A runner handed a ``pool``
    ignores ``max_workers``.  ``cache_dir=None`` disables the cache.

    ``observe`` names the observers every job collects (see
    :func:`collectable`).  ``observe=("metrics",)`` runs every job with
    telemetry on: each result carries its own metrics snapshot, and
    :attr:`metrics` holds the parent-side merge across all jobs this
    runner executed (cache hits included — their stored snapshots are
    re-absorbed, so a fully cached re-run still reports what the
    hardware did).  ``"spans"`` does the same for span profiles into
    :attr:`profile`, and ``"physics"`` for the domain observability
    layer (per-row heat maps, flip provenance, the mitigation audit
    trail) into :attr:`physics`.  An aggregate is ``None`` when its
    observer is not collected.

    Batches are **fault tolerant**: a job that raises becomes an
    errored result (``error`` set, ``payload=None``) instead of
    aborting its completed siblings; errored results are never cached
    (running the batch again re-executes exactly them) and are tallied
    in ``runner_jobs_total{outcome="error"}``.

    Hardening knobs:

    ``timeout_s``
        Default per-job wall-clock deadline (``Job.timeout_s``
        overrides per job).  A job past its deadline becomes a
        ``timeout``-outcome result; on the pool path the worker stuck
        on it is reclaimed by rebuilding the pool.
    ``pool``
        A :class:`WorkerPool` to borrow: every cache miss, a batch of
        one included, runs on its warm workers with up to
        ``pool.workers`` jobs in flight; a rebuild replaces its executor
        (so the pool's next borrower gets the fresh one) and the runner
        never closes it.  Without one, each :meth:`run` forks a private
        pool of at most ``max_workers`` processes and closes it at the
        end.  A streaming runner arms its own workers, so it cannot
        borrow a pool.

    A hung pool (a timed-out job's worker) is always rebuilt, a broken
    one up to :data:`MAX_POOL_REBUILDS` times per runner, its in-flight
    jobs requeued (tallied in ``runner_pool_rebuilds_total`` and
    :attr:`pool_rebuilds`).  After that, a worker death ends every job
    the runner has not finished as an errored ``BrokenProcessPool``
    result: never cached, so a rerun re-executes exactly those jobs.

    Every finished job is also appended to the **run ledger** (see
    :mod:`repro.telemetry.ledger`) unless ``ledger=False`` or the
    ``REPRO_LEDGER=off`` environment switch disables it.

    **Run identity**: every job this runner executes, in-process or in
    a pool worker, is handed the runner's ``run_id`` (auto-minted unless
    passed) as an argument, so results, trace events, ledger lines and
    capture bundles join on it even when several runners share one
    process.  In-process jobs take turns on ``telem.job_lock``, and a
    pool-less batch with a deadline that runs off the main thread (where
    no ``SIGALRM`` can stop it) goes to a private pool even with one job
    or ``max_workers=1``.

    **Live telemetry** (:mod:`repro.telemetry.events`): every batch
    maintains a :class:`SweepProgress` view in :attr:`progress`.  With
    ``stream=True`` pool workers send heartbeats to the parent, at most
    one per ``heartbeat_s``, each carrying a snapshot of the running
    job's metric registry.  The merged live registry is available via
    :meth:`live_metrics` / :meth:`live_exposition` mid-run, and a
    running job whose heartbeat goes silent for ``stale_after_s`` is
    flagged (trace event ``heartbeat_stale``, counter
    ``runner_stale_heartbeats_total``, ``progress.stale_events``)
    *before* its timeout fires.  Heartbeats ride on instrument touches,
    so a healthy job in a phase that records no metric is flagged too.
    ``on_progress`` — a ``callable(runner)`` — is invoked as jobs make
    progress (the ``--live`` renderer hooks in here).
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None,
                 max_workers: Optional[int] = None,
                 observe: Iterable[str] = (),
                 ledger: Union[None, bool, RunLedger] = None,
                 timeout_s: Optional[float] = None,
                 run_id: Optional[str] = None,
                 stream: Optional[bool] = None,
                 heartbeat_s: float = stream_events.DEFAULT_HEARTBEAT_S,
                 stale_after_s: Optional[float] = None,
                 on_progress: Optional[Any] = None,
                 ledger_command: str = "runner",
                 pool: Optional[WorkerPool] = None):
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.max_workers = max_workers
        self.run_id = run_id or ids.new_run_id()
        self.pool = pool
        self.stream: Optional[EventStream] = None
        if stream:
            if pool is not None:
                raise ValueError("a streaming runner cannot borrow a pool: "
                                 "its workers must be armed at fork")
            self.stream = EventStream(heartbeat_s=heartbeat_s,
                                      stale_after_s=stale_after_s,
                                      timeout_s=timeout_s)
            observe = {*observe, "metrics"}  # heartbeats ride on the job registry
        self.progress: Optional[SweepProgress] = None
        self.on_progress = on_progress
        self.observe = collectable(observe)
        self.timeout_s = timeout_s
        self.pool_rebuilds = 0
        self._crash_rebuilds = 0  # the MAX_POOL_REBUILDS budget
        self.ledger_command = ledger_command
        self.metrics: Optional[MetricsRegistry] = None
        self.profile: Optional[SpanProfile] = None
        self.physics: Optional[PhysicsCollector] = None
        for name in self.observe:
            obs = telem.OBSERVERS[name]
            setattr(self, obs.field, obs.merged())
        if ledger is None or ledger is True:
            self.ledger = default_ledger()
        elif ledger is False:
            self.ledger = None
        else:
            self.ledger = ledger

    # -- live telemetry --------------------------------------------------
    def live_metrics(self) -> MetricsRegistry:
        """A point-in-time registry copy: finalized job metrics plus the
        latest streamed snapshot of every in-flight job.  Thread-safe; the
        ``--serve-metrics`` exporter calls this from its HTTP thread."""
        if self.stream is not None:
            return self.stream.live_registry(self.metrics)
        merged = MetricsRegistry()
        if self.metrics is not None:
            merged.merge(self.metrics.snapshot())
        return merged

    def live_exposition(self) -> str:
        """Prometheus exposition of :meth:`live_metrics` plus the sweep
        progress gauges — the ``/metrics`` endpoint body."""
        from repro.telemetry import export

        registry_copy = self.live_metrics()
        if self.progress is not None:
            registry_copy.merge(export.progress_registry(
                self.progress, workers=self.max_workers or 1).snapshot())
        return export.render_exposition(registry_copy)

    def _metrics_lock(self):
        """Streamed runs guard parent-side metric merges against the
        exporter thread reading through ``live_metrics``."""
        if self.stream is not None:
            return self.stream.lock
        import contextlib

        return contextlib.nullcontext()

    def _notify_progress(self) -> None:
        if self.on_progress is not None:
            try:
                self.on_progress(self)
            except Exception:  # a broken renderer must not kill the batch
                pass

    def _service_stream(self) -> None:
        """Parent-side streaming upkeep: drain queued worker events and
        flag newly stale heartbeats."""
        if self.stream is None:
            return
        self.stream.drain()
        for record in self.stream.check_stale():
            with self._metrics_lock():
                if self.metrics is not None:
                    self.metrics.counter("runner_stale_heartbeats_total").inc()
            if telem.trace_on:
                telem.trace("heartbeat_stale", job_id=record["job_id"],
                            pid=record["pid"], age_s=round(record["age_s"], 3),
                            run_id=self.run_id)

    def _absorb(self, result: ExperimentResult) -> None:
        """Account one finished job: merge its metric/span snapshots
        into the parent sinks and append it to the run ledger."""
        with self._metrics_lock():
            self._absorb_locked(result)

    def _absorb_locked(self, result: ExperimentResult) -> None:
        for name in self.observe:
            field = telem.OBSERVERS[name].field
            snapshot = getattr(result, field)
            if snapshot:
                getattr(self, field).merge(snapshot)
        if self.metrics is not None:
            self.metrics.counter(
                "runner_jobs_total",
                cache_hit=str(result.cache_hit).lower(),
                outcome=result.outcome,
            ).inc()
            if result.outcome == "invariant":
                # Errored jobs carry no metrics snapshot (execute_job
                # raises before its snapshot can be returned), so the
                # violation is tallied here, parent-side.
                self.metrics.counter(
                    "sanitizer_violations_total",
                    subsystem=violation_subsystem(result.error),
                ).inc()
        if self.ledger is not None:
            self.ledger.record(result, command=self.ledger_command)

    def summary(self, results: Sequence[ExperimentResult]) -> Dict[str, Any]:
        """Aggregate view of one batch: counts by outcome plus the
        errored jobs' identities — what the CLI prints as the run
        summary so failures are surfaced, not silently dropped."""
        errored = [r for r in results if r.error]
        return {
            "run_id": self.run_id,
            "stale_heartbeats": (len(self.progress.stale_events)
                                 if self.progress is not None else 0),
            "jobs": len(results),
            "ok": len(results) - len(errored),
            "errors": len(errored),
            "timeouts": sum(r.outcome == "timeout" for r in errored),
            "invariants": sum(r.outcome == "invariant" for r in errored),
            "cache_hits": sum(r.cache_hit for r in results),
            "duration_s": sum(r.duration_s for r in results),
            "pool_rebuilds": self.pool_rebuilds,
            "errored": [
                {"name": r.name, "seed": r.seed, "params": dict(r.params),
                 "error": r.error}
                for r in errored
            ],
        }

    # -- batch execution ------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> List[ExperimentResult]:
        """Run a batch of jobs, preserving input order in the output.

        Cache hits resolve up front; only true misses execute.  A
        raising job yields an errored result in its slot, a job past its
        deadline a ``timeout`` one; completed siblings are kept, and
        nothing failed reaches the cache.  Results are flushed (cache +
        ledger) as they finish, so an interrupt loses nothing already
        done, and running the batch again resumes it.
        """
        results: List[Optional[ExperimentResult]] = [None] * len(jobs)
        self.progress = SweepProgress(run_id=self.run_id)
        if self.stream is not None:
            self.stream.attach(self.progress)
        pending: Deque[_Pending] = deque()
        for i, job in enumerate(jobs):
            registry.get(job.name)  # fail fast on unknown names
            jid = ids.job_id_from_key(job_key(job.name, job.params, job.seed))
            self.progress.add_job(jid, registry.resolve(job.name), job.seed)
            if self.cache is not None:
                hit = self.cache.get(job.name, job.params, job.seed)
                if hit is not None:
                    results[i] = hit
                    self.progress.mark_done(jid, hit.outcome, cache_hit=True,
                                            duration_s=hit.duration_s)
                    self._absorb(hit)
                    continue
            pending.append(_Pending(i, job, jid))
        self._notify_progress()

        if pending:
            pool = self.pool
            workers = self.max_workers or 1
            # Off the main thread no alarm can stop an in-process job,
            # so a batch with a deadline runs in a pool, which enforces
            # deadlines parent-side.
            if pool is None and (
                    (workers > 1 and len(pending) > 1)
                    or (not _alarm_available()
                        and any(self._job_timeout(p.job) for p in pending))):
                pool = WorkerPool(min(workers, len(pending)), (
                    self.stream.pool_initargs()
                    if self.stream is not None else None))
            try:
                if pool is None:
                    self._drain_serial(pending, results)
                else:
                    self._drain_pool(pool, pending, results)
            finally:
                if pool is not None and pool is not self.pool:
                    pool.close()
                if self.stream is not None:
                    self.stream.drain()  # late job_end events
                    stream_events.disarm()
        self._notify_progress()
        return [r for r in results if r is not None]

    def _count_cache_write_error(self) -> None:
        """Tally one degraded (failed) cache write in the batch metrics."""
        with self._metrics_lock():
            if self.metrics is not None:
                self.metrics.counter("cache_write_errors_total").inc()

    def _job_timeout(self, job: Job) -> Optional[float]:
        return job.timeout_s if job.timeout_s is not None else self.timeout_s

    def _failed_result(self, job: Job, error: str,
                       elapsed: float = 0.0) -> ExperimentResult:
        """The parent-side errored result of a job no worker finished:
        past its deadline, or stranded once the pool broke with the
        rebuild budget spent."""
        import repro

        spec = registry.get(job.name)
        return ExperimentResult(
            name=spec.name,
            payload=None,
            seed=job.seed if spec.accepts_seed else None,
            params=dict(job.params),
            duration_s=elapsed,
            peak_rss_kb=0,
            version=repro.__version__,
            error=error,
            run_id=self.run_id,
            job_id=ids.job_id_from_key(
                job_key(job.name, job.params, job.seed)),
        )

    def _finalize(self, p: _Pending, result: ExperimentResult,
                  results: List[Optional[ExperimentResult]]) -> None:
        """Commit one finished job: slot, cache, absorb."""
        results[p.index] = result
        if self.cache is not None and result.error is None:
            if self.cache.put(result) is None:
                self._count_cache_write_error()
        if self.progress is not None and p.job_id:
            self.progress.mark_done(p.job_id, result.outcome,
                                    duration_s=result.duration_s)
        self._absorb(result)
        self._notify_progress()

    def _drain_serial(self, pending: Deque[_Pending],
                      results: List[Optional[ExperimentResult]]) -> None:
        """In-process execution of a pool-less single-worker batch.

        Timeouts are enforced with ``SIGALRM`` (main thread, POSIX; a
        timed batch elsewhere goes to a pool); results are finalized as
        they complete, so an interrupt at any point keeps everything
        already finished.

        Heartbeat staleness cannot be observed here — the parent *is*
        the worker — so streaming only short-circuits events in-process
        for the progress view.
        """
        if self.stream is not None and stream_events.sink() is None:
            self.stream.arm_local()
        while pending:
            p = pending.popleft()
            if self.progress is not None and p.job_id:
                self.progress.mark_running(p.job_id, os.getpid())
                self._notify_progress()
            timeout_s = self._job_timeout(p.job)
            start = time.monotonic()
            try:
                result = call_with_deadline(
                    lambda: execute_job_safe(
                        p.job.name, params=p.job.params, seed=p.job.seed,
                        observe=self.observe, run_id=self.run_id),
                    timeout_s)
            except JobTimeout:
                # The alarm fired outside the guarded job body.
                result = self._failed_result(
                    p.job, f"JobTimeout: exceeded {timeout_s:g}s wall-clock",
                    time.monotonic() - start)
            self._finalize(p, result, results)

    def _submit(self, pool: ProcessPoolExecutor, p: _Pending):
        fut = pool.submit(_pool_worker, (p.job.name, dict(p.job.params),
                                         p.job.seed, self.observe, self.run_id))
        timeout_s = self._job_timeout(p.job)
        p.started_at = time.monotonic()
        p.deadline = (p.started_at + timeout_s) if timeout_s else None
        if self.progress is not None and p.job_id:
            self.progress.mark_running(p.job_id)
        return fut

    def _rebuild_pool(self, pool: WorkerPool,
                      inflight: Dict[Any, _Pending],
                      pending: Deque[_Pending],
                      crashed: bool) -> Optional[ProcessPoolExecutor]:
        """Requeue in-flight jobs and replace the pool's executor.

        Only a ``crashed`` pool spends the :data:`MAX_POOL_REBUILDS`
        budget; returns ``None`` when a crash finds it spent (the pool
        still holds a fresh executor for its next borrower).
        """
        for fut, p in list(inflight.items()):
            fut.cancel()
            p.started_at = None
            p.deadline = None
            if self.progress is not None and p.job_id:
                self.progress.mark_pending(p.job_id)
            pending.appendleft(p)
        inflight.clear()
        executor = pool.replace()
        if crashed:
            if self._crash_rebuilds >= MAX_POOL_REBUILDS:
                return None
            self._crash_rebuilds += 1
        self.pool_rebuilds += 1
        with self._metrics_lock():
            if self.metrics is not None:
                self.metrics.counter("runner_pool_rebuilds_total").inc()
        return executor

    def _drain_completed(self, inflight: Dict[Any, _Pending],
                         results: List[Optional[ExperimentResult]]) -> None:
        """Interrupt path: flush every future that already completed."""
        for fut, p in list(inflight.items()):
            if not fut.done() or fut.cancelled():
                continue
            try:
                result = fut.result(timeout=0)
            except BaseException:  # broken pool / cancelled: nothing to keep
                continue
            self._finalize(p, result, results)
        inflight.clear()

    def _drain_pool(self, pool: WorkerPool, pending: Deque[_Pending],
                    results: List[Optional[ExperimentResult]]) -> None:
        """Process-pool execution with deadlines and crash recovery.

        At most ``pool.workers`` jobs are in flight, so a submitted job
        starts (nearly) immediately and its submit-time deadline is a
        faithful run-time deadline.  ``pool`` is left open: its owner
        closes it.
        """
        workers = pool.workers
        executor: Optional[ProcessPoolExecutor] = pool.get()
        inflight: Dict[Any, _Pending] = {}
        # Streaming needs the wait loop to wake regularly to drain the
        # event queue and age heartbeats, even with nothing completing.
        poll_s = (min(self.stream.heartbeat_s, 0.25)
                  if self.stream is not None else None)
        try:
            while pending or inflight:
                # Fill the submission window.
                need_rebuild = crashed = False
                while pending and len(inflight) < workers:
                    p = pending.popleft()
                    try:
                        inflight[self._submit(executor, p)] = p
                    except BrokenProcessPool:
                        pending.appendleft(p)
                        need_rebuild = crashed = True
                        break

                if not need_rebuild:
                    deadlines = [p.deadline for p in inflight.values()
                                 if p.deadline is not None]
                    timeout = (max(0.0, min(deadlines) - time.monotonic())
                               if deadlines else None)
                    if poll_s is not None:
                        timeout = poll_s if timeout is None else min(timeout, poll_s)
                    done, _ = futures_wait(list(inflight), timeout=timeout,
                                           return_when=FIRST_COMPLETED)
                    self._service_stream()
                    for fut in done:
                        p = inflight.pop(fut)
                        try:
                            result = fut.result()
                        except BrokenProcessPool:
                            pending.appendleft(p)
                            need_rebuild = crashed = True
                        except CancelledError:  # pragma: no cover - defensive
                            pending.appendleft(p)
                        else:
                            self._finalize(p, result, results)

                if not need_rebuild:
                    # Enforce deadlines on whatever is still in flight.
                    now = time.monotonic()
                    for fut, p in list(inflight.items()):
                        if p.deadline is None or now < p.deadline:
                            continue
                        del inflight[fut]
                        if fut.cancel():
                            # Never started (backlogged): the deadline
                            # was premature, not exceeded.
                            p.started_at = None
                            p.deadline = None
                            if self.progress is not None and p.job_id:
                                self.progress.mark_pending(p.job_id)
                            pending.appendleft(p)
                            continue
                        elapsed = now - (p.started_at or now)
                        timeout_s = self._job_timeout(p.job) or 0.0
                        self._finalize(p, self._failed_result(
                            p.job,
                            f"JobTimeout: exceeded {timeout_s:g}s wall-clock",
                            elapsed), results)
                        # The worker is still grinding on the expired
                        # job; reclaim it by rebuilding the pool.
                        need_rebuild = True

                if need_rebuild:
                    executor = self._rebuild_pool(pool, inflight, pending,
                                                  crashed)
                    if executor is None:
                        # Budget spent: the pool keeps dying.  Fail what
                        # is left rather than run it in this process.
                        error = (f"BrokenProcessPool: the worker pool broke "
                                 f"again after {MAX_POOL_REBUILDS} rebuild(s)")
                        while pending:
                            p = pending.popleft()
                            self._finalize(p, self._failed_result(p.job, error),
                                           results)
                        return
        except BaseException as exc:
            busy = bool(inflight)
            if isinstance(exc, KeyboardInterrupt):
                # Ctrl-C: keep every job that already finished, then stop.
                self._drain_completed(inflight, results)
            if busy:  # this batch's jobs must not run into the next
                pool.replace()
            raise

    def sweep(self, name: str, seeds: int, base_seed: int = 0,
              params: Optional[Mapping[str, Any]] = None) -> List[ExperimentResult]:
        """Run ``seeds`` deterministic-seed replicas of one experiment."""
        spec = registry.get(name)
        if not spec.accepts_seed:
            raise ValueError(
                f"experiment {spec.name!r} takes no seed; a sweep would run "
                f"{seeds} identical jobs"
            )
        jobs = [Job(spec.name, dict(params or {}), derive_seed(base_seed, i))
                for i in range(seeds)]
        return self.run(jobs)
