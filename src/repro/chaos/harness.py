"""Chaos scenarios: prove the hardened runner recovers, on demand.

Each scenario arms a pinned ``REPRO_CHAOS`` schedule (see
:mod:`repro.chaos.plan`), runs a real sweep through a real
:class:`~repro.experiments.runner.ExperimentRunner`, and asserts the
*recovered* end state — all jobs accounted for, structured outcomes
where faults landed, telemetry counters reporting the injected counts
exactly.  Nothing is mocked: the SIGKILL is a SIGKILL, the hang is a
sleep past a real deadline, the torn cache write leaves real truncated
JSON on disk.

The suite is deterministic (faults pin job seeds that are themselves
derived deterministically), so CI replays the exact same failure
schedule every run.  ``repro chaos`` on the CLI runs it end to end.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import chaos
from repro.experiments import registry
from repro.experiments.runner import (
    ExperimentRunner,
    Job,
    ResultCache,
    derive_seed,
    job_key,
)
from repro.sanitizer import runtime as sanit
from repro.sanitizer.bundle import ENV_CAPTURE, load_bundle, replay_bundle
from repro.telemetry import RunLedger, job_id_from_key

__all__ = [
    "PROBE_EXPERIMENT",
    "Check",
    "ScenarioOutcome",
    "SCENARIOS",
    "run_scenario",
    "run_suite",
]

#: The experiment every scenario sweeps: fast (~ms), seed-accepting,
#: and numerically deterministic, so the harness measures the *runner*,
#: not the workload.
PROBE_EXPERIMENT = "sidedness_ablation"

#: Injected hangs sleep this long — must exceed :data:`SCENARIO_TIMEOUT_S`
#: by a wide margin so a missed deadline shows up as a stall, not a pass.
HANG_SECS = 20.0

#: The per-job deadline scenarios run with.
SCENARIO_TIMEOUT_S = 2.0


@dataclass
class Check:
    """One asserted property of a scenario's end state."""

    label: str
    ok: bool
    observed: str = ""


@dataclass
class ScenarioOutcome:
    name: str
    checks: List[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def expect(self, label: str, ok: bool, observed: str = "") -> None:
        self.checks.append(Check(label, bool(ok), observed))

    def expect_eq(self, label: str, got, want) -> None:
        self.checks.append(Check(label, got == want, f"got {got!r}, want {want!r}"))


class _Arena:
    """Per-scenario scratch space + chaos environment management."""

    def __init__(self, root: Path, name: str):
        self.root = root / name
        self.root.mkdir(parents=True, exist_ok=True)
        self.cache_dir = self.root / "cache"
        self.state_dir = self.root / "chaos-state"
        self.ledger_path = self.root / "ledger.jsonl"
        self._saved: Dict[str, Optional[str]] = {}

    def arm(self, spec: str) -> None:
        """Install a chaos schedule (with this arena's state dir)."""
        for key, value in ((chaos.ENV_CHAOS, spec),
                           (chaos.ENV_CHAOS_STATE, str(self.state_dir))):
            self._saved.setdefault(key, os.environ.get(key))
            os.environ[key] = value
        chaos.reset()

    def set_env(self, key: str, value: str) -> None:
        """Set an extra env knob for this scenario; restored afterwards."""
        self._saved.setdefault(key, os.environ.get(key))
        os.environ[key] = value

    def disarm(self) -> None:
        """Remove the chaos schedule (state dir markers are kept)."""
        for key in (chaos.ENV_CHAOS, chaos.ENV_CHAOS_STATE):
            self._saved.setdefault(key, os.environ.get(key))
            os.environ.pop(key, None)
        chaos.reset()

    def restore(self) -> None:
        for key, value in self._saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        self._saved.clear()
        chaos.reset()
        # A scenario may have run jobs in-process with REPRO_SANITIZE
        # armed; resync so the level matches the restored environment.
        sanit.sync_from_env(default="off")

    def injected(self) -> Dict[str, int]:
        return chaos.injected_counts(self.state_dir)


def _jobs(n: int, base_seed: int = 0) -> List[Job]:
    name = registry.resolve(PROBE_EXPERIMENT)
    return [Job(name, {}, derive_seed(base_seed, i)) for i in range(n)]


def _cached_job_ids(cache_dir: Path, jobs: int) -> Set[str]:
    """Job IDs of the first ``jobs`` probe-sweep jobs (base seed 0) whose
    results are in the cache at ``cache_dir`` — a cheap progress probe,
    and the record the exactly-once checks compare against."""
    cache = ResultCache(cache_dir)
    return {job_id_from_key(job_key(job.name, job.params, job.seed))
            for job in _jobs(jobs)
            if cache.path(job.name, job.params, job.seed).is_file()}


def _runner(arena: _Arena, workers: int, **kwargs) -> ExperimentRunner:
    kwargs.setdefault("cache_dir", arena.cache_dir)
    kwargs.setdefault("ledger", False)
    return ExperimentRunner(max_workers=workers, observe=("metrics",), **kwargs)


def _metrics(runner: ExperimentRunner):
    """The runner's metrics registry; harness runners always collect.

    An explicit raise (not ``assert``) so the guard survives ``python -O``.
    """
    if runner.metrics is None:
        raise RuntimeError("harness runner was built without observing metrics")
    return runner.metrics


def _jobs_metric(runner: ExperimentRunner, **labels) -> float:
    return _metrics(runner).value("runner_jobs_total", **labels)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def scenario_kill(arena: _Arena, jobs: int, workers: int) -> ScenarioOutcome:
    """One worker SIGKILLed mid-sweep → pool rebuilt, every job completes."""
    out = ScenarioOutcome("kill")
    victim = derive_seed(0, 1)
    arena.arm(f"kill:seed={victim}")
    runner = _runner(arena, workers, timeout_s=SCENARIO_TIMEOUT_S)
    results = runner.run(_jobs(jobs))
    out.expect_eq("all jobs return results", len(results), jobs)
    out.expect_eq("every job recovered ok",
                  sum(r.ok for r in results), jobs)
    out.expect_eq("exactly one pool rebuild", runner.pool_rebuilds, 1)
    out.expect_eq("runner_pool_rebuilds_total",
                  _jobs_metric_total(runner, "runner_pool_rebuilds_total"), 1)
    out.expect_eq("one kill injected", arena.injected().get("kill", 0), 1)
    return out


def scenario_hang(arena: _Arena, jobs: int, workers: int) -> ScenarioOutcome:
    """One hung job → stale-heartbeat warning, *then* a structured
    timeout outcome; worker reclaimed."""
    out = ScenarioOutcome("hang")
    victim = derive_seed(0, 2)
    arena.arm(f"hang:seed={victim}:secs={HANG_SECS:g}")
    # Streaming with a tight heartbeat: the hung job must be flagged
    # stale well inside the 2 s deadline, not discovered by it.
    runner = _runner(arena, workers, timeout_s=SCENARIO_TIMEOUT_S,
                     stream=True, heartbeat_s=0.1, stale_after_s=0.5)
    results = runner.run(_jobs(jobs))
    timeouts = [r for r in results if r.outcome == "timeout"]
    out.expect_eq("all jobs return results", len(results), jobs)
    out.expect_eq("exactly one timeout outcome", len(timeouts), 1)
    out.expect("timeout hit the hung job",
               bool(timeouts) and timeouts[0].seed == victim,
               f"timed-out seed {timeouts[0].seed if timeouts else None}")
    out.expect("timeout error is structured",
               bool(timeouts) and str(timeouts[0].error).startswith("JobTimeout:"),
               str(timeouts[0].error) if timeouts else "")
    out.expect_eq("runner_jobs_total{outcome=timeout}",
                  _jobs_metric(runner, cache_hit="false", outcome="timeout"), 1)
    out.expect_eq("hung worker reclaimed (one rebuild)", runner.pool_rebuilds, 1)
    out.expect_eq("everything else ok",
                  sum(r.ok for r in results), jobs - 1)

    hung_id = job_id_from_key(
        job_key(registry.resolve(PROBE_EXPERIMENT), {}, victim))
    progress = runner.progress
    stale = [e for e in (progress.stale_events if progress else [])
             if e["job_id"] == hung_id]
    out.expect("stale heartbeat flagged for the hung job", bool(stale),
               f"stale job_ids {[e['job_id'] for e in progress.stale_events]}"
               if progress else "runner kept no progress")
    hung_job = progress.jobs.get(hung_id) if progress else None
    finished = hung_job.get("finished_mono") if hung_job else None
    out.expect("stale warning strictly precedes the timeout outcome",
               bool(stale) and finished is not None
               and stale[0]["at_mono"] < finished,
               f"stale at {stale[0]['at_mono'] if stale else None}, "
               f"job finished at {finished}")
    out.expect("runner_stale_heartbeats_total incremented",
               _jobs_metric_total(runner, "runner_stale_heartbeats_total") >= 1,
               f"got {_jobs_metric_total(runner, 'runner_stale_heartbeats_total')}")
    return out


def scenario_exc(arena: _Arena, jobs: int, workers: int) -> ScenarioOutcome:
    """One injected transient failure → retried with backoff, sweep clean."""
    out = ScenarioOutcome("exc")
    victim = derive_seed(0, 0)
    arena.arm(f"exc:seed={victim}")
    runner = _runner(arena, workers, retries=2, backoff_s=0.01)
    results = runner.run(_jobs(jobs))
    out.expect_eq("all jobs return results", len(results), jobs)
    out.expect_eq("transient failure retried to success",
                  sum(r.ok for r in results), jobs)
    out.expect_eq("exactly one retry", runner.retries_total, 1)
    out.expect_eq("runner_retries_total{error=ChaosTransientError}",
                  _metrics(runner).value("runner_retries_total",
                                         error="ChaosTransientError"), 1)
    out.expect_eq("one exc injected", arena.injected().get("exc", 0), 1)
    return out


def scenario_torn(arena: _Arena, jobs: int, workers: int) -> ScenarioOutcome:
    """One torn cache write → quarantined on re-read, job re-runs clean."""
    out = ScenarioOutcome("torn")
    victim = derive_seed(0, 1)
    arena.arm(f"torn:seed={victim}")
    first = _runner(arena, workers)
    results = first.run(_jobs(jobs))
    out.expect_eq("first sweep completes", sum(r.ok for r in results), jobs)
    out.expect_eq("one torn write injected", arena.injected().get("torn", 0), 1)
    arena.disarm()
    # Second run, cold process state, warm cache: the torn entry must
    # read as a miss (and be quarantined), never crash the run.
    second = _runner(arena, workers)
    results2 = second.run(_jobs(jobs))
    out.expect_eq("second sweep completes", sum(r.ok for r in results2), jobs)
    out.expect_eq("torn entry missed, everything else hit",
                  sum(r.cache_hit for r in results2), jobs - 1)
    corrupt = list(arena.cache_dir.glob("*/*.corrupt"))
    out.expect_eq("torn entry quarantined as .corrupt", len(corrupt), 1)
    return out


def scenario_ledger(arena: _Arena, jobs: int, workers: int) -> ScenarioOutcome:
    """One injected ledger I/O error → run unaffected, ledger short one line."""
    out = ScenarioOutcome("ledger")
    arena.arm("ledger")
    runner = _runner(arena, 1, ledger=RunLedger(arena.ledger_path))
    results = runner.run(_jobs(jobs))
    out.expect_eq("all jobs ok despite ledger fault",
                  sum(r.ok for r in results), jobs)
    ledger = RunLedger(arena.ledger_path)
    records = ledger.scan()
    out.expect_eq("exactly one append dropped", len(records), jobs - 1)
    out.expect_eq("no corrupt ledger lines", ledger.corrupt_lines, 0)
    out.expect_eq("one ledger fault injected", arena.injected().get("ledger", 0), 1)
    return out


def scenario_combined(arena: _Arena, jobs: int, workers: int) -> ScenarioOutcome:
    """The acceptance scenario: SIGKILL + hang + torn write in one
    16-job sweep; then a clean re-run on the same cache that re-executes
    only the timed-out job and the job whose cache entry was torn."""
    out = ScenarioOutcome("combined")
    jobs = max(jobs, 16)
    kill_seed = derive_seed(0, 1)
    hang_seed = derive_seed(0, 6)
    torn_seed = derive_seed(0, 11)
    arena.arm(
        f"kill:seed={kill_seed},"
        f"hang:seed={hang_seed}:secs={HANG_SECS:g},"
        f"torn:seed={torn_seed}"
    )
    runner = _runner(arena, workers, timeout_s=SCENARIO_TIMEOUT_S)
    results = runner.run(_jobs(jobs))
    timeouts = [r for r in results if r.outcome == "timeout"]
    out.expect_eq("all 16 jobs return results", len(results), jobs)
    out.expect_eq("one structured timeout", len(timeouts), 1)
    out.expect("timeout hit the hung job",
               bool(timeouts) and timeouts[0].seed == hang_seed,
               f"timed-out seed {timeouts[0].seed if timeouts else None}")
    out.expect_eq("everything else recovered ok",
                  sum(r.ok for r in results), jobs - 1)
    out.expect_eq("two pool rebuilds (kill + hung-worker reclaim)",
                  runner.pool_rebuilds, 2)
    out.expect_eq("runner_pool_rebuilds_total",
                  _jobs_metric_total(runner, "runner_pool_rebuilds_total"), 2)
    out.expect_eq("runner_jobs_total{outcome=timeout}",
                  _jobs_metric(runner, cache_hit="false", outcome="timeout"), 1)
    injected = arena.injected()
    out.expect_eq("injected counts exact",
                  (injected.get("kill", 0), injected.get("hang", 0),
                   injected.get("torn", 0)),
                  (1, 1, 1))

    # Resume with chaos disarmed by running again on the same cache: it
    # restores the 14 intact results; the timed-out job (never cached)
    # and the torn-write job (quarantined on read) re-execute.
    arena.disarm()
    resumed = _runner(arena, workers)
    results2 = resumed.run(_jobs(jobs))
    out.expect_eq("resume returns all 16", len(results2), jobs)
    out.expect_eq("resume finishes clean", sum(r.ok for r in results2), jobs)
    out.expect_eq("resume restored 14 from the cache",
                  _jobs_metric(resumed, cache_hit="true", outcome="ok"), jobs - 2)
    out.expect_eq("resume re-executed exactly 2 (timed out + torn)",
                  _jobs_metric(resumed, cache_hit="false", outcome="ok"), 2)
    out.expect_eq("torn entry quarantined as .corrupt",
                  len(list(arena.cache_dir.glob("*/*.corrupt"))), 1)
    return out


def scenario_sanitizer(arena: _Arena, jobs: int, workers: int) -> ScenarioOutcome:
    """One injected stored-bit corruption → the sanitizer trips, the job
    becomes a non-retried ``invariant`` outcome attributed to the right
    subsystem, a failure bundle lands on disk, and replaying that bundle
    reproduces the identical failure digest."""
    out = ScenarioOutcome("sanitizer")
    victim = derive_seed(0, 1)
    bundles = arena.root / "bundles"
    arena.set_env(sanit.ENV_SANITIZE, "full")
    arena.set_env(ENV_CAPTURE, str(bundles))
    arena.arm(f"corrupt:sub=dram.bank:seed={victim}")
    runner = _runner(arena, workers, retries=2, backoff_s=0.01)
    results = runner.run(_jobs(jobs))
    invariants = [r for r in results if r.outcome == "invariant"]
    out.expect_eq("all jobs return results", len(results), jobs)
    out.expect_eq("exactly one invariant outcome", len(invariants), 1)
    out.expect("violation hit the corrupted job",
               bool(invariants) and invariants[0].seed == victim,
               f"invariant seed {invariants[0].seed if invariants else None}")
    out.expect("violation attributed to dram.bank",
               bool(invariants) and str(invariants[0].error).startswith(
                   "InvariantViolation: [dram.bank]"),
               str(invariants[0].error) if invariants else "")
    out.expect_eq("violation never retried", runner.retries_total, 0)
    out.expect_eq("sanitizer_violations_total{subsystem=dram.bank}",
                  _metrics(runner).value("sanitizer_violations_total",
                                         subsystem="dram.bank"), 1)
    out.expect_eq("everything else ok", sum(r.ok for r in results), jobs - 1)
    out.expect_eq("one corruption injected",
                  arena.injected().get("corrupt", 0), 1)

    paths = sorted(bundles.glob("*.json")) if bundles.is_dir() else []
    out.expect_eq("one failure bundle written", len(paths), 1)
    if paths:
        record = load_bundle(paths[0])
        out.expect_eq("bundle outcome is invariant",
                      record.get("outcome"), "invariant")
        out.expect("bundle carries the sanitizer verdict",
                   isinstance(record.get("violation"), dict)
                   and record["violation"].get("subsystem") == "dram.bank",
                   repr(record.get("violation")))
        # Replay arms its own chaos/sanitizer state from the bundle.
        arena.disarm()
        report = replay_bundle(record)
        out.expect("replay reproduces the failure digest",
                   report.reproduced,
                   f"expected {report.expected_digest}, got {report.digest}")
    return out


def _jobs_metric_total(runner: ExperimentRunner, name: str) -> float:
    return _metrics(runner).value(name)


# ----------------------------------------------------------------------
# Service-layer scenarios (the ``repro serve`` daemon)
# ----------------------------------------------------------------------

#: How long the harness waits for a spawned daemon to publish its
#: endpoint and answer ``/healthz``.
SERVICE_READY_S = 30.0


def _daemon_env(arena: _Arena, chaos_spec: Optional[str] = None) -> Dict[str, str]:
    """A clean environment for a spawned daemon: this package importable,
    the arena's chaos schedule (and only it) armed."""
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + prior if prior else "")
    env.pop(chaos.ENV_CHAOS, None)
    env.pop(chaos.ENV_CHAOS_STATE, None)
    if chaos_spec is not None:
        env[chaos.ENV_CHAOS] = chaos_spec
        env[chaos.ENV_CHAOS_STATE] = str(arena.state_dir)
    return env


def _spawn_daemon(arena: _Arena, workers: int,
                  chaos_spec: Optional[str] = None) -> subprocess.Popen:
    """Start ``repro serve`` on the arena's service state dir.

    ``start_new_session`` puts the daemon and its pool workers in their
    own process group, so a scenario's SIGKILL takes down the whole
    tree — exactly what an OOM-kill or node loss does in production.
    """
    log = open(arena.root / "serve.log", "ab")
    try:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(arena.root / "svc"),
             "--workers", str(workers)],
            stdout=log, stderr=log, env=_daemon_env(arena, chaos_spec),
            start_new_session=True)
    finally:
        log.close()


def _await_client(arena: _Arena, proc: subprocess.Popen,
                  timeout_s: float = SERVICE_READY_S):
    """A client for the spawned daemon, once it answers ``/healthz``."""
    from repro.service import ServiceClient
    from repro.service.daemon import read_endpoint

    deadline = time.monotonic() + timeout_s
    state_dir = arena.root / "svc"
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited before becoming ready (rc {proc.returncode}; "
                f"see {arena.root / 'serve.log'})")
        record = read_endpoint(state_dir)
        if record is not None and record.get("pid") == proc.pid:
            client = ServiceClient(
                f"http://{record.get('host', '127.0.0.1')}:{record['port']}",
                retries=2, backoff_s=0.1)
            try:
                client.health()
                return client
            except Exception:
                pass
        time.sleep(0.05)
    raise RuntimeError(f"daemon never became ready within {timeout_s:g}s")


def _poll(predicate: Callable[[], bool], timeout_s: float,
          interval_s: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


def _raw_post(base_url: str, payload: dict, timeout_s: float = 5.0):
    """One un-retried POST /jobs: ``(status, retry_after, body)`` —
    scenarios asserting shed responses must see the raw status, not a
    client that retried past it."""
    request = urllib.request.Request(
        f"{base_url}/jobs", data=json.dumps(payload).encode("utf-8"),
        method="POST", headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            return (response.status, response.headers.get("Retry-After"),
                    json.loads(response.read() or b"{}"))
    except urllib.error.HTTPError as exc:
        blob = exc.read()
        try:
            body = json.loads(blob)
        except ValueError:
            body = {}
        return exc.code, exc.headers.get("Retry-After"), body


def _fresh_ledger_counts(path: Path) -> Dict[str, int]:
    """Fresh (non-cache-hit) successful executions per job_id — the
    exactly-once evidence."""
    counts: Dict[str, int] = {}
    for record in RunLedger(path).scan():
        if record.get("ok") and not record.get("cache_hit") \
                and record.get("job_id"):
            jid = record["job_id"]
            counts[jid] = counts.get(jid, 0) + 1
    return counts


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def scenario_service_kill(arena: _Arena, jobs: int, workers: int) -> ScenarioOutcome:
    """The acceptance scenario: a 16-job sweep submitted to the daemon,
    the daemon SIGKILLed mid-flight, restarted on the same state dir →
    the sweep completes with every job accounted for exactly once
    (journal, ledger, and result cache agree; no completed job re-runs)."""
    out = ScenarioOutcome("service_kill")
    jobs = max(jobs, 16)
    # Daemon workers=2 → chunks of 4; the hang pins job index 8, so
    # chunks 1–2 complete and the kill lands mid-chunk-3, always.
    victim = derive_seed(0, 8)
    svc_dir = arena.root / "svc"
    cache_dir = svc_dir / "cache"
    sid = None
    proc = _spawn_daemon(arena, workers=2,
                         chaos_spec=f"hang:seed={victim}:secs=60")
    try:
        client = _await_client(arena, proc)
        response = client.submit({"name": PROBE_EXPERIMENT, "seeds": jobs})
        sid = response["sid"]
        # Two chunks cached AND the chunk-3 victim already inside its
        # injected hang (the marker file is claimed before the sleep) —
        # the kill must land on a daemon with work in flight.
        reached = _poll(lambda: (len(_cached_job_ids(cache_dir, jobs)) >= 8
                                 and arena.injected().get("hang", 0) >= 1),
                        30.0)
        out.expect("daemon cached two chunks before the kill",
                   reached,
                   f"cache holds {len(_cached_job_ids(cache_dir, jobs))} "
                   f"of {jobs}, injected {arena.injected()}")
        # One daemon per state dir: a second one is refused while the
        # first is alive.
        second = _spawn_daemon(arena, workers=2)
        try:
            rc_second = second.wait(timeout=SERVICE_READY_S)
        except subprocess.TimeoutExpired:
            _kill_group(second)
            rc_second = second.wait(timeout=10)
        out.expect_eq("second daemon on the same state dir is refused",
                      rc_second, 2)
        _kill_group(proc)
        rc = proc.wait(timeout=10)
        out.expect_eq("daemon died by SIGKILL", rc, -signal.SIGKILL)
    finally:
        _kill_group(proc)
        proc.wait(timeout=10)
    out.expect_eq("one hang injected before the kill",
                  arena.injected().get("hang", 0), 1)

    # Restart on the same state dir, chaos disarmed: the journal replays
    # the pending submission; the cache restores completed jobs.
    proc2 = _spawn_daemon(arena, workers=2)
    try:
        client2 = _await_client(arena, proc2)
        record = client2.wait(sid, timeout_s=90.0)
        out.expect_eq("sweep completes after restart",
                      record.get("state"), "done")
        summary = record.get("summary") or {}
        out.expect_eq("all jobs in the final summary",
                      summary.get("jobs"), jobs)
        out.expect_eq("no errors after recovery", summary.get("errors"), 0)
        proc2.send_signal(signal.SIGTERM)
        rc2 = proc2.wait(timeout=30)
        out.expect_eq("restarted daemon drains to exit 0", rc2, 0)
    finally:
        _kill_group(proc2)
        proc2.wait(timeout=10)

    # Exactly-once accounting: cache, ledger, and journal agree.
    from repro.service import JobJournal

    cached_ids = _cached_job_ids(cache_dir, jobs)
    out.expect_eq("cache holds every job", len(cached_ids), jobs)
    fresh = _fresh_ledger_counts(svc_dir / "ledger.jsonl")
    out.expect("no job fresh-executed more than once",
               all(count == 1 for count in fresh.values()),
               f"duplicated: {[j for j, c in fresh.items() if c > 1]}")
    out.expect("every fresh execution is cached",
               set(fresh).issubset(cached_ids),
               f"unaccounted: {sorted(set(fresh) - cached_ids)}")
    ledger_ids = {r["job_id"] for r in RunLedger(svc_dir / "ledger.jsonl").scan()
                  if r.get("job_id")}
    out.expect_eq("ledger covers every cached job",
                  ledger_ids, cached_ids)
    replayed = JobJournal(svc_dir / "jobs.jsonl").replay()
    out.expect_eq("journal holds exactly one submission",
                  len(replayed.submits), 1)
    done = replayed.done.get(sid) or {}
    out.expect_eq("journal done record agrees on the job set",
                  set(done.get("job_ids") or []), cached_ids)
    return out


def scenario_service_drain(arena: _Arena, jobs: int, workers: int) -> ScenarioOutcome:
    """SIGTERM under load → admission stops (503 + Retry-After), the
    in-flight chunk lands in the cache, the daemon exits 0, and a restart
    finishes the remaining work without re-running the drained chunk."""
    out = ScenarioOutcome("service_drain")
    jobs = max(jobs, 16)
    # The hang pins a job in the *first* chunk and is finite (3 s): the
    # drain window is the remainder of that chunk.
    victim = derive_seed(0, 2)
    svc_dir = arena.root / "svc"
    cache_dir = svc_dir / "cache"
    sid = None
    proc = _spawn_daemon(arena, workers=2,
                         chaos_spec=f"hang:seed={victim}:secs=3")
    try:
        client = _await_client(arena, proc)
        response = client.submit({"name": PROBE_EXPERIMENT, "seeds": jobs})
        sid = response["sid"]
        in_flight = _poll(lambda: len(_cached_job_ids(cache_dir, jobs)) >= 1,
                          20.0)
        out.expect("first chunk in flight before SIGTERM", in_flight,
                   f"cache holds {len(_cached_job_ids(cache_dir, jobs))}")
        proc.send_signal(signal.SIGTERM)
        # Signal delivery is asynchronous: wait for the daemon to flip
        # to draining before probing admission (the 3 s hang holds the
        # drain window open far longer than delivery takes).
        _poll(lambda: client.health().get("status") == "draining", 10.0)
        health = client.health()
        out.expect_eq("health reports draining during drain",
                      health.get("status"), "draining")
        status, retry_after, _body = _raw_post(
            client.base_url, {"name": PROBE_EXPERIMENT, "seeds": 2,
                              "base_seed": 9999})
        out.expect_eq("submission during drain shed with 503", status, 503)
        out.expect("drain rejection carries Retry-After",
                   retry_after is not None and float(retry_after) >= 1,
                   f"Retry-After {retry_after!r}")
        rc = proc.wait(timeout=30)
        out.expect_eq("daemon drains to exit 0 under load", rc, 0)
    finally:
        _kill_group(proc)
        proc.wait(timeout=10)
    out.expect_eq("exactly the in-flight chunk was cached",
                  len(_cached_job_ids(cache_dir, jobs)), 4)
    from repro.service import JobJournal

    out.expect_eq("journal keeps the drained job pending",
                  JobJournal(svc_dir / "jobs.jsonl").replay().pending(),
                  [sid])

    proc2 = _spawn_daemon(arena, workers=2)
    try:
        client2 = _await_client(arena, proc2)
        record = client2.wait(sid, timeout_s=90.0)
        out.expect_eq("drained sweep completes after restart",
                      record.get("state"), "done")
        out.expect_eq("no errors after resume",
                      (record.get("summary") or {}).get("errors"), 0)
        proc2.send_signal(signal.SIGTERM)
        rc2 = proc2.wait(timeout=30)
        out.expect_eq("idle daemon drains to exit 0", rc2, 0)
    finally:
        _kill_group(proc2)
        proc2.wait(timeout=10)
    fresh = _fresh_ledger_counts(svc_dir / "ledger.jsonl")
    out.expect_eq("every job fresh-executed exactly once",
                  sorted(fresh.values()), [1] * jobs)
    out.expect_eq("cache holds every job",
                  len(_cached_job_ids(cache_dir, jobs)), jobs)
    return out


def scenario_service_torn(arena: _Arena, jobs: int, workers: int) -> ScenarioOutcome:
    """A torn journal append on the completion record → restart replay
    skips the torn tail, re-enqueues the job, and completes it from the
    cache instead of re-executing."""
    from repro.service import ExperimentService, JobJournal, ServiceClient

    out = ScenarioOutcome("service_torn")
    jobs = max(jobs, 2)
    svc_dir = arena.root / "svc"
    arena.arm("torn_journal:name=done")
    service = ExperimentService(svc_dir, port=0, workers=1).start()
    try:
        client = ServiceClient(service.url, retries=2, backoff_s=0.1)
        sid = client.submit({"name": PROBE_EXPERIMENT, "seeds": jobs})["sid"]
        record = client.wait(sid, timeout_s=60.0)
        out.expect_eq("job completes in the first incarnation",
                      record.get("state"), "done")
    finally:
        service.stop()
    out.expect_eq("one torn journal append injected",
                  arena.injected().get("torn_journal", 0), 1)
    raw = (svc_dir / "jobs.jsonl").read_bytes()
    out.expect("journal tail is torn (no trailing newline)",
               bool(raw) and not raw.endswith(b"\n"),
               f"last byte {raw[-1:]!r}")
    arena.disarm()

    service2 = ExperimentService(svc_dir, port=0, workers=1).start()
    try:
        out.expect_eq("replay counted the torn line",
                      service2.metrics.value("service_journal_corrupt_lines"), 1)
        out.expect_eq("replay re-enqueued the unfinished job",
                      service2.metrics.value("service_jobs_recovered_total"), 1)
        client2 = ServiceClient(service2.url, retries=2, backoff_s=0.1)
        record2 = client2.wait(sid, timeout_s=60.0)
        out.expect_eq("job completes after torn-tail replay",
                      record2.get("state"), "done")
        out.expect_eq("completed from cache, not re-executed",
                      (record2.get("summary") or {}).get("cache_hits"), jobs)
    finally:
        service2.stop()
    replayed = JobJournal(svc_dir / "jobs.jsonl").replay()
    out.expect_eq("second incarnation journaled the completion",
                  (replayed.done.get(sid) or {}).get("outcome"), "ok")
    out.expect_eq("post-torn appends parse (one corrupt line only)",
                  replayed.corrupt_lines, 1)
    return out


def scenario_service_shed(arena: _Arena, jobs: int, workers: int) -> ScenarioOutcome:
    """Queue overflow sheds with 429 + Retry-After; duplicates map onto
    the existing job; a retrying client eventually lands the shed
    submission; nothing runs twice."""
    from repro.service import ExperimentService, ServiceClient

    out = ScenarioOutcome("service_shed")
    svc_dir = arena.root / "svc"
    # The first job hangs 3 s in the (single) worker, pinning the queue
    # at its bound while the shed/duplicate probes run.
    arena.arm("hang:seed=11:secs=3")
    service = ExperimentService(svc_dir, port=0, workers=1,
                                max_queue=1).start()
    try:
        client = ServiceClient(service.url, retries=0)
        first = client.submit({"name": PROBE_EXPERIMENT, "seed": 11})
        running = _poll(
            lambda: client.job(first["sid"]).get("state") == "running", 10.0)
        out.expect("first job running (hung in the worker)", running)
        second = client.submit({"name": PROBE_EXPERIMENT, "seed": 22})
        out.expect_eq("second submission queued", second.get("state"),
                      "queued")
        status, retry_after, body = _raw_post(
            service.url, {"name": PROBE_EXPERIMENT, "seed": 33})
        out.expect_eq("overflow shed with 429", status, 429)
        out.expect("shed response carries Retry-After >= 1s",
                   retry_after is not None and float(retry_after) >= 1,
                   f"Retry-After {retry_after!r}")
        out.expect("shed body names the bound",
                   body.get("error") == "queue full", repr(body))
        duplicate = client.submit({"name": PROBE_EXPERIMENT, "seed": 22})
        out.expect("duplicate submission flagged, not re-queued",
                   duplicate.get("duplicate") is True
                   and duplicate.get("sid") == second.get("sid"),
                   repr(duplicate))
        patient = ServiceClient(service.url, retries=8, backoff_s=0.25)
        third = patient.submit({"name": PROBE_EXPERIMENT, "seed": 33})
        out.expect("shed submission admitted once the queue drains",
                   third.get("state") in ("queued", "running", "done"),
                   repr(third.get("state")))
        for sid in (first["sid"], second["sid"], third["sid"]):
            record = patient.wait(sid, timeout_s=60.0)
            out.expect_eq(f"job {sid} completes", record.get("state"), "done")
        out.expect("overflow rejections counted",
                   service.metrics.value("service_rejections_total",
                                         reason="overflow") >= 1)
        out.expect_eq("duplicate counted",
                      service.metrics.value("service_duplicates_total"), 1)
    finally:
        service.stop()
    fresh = _fresh_ledger_counts(svc_dir / "ledger.jsonl")
    out.expect_eq("each job fresh-executed exactly once",
                  sorted(fresh.values()), [1, 1, 1])
    return out


def scenario_service_poisoned(arena: _Arena, jobs: int,
                              workers: int) -> ScenarioOutcome:
    """A poisoned submission (timeout-exhausted job) co-scheduled with a
    healthy one: the poison fails *its* fault domain to a structured
    ``failed`` state without delaying or damaging the healthy
    submission, and a restart replays ``failed`` instead of re-running
    the poison."""
    from repro.service import ExperimentService, JobJournal, ServiceClient

    out = ScenarioOutcome("service_poisoned")
    svc_dir = arena.root / "svc"
    # The poisoned sweep's second job hangs past the 2 s per-job
    # deadline → a structured timeout outcome poisons its fault domain.
    victim = derive_seed(0, 1)
    arena.arm(f"hang:seed={victim}:secs=8")
    service = ExperimentService(svc_dir, port=0, workers=2,
                                max_concurrent=2, timeout_s=2.0).start()
    poisoned_sid = healthy_sid = None
    try:
        client = ServiceClient(service.url, retries=2, backoff_s=0.1)
        poisoned_sid = client.submit(
            {"name": PROBE_EXPERIMENT, "seeds": 6})["sid"]
        healthy_sid = client.submit(
            {"name": PROBE_EXPERIMENT, "seeds": 8, "base_seed": 777})["sid"]
        healthy = client.wait(healthy_sid, timeout_s=60.0)
        out.expect_eq("healthy submission completes",
                      healthy.get("state"), "done")
        out.expect_eq("healthy submission ran every job",
                      (healthy.get("summary") or {}).get("jobs"), 8)
        poisoned = client.wait(poisoned_sid, timeout_s=60.0)
        out.expect_eq("poisoned submission fails structurally",
                      poisoned.get("state"), "failed")
        out.expect("failure names the poison",
                   "timeout" in (poisoned.get("error") or ""),
                   repr(poisoned.get("error")))
        out.expect("poison stopped the fault domain early",
                   (poisoned.get("completed") or 0) < 6,
                   f"completed {poisoned.get('completed')}")
        # Co-scheduling proof: the healthy submission started while the
        # poisoned one (submitted first) was still in flight — a
        # serialized daemon would have parked it until the poison
        # settled.
        out.expect("healthy ran concurrently with the poison",
                   (healthy.get("started_ts") or 0)
                   < (poisoned.get("finished_ts") or 0),
                   f"healthy started {healthy.get('started_ts')}, "
                   f"poison finished {poisoned.get('finished_ts')}")
        out.expect_eq("failed outcome counted",
                      service.metrics.value("service_jobs_total",
                                            outcome="failed"), 1)
    finally:
        service.stop()
    arena.disarm()

    replayed = JobJournal(svc_dir / "jobs.jsonl").replay()
    out.expect_eq("journal records the failed outcome",
                  (replayed.done.get(poisoned_sid) or {}).get("outcome"),
                  "failed")
    out.expect_eq("nothing stays pending", replayed.pending(), [])

    service2 = ExperimentService(svc_dir, port=0, workers=2,
                                 max_concurrent=2).start()
    try:
        rec = service2.jobs.get(poisoned_sid)
        out.expect_eq("restart replays failed, not re-enqueued",
                      rec.state if rec is not None else None, "failed")
    finally:
        service2.stop()
    return out


#: name → (scenario fn, default job count)
SCENARIOS: Dict[str, Tuple[Callable[[_Arena, int, int], ScenarioOutcome], int]] = {
    "kill": (scenario_kill, 8),
    "hang": (scenario_hang, 8),
    "exc": (scenario_exc, 6),
    "torn": (scenario_torn, 6),
    "ledger": (scenario_ledger, 4),
    "sanitizer": (scenario_sanitizer, 6),
    "combined": (scenario_combined, 16),
    "service_kill": (scenario_service_kill, 16),
    "service_drain": (scenario_service_drain, 16),
    "service_torn": (scenario_service_torn, 2),
    "service_shed": (scenario_service_shed, 3),
    "service_poisoned": (scenario_service_poisoned, 6),
}


def run_scenario(name: str, root: Path, jobs: Optional[int] = None,
                 workers: int = 4) -> ScenarioOutcome:
    fn, default_jobs = SCENARIOS[name]
    arena = _Arena(root, name)
    try:
        return fn(arena, jobs or default_jobs, workers)
    finally:
        arena.restore()


def run_suite(names: Optional[List[str]] = None,
              workdir: Optional[Path] = None,
              jobs: Optional[int] = None,
              workers: int = 4,
              keep: bool = False) -> List[ScenarioOutcome]:
    """Run chaos scenarios; returns their outcomes (pass/fail + checks).

    The scratch ``workdir`` (caches, service state, chaos state) is
    deleted afterwards unless ``keep`` (or an explicit workdir) asks
    for it to stay for inspection.
    """
    selected = names or list(SCENARIOS)
    unknown = [n for n in selected if n not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown chaos scenario(s) {', '.join(unknown)}; "
            f"expected any of {', '.join(SCENARIOS)}"
        )
    owned = workdir is None
    root = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    try:
        return [run_scenario(n, root, jobs=jobs, workers=workers)
                for n in selected]
    finally:
        if owned and not keep:
            shutil.rmtree(root, ignore_errors=True)
