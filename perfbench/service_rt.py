"""The ``service_rt`` workload: ``repro serve`` driven by one closed-loop client.

The daemon runs in its own process on a fresh state directory (empty
journal, ledger and result cache) with ``--workers 2``.  One client,
holding one connection at a time (the daemon speaks HTTP/1.0, so every
request reconnects), submits the next job only after the previous one
reached a terminal state, polling ``/jobs/<sid>`` every
:data:`POLL_S`.  Between submissions it reads the status of an earlier
one.  Nothing inside the daemon is wrapped: per-layer numbers come from
client-side timings, the job records, ``/metrics`` and the state dir.

Client-side times, like daemon start-up, are rescaled to reference
seconds by the stand-in set-up probe (:func:`stats.import_time`) the
client runs before each mix cycle.  Over 30 paired cycles on a shared
2-vCPU host it tracked cycle times better than the warm calibration
loop the simulator workloads use (spread 0.13 against 0.32; 0.18
unscaled): the daemon's time goes to process start-up, imports and
small jobs, not to the calibration loop's kind of work.  Daemon-side
times are reported as the daemon recorded them.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import stats
from repro.experiments.result import canonical_json
from repro.experiments.runner import derive_seed, execute_job, job_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKERS = 2
#: Daemon spawns per run for ``setup_s`` besides the measured one.
SETUP_SPAWNS = 3
POLL_S = 0.005
SUBMIT_DEADLINE_S = 30.0
#: Mix cycles a run makes at least (21 submissions each), so the p90
#: keeps ten samples beyond it.
MIN_CYCLES = 5
TERMINAL = {"done", "error", "failed", "cancelled"}

TWOSTEP = ("twostep_study", {})
SWEEPS = 4
SWEEP_SEEDS = 4


def mix_cycle(rng: random.Random, previous_sweep: Optional[Dict[str, Any]]):
    """One cycle of twenty-one submissions in four latency classes plus a
    duplicate.  Every cycle is complete, so the class shares are fixed;
    the class sizes put p50 inside the sweep class and p90 inside the
    medium class, away from the class boundaries where a percentile
    would jump between classes.

    * six tiny experiments on fresh seeds: four ``twostep_study`` at
      ``derive_seed(base, 0)``, one ``rowhammer_basic`` and one
      ``para_reliability`` (analysis; seedless, so a fresh ``n_th``
      keeps it a cache miss);
    * two small ones: ``emerging_memory_study`` and a small
      ``retention_study``;
    * four sweeps of ``SWEEP_SEEDS`` seeds from the ``twostep_study``
      bases, so each starts with one cache hit and runs the rest as a
      chunked pool run with a checkpoint;
    * eight medium ``ecc_study`` runs.  (``fcr_study`` would fit here but
      raises ``ValueError`` for some seeds, e.g. 746867847, and the
      mix must not fail.)
    * one idempotent resubmission of the previous cycle's last sweep.
    """
    def fresh() -> int:
        return rng.randrange(1 << 30)

    bases = [fresh() for _ in range(SWEEPS)]
    tiny = [{"name": TWOSTEP[0], "params": TWOSTEP[1], "seed": derive_seed(base, 0)}
            for base in bases]
    tiny.append({"name": "rowhammer_basic", "params": {"victims": 8}, "seed": fresh()})
    tiny.append({"name": "para_reliability",
                 "params": {"n_th": float(rng.randrange(100_000, 200_000))}})
    small = [{"name": "emerging_memory_study", "params": {}, "seed": fresh()},
             {"name": "retention_study", "params": {"rows": 128, "cells_per_row": 256},
              "seed": fresh()}]
    sweeps = [{"name": TWOSTEP[0], "params": TWOSTEP[1], "seeds": SWEEP_SEEDS,
               "base_seed": base} for base in bases]
    medium = [{"name": "ecc_study", "params": {"victims": 10}, "seed": fresh()}
              for _ in range(8)]
    # Interleave the classes; each sweep follows the experiment it overlaps.
    cycle: List[Dict[str, Any]] = []
    for i in range(SWEEPS):
        cycle += [tiny[i], medium[2 * i], sweeps[i], medium[2 * i + 1]]
    cycle += [tiny[4], small[0], tiny[5], small[1], dict(previous_sweep or sweeps[0])]
    return cycle, sweeps[-1]


class Client:
    """JSON over one ``http.client`` connection object."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)

    def call(self, method: str, path: str, body: Any = None) -> Tuple[int, Any]:
        blob = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if blob else {}
        try:
            self.conn.request(method, path, body=blob, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            raise
        if response.will_close:
            self.conn.close()
        text = data.decode()
        return response.status, (json.loads(text) if text.startswith(("{", "[")) else text)

    def close(self) -> None:
        self.conn.close()


def spawn(state_dir: Path) -> Tuple[subprocess.Popen, int, float]:
    """Start a daemon; return it, its port and spawn→``live`` seconds."""
    state_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    log = open(state_dir / "daemon.log", "w")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state-dir", str(state_dir),
         "--port", "0", "--workers", str(WORKERS)],
        cwd=str(ROOT), env=env, stdout=log, stderr=subprocess.STDOUT)
    log.close()
    endpoint = state_dir / "service.json"
    deadline = start + 60.0
    port = None
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited with {proc.returncode}: "
                               f"{(state_dir / 'daemon.log').read_text()}")
        if port is None and endpoint.is_file():
            try:
                port = int(json.loads(endpoint.read_text())["port"])
            except (ValueError, KeyError):
                pass
        if port is not None:
            try:
                status, body = Client(port).call("GET", "/healthz")
                if status == 200 and body.get("status") == "live":
                    return proc, port, time.perf_counter() - start
            except CALL_ERRORS:
                pass
        time.sleep(0.002)
    stop(proc)
    raise RuntimeError("daemon did not become live within 60 s")


def stop(proc: subprocess.Popen) -> None:
    """Graceful drain (SIGTERM), then kill if it does not exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class Outcome:
    """One submission as the client saw it."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.spec = spec
        self.label = "ok"
        self.duplicate = False
        self.rt_s = 0.0
        self.admit_s = 0.0
        self.seen_terminal_ts = 0.0
        self.record: Dict[str, Any] = {}


#: Exceptions a request raises when the daemon does not answer.
CALL_ERRORS = (OSError, http.client.HTTPException)


def _failure(exc: BaseException) -> str:
    return "timeout" if isinstance(exc, TimeoutError) else "error"


def submit(client: Client, spec: Dict[str, Any]) -> Outcome:
    """One submission, polled to a terminal state.  A request the daemon
    does not answer (refused connection, socket timeout) labels the
    submission ``error`` or ``timeout`` instead of raising."""
    out = Outcome(spec)
    start = time.perf_counter()
    try:
        status, body = client.call("POST", "/jobs", spec)
        out.admit_s = time.perf_counter() - start
        if status in (429, 503):
            out.label = "refused"
            return out
        if status not in (200, 202):
            out.label = "error"
            return out
        out.duplicate = bool(body.get("duplicate"))
        sid = body["sid"]
        record = body
        while record.get("state") not in TERMINAL:
            if time.perf_counter() - start > SUBMIT_DEADLINE_S:
                out.label = "timeout"
                return out
            time.sleep(POLL_S)
            status, record = client.call("GET", f"/jobs/{sid}")
            if status != 200:
                out.label = "error"
                return out
        out.seen_terminal_ts = time.time()
        out.rt_s = time.perf_counter() - start
        if out.duplicate:  # the 200 body is brief; fetch the full record
            status, record = client.call("GET", f"/jobs/{sid}")
    except CALL_ERRORS as exc:
        out.label = _failure(exc)
        print(f"submission {out.label}: {type(exc).__name__}: {exc}")
        return out
    out.record = record
    if record.get("state") != "done":
        out.label = "error"
    return out


def drive(client: Client, proc: subprocess.Popen, seed: int,
          seconds: float) -> Tuple[List[Outcome], List[float]]:
    """The closed loop; returns every submission and each complete
    cycle's wall, in reference seconds.  Stops early if the daemon exits."""
    rng = random.Random(f"service_rt:{seed}")
    outcomes: List[Outcome] = []
    cycle_walls: List[float] = []
    sids: List[str] = []
    previous = None
    deadline = time.perf_counter() + seconds
    while len(cycle_walls) < MIN_CYCLES or time.perf_counter() < deadline:
        specs, previous = mix_cycle(rng, previous)
        factor = stats.IMPORT_REFERENCE_S / stats.import_time()
        start = time.perf_counter()
        for spec in specs:
            out = submit(client, spec)
            out.rt_s *= factor
            out.admit_s *= factor
            outcomes.append(out)
            if proc.poll() is not None:
                print(f"daemon exited with {proc.returncode} mid-cycle")
                return outcomes, cycle_walls
            if out.record.get("sid"):
                sids.append(out.record["sid"])
            if sids:  # a status read between submissions
                try:
                    client.call("GET", f"/jobs/{rng.choice(sids)}")
                except CALL_ERRORS:
                    pass  # the next submission fails and says why
        cycle_walls.append((time.perf_counter() - start) * factor)
    return outcomes, cycle_walls


def check_payloads(outcomes: List[Outcome], state_dir: Path) -> None:
    """Each job's payload against an in-process ``execute_job`` of the
    same (name, params, seed); a mismatch fails its submission."""
    oracle: Dict[str, str] = {}

    def expected(name: str, params: Dict[str, Any], seed: int) -> str:
        key = job_key(name, params, seed)
        if key not in oracle:
            oracle[key] = execute_job(name, params, seed).payload_json()
        return oracle[key]

    for out in outcomes:
        if out.label != "ok":
            continue
        spec = out.spec
        name, params = spec["name"], spec["params"]
        if "seeds" not in spec:  # an experiment's record carries its payload
            got = [(spec.get("seed", 0), out.record.get("result", {}).get("payload"))]
        else:  # a sweep's members are read back from the result cache
            got = []
            for i in range(spec["seeds"]):
                seed = derive_seed(spec["base_seed"], i)
                path = state_dir / "cache" / name / f"{job_key(name, params, seed)}.json"
                try:
                    got.append((seed, json.loads(path.read_text())["payload"]))
                except (OSError, ValueError, KeyError):
                    got.append((seed, None))
        if any(payload is None or canonical_json(payload) != expected(name, params, seed)
               for seed, payload in got):
            out.label = "mismatch"


def durable_records(state_dir: Path) -> int:
    """Records written to the journal, ledger, checkpoints and cache."""
    def lines(path: Path) -> int:
        with open(path, "rb") as handle:
            return sum(1 for _ in handle)

    total = lines(state_dir / "jobs.jsonl") + lines(state_dir / "ledger.jsonl")
    total += sum(lines(p) for p in (state_dir / "checkpoints").glob("*.jsonl"))
    total += sum(1 for _ in (state_dir / "cache").glob("*/*.json"))
    return total


def _median(values: List[float]) -> float:
    return stats.median(values) if values else 0.0


def _ms_median(values: List[float]) -> float:
    return _median(values) * 1e3


def run(args, emit, end_to_end: Dict[str, str], per_layer: Dict[str, str]) -> None:
    OUT.mkdir(exist_ok=True)
    tag = f"service-seed{args.seed}-{os.getpid()}"
    setup: List[float] = []
    dirs: List[Path] = []
    proc: Optional[subprocess.Popen] = None
    try:
        if not args.trace:
            for i in range(SETUP_SPAWNS):
                dirs.append(OUT / f"{tag}-probe{i}")
                factor = stats.IMPORT_REFERENCE_S / stats.import_time()
                probe, _port, seconds = spawn(dirs[-1])
                setup.append(seconds * factor)
                stop(probe)
        state_dir = OUT / tag
        dirs.append(state_dir)
        factor = stats.IMPORT_REFERENCE_S / stats.import_time()
        proc, port, seconds = spawn(state_dir)
        setup.append(seconds * factor)
        client = Client(port)
        outcomes, cycle_walls = drive(client, proc, args.seed, args.seconds)
        alive = proc.poll() is None
        exposition = client.call("GET", "/metrics")[1] if alive else ""
        rss = peak_rss_mb(proc.pid) if alive else 0.0
        client.close()
        stop(proc)
        if alive and proc.returncode != 0:
            raise RuntimeError(f"daemon drain exited {proc.returncode}")
        proc = None
        check_payloads(outcomes, state_dir)
        records = durable_records(state_dir)
    finally:
        if proc is not None:
            stop(proc)
        for path in dirs:
            shutil.rmtree(path, ignore_errors=True)

    attempted, failed, _rate = stats.error_rate(o.label for o in outcomes)
    for out in outcomes:
        if out.label != "ok":
            print(f"failed ({out.label}): {json.dumps(out.spec)} -> state "
                  f"{out.record.get('state')!r} error {out.record.get('error')!r}")
    rts = [o.rt_s for o in outcomes if o.label == "ok"]
    fresh = [o for o in outcomes if o.label == "ok" and not o.duplicate]
    jobs = sum(o.record["summary"]["jobs"] for o in fresh)
    hits = sum(o.record["summary"]["cache_hits"] for o in fresh)
    tail = stats.reportable_percentile(rts)
    q, p90 = tail if tail is not None else (0.0, max(rts, default=0.0))
    print(f"service_rt seed={args.seed}: {len(cycle_walls)} cycles, {attempted} submissions "
          f"({sum(o.duplicate for o in outcomes)} duplicates), {jobs} runner jobs, "
          f"{hits} cache hits; tail percentile q={q}; setup samples "
          f"{['%.3f' % s for s in setup]}")
    print(f"output check: {'ok' if not failed else f'{failed} failed'} "
          f"(every submission done; payloads equal in-process execute_job)")
    if args.trace:
        families = [line for line in exposition.splitlines()
                    if line.startswith(("service_chunks_total", "service_admissions_total",
                                        "service_duplicates_total", "runner_jobs_total"))]
        print("/metrics: " + "; ".join(families))
        metrics = {name: 0.0 for name in per_layer}
        metrics.update({
            "service.admit_p50_ms": _ms_median([o.admit_s for o in fresh]),
            "service.queue_wait_p50_ms": _ms_median(
                [o.record["started_ts"] - o.record["submitted_ts"] for o in fresh]),
            "service.poll_lag_p50_ms": _ms_median(
                [o.seen_terminal_ts - o.record["finished_ts"] for o in fresh]),
            "service.durable_records_per_job": records / max(1, jobs),
            "runner.exec_p50_ms": _ms_median(
                [o.record["summary"]["duration_s"] for o in fresh]),
            "runner.overhead_p50_ms": _ms_median(
                [o.record["wall_s"] - o.record["summary"]["duration_s"] for o in fresh]),
            "runner.cache_hit_ratio": hits / max(1, jobs),
            "runner.jobs": jobs,
        })
        emit(not failed, attempted, failed, metrics, per_layer)
        return
    # A run cut short by a dead daemon still prints its result line.
    metrics = {
        "setup_s": stats.median(setup),
        "wall_s": _median(cycle_walls),
        "peak_rss_mb": rss,
        "rt_p50_ms": _ms_median(rts),
        "rt_p90_ms": p90 * 1e3,
        "jobs_per_s": jobs / max(sum(cycle_walls), 1e-9),
    }
    emit(not failed, attempted, failed, metrics, end_to_end)
