"""Hardened execution: timeouts, errored jobs, pool recovery, cache
corruption quarantine, and SIGINT survivability."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.experiments import (
    ExperimentRunner,
    Job,
    JobTimeout,
    WorkerPool,
    derive_seed,
    execute_job,
    execute_job_safe,
)
from repro.experiments.runner import ResultCache, call_with_deadline
from repro.experiments.registry import experiment, unregister
from repro.telemetry import runtime as telem

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool tests rely on fork inheriting the test-registered experiment",
)


@pytest.fixture()
def sleeper():
    """Registered experiment that sleeps `secs` before returning."""

    @experiment("_sleeper_probe", "sleeps on demand", section="II", tags=("test",))
    def _sleeper_probe(secs: float = 0.0, seed: int = 0):
        if secs:
            time.sleep(secs)
        return {"seed": seed}

    yield "_sleeper_probe"
    unregister("_sleeper_probe")


@pytest.fixture()
def hard_failures():
    """Experiment raising MemoryError / SystemExit by seed."""

    @experiment("_hard_probe", "raises unpleasant things", section="II",
                tags=("test",))
    def _hard_probe(seed: int = 0):
        if seed == 1:
            raise MemoryError("simulated OOM")
        if seed == 2:
            sys.exit(3)
        return {"seed": seed}

    yield "_hard_probe"
    unregister("_hard_probe")


class TestClassification:
    def test_memory_error_and_system_exit_become_results(self, hard_failures):
        oom = execute_job_safe(hard_failures, seed=1)
        assert oom.error.startswith("MemoryError:")
        assert oom.outcome == "error"
        bail = execute_job_safe(hard_failures, seed=2)
        assert bail.error == "SystemExit: 3"

    def test_system_exit_surfaces_in_job_end_trace(self, hard_failures):
        from repro.telemetry import runtime as telem

        recorder = telem.enable_tracing(fresh=True)
        execute_job_safe(hard_failures, seed=2)
        ends = [e for e in recorder.events() if e.kind == "job_end"]
        assert ends and ends[0].fields["error"].startswith("SystemExit")
        assert ends[0].fields["ok"] is False


class TestTimeouts:
    def test_call_with_deadline_passthrough(self):
        assert call_with_deadline(lambda: 42, None) == 42
        assert call_with_deadline(lambda: 42, 10.0) == 42

    def test_call_with_deadline_raises_job_timeout(self):
        with pytest.raises(JobTimeout):
            call_with_deadline(lambda: time.sleep(5), 0.1)

    def test_serial_timeout_yields_structured_outcome(self, sleeper):
        runner = ExperimentRunner(timeout_s=0.2, observe=("metrics",),
                                  ledger=False)
        results = runner.run([Job(sleeper, {"secs": 5.0}, 0),
                              Job(sleeper, {}, 1)])
        assert len(results) == 2
        assert results[0].outcome == "timeout"
        assert results[0].error.startswith("JobTimeout:")
        assert results[0].payload is None
        assert results[1].ok
        assert runner.metrics.value("runner_jobs_total",
                                    cache_hit="false", outcome="timeout") == 1

    def test_per_job_override_beats_runner_default(self, sleeper):
        runner = ExperimentRunner(timeout_s=0.1, ledger=False)
        results = runner.run([Job(sleeper, {"secs": 0.3}, 0, timeout_s=5.0)])
        assert results[0].ok  # the generous override applied

    def test_timeouts_never_reach_the_cache(self, sleeper, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, timeout_s=0.2,
                                  ledger=False)
        runner.run([Job(sleeper, {"secs": 5.0}, 0)])
        again = ExperimentRunner(cache_dir=tmp_path, ledger=False)
        fresh = again.run([Job(sleeper, {"secs": 0.0}, 0)])
        assert fresh[0].ok and not fresh[0].cache_hit

    @fork_only
    def test_pool_timeout_reclaims_hung_worker(self, sleeper):
        runner = ExperimentRunner(max_workers=2, timeout_s=0.5,
                                  observe=("metrics",), ledger=False)
        jobs = [Job(sleeper, {"secs": 30.0}, 0)] + [
            Job(sleeper, {}, s) for s in (1, 2, 3)
        ]
        start = time.monotonic()
        results = runner.run(jobs)
        assert time.monotonic() - start < 10  # no 30 s hang
        assert len(results) == 4
        assert results[0].outcome == "timeout"
        assert sum(r.ok for r in results) == 3
        assert runner.pool_rebuilds == 1
        assert runner.metrics.value("runner_pool_rebuilds_total") == 1


class TestPoolRecovery:
    @fork_only
    def test_worker_sigkill_rebuilds_and_requeues(self, sleeper, monkeypatch,
                                                  tmp_path):
        victim = derive_seed(0, 0)
        monkeypatch.setenv("REPRO_CHAOS", f"kill:seed={victim}")
        monkeypatch.setenv("REPRO_CHAOS_STATE", str(tmp_path / "state"))
        from repro import chaos
        chaos.reset()
        try:
            runner = ExperimentRunner(max_workers=2, observe=("metrics",),
                                      ledger=False)
            jobs = [Job(sleeper, {}, derive_seed(0, i)) for i in range(4)]
            results = runner.run(jobs)
        finally:
            chaos.reset()
        assert len(results) == 4
        assert all(r.ok for r in results)
        assert runner.pool_rebuilds == 1
        assert runner.metrics.value("runner_pool_rebuilds_total") == 1

    @fork_only
    def test_spent_rebuild_budget_fails_the_rest(self, sleeper, monkeypatch,
                                                 tmp_path):
        # Every job kills its worker: the one rebuild is spent, and the
        # batch ends in errors instead of running in this process.
        from repro import chaos
        from repro.experiments import runner as runner_module

        monkeypatch.setattr(runner_module, "MAX_POOL_REBUILDS", 1)
        monkeypatch.setenv("REPRO_CHAOS", "kill:once=0")
        monkeypatch.setenv("REPRO_CHAOS_STATE", str(tmp_path / "state"))
        chaos.reset()
        cache = tmp_path / "cache"
        jobs = [Job(sleeper, {}, derive_seed(0, i)) for i in range(3)]
        try:
            runner = ExperimentRunner(cache_dir=cache, max_workers=2,
                                      ledger=False)
            results = runner.run(jobs)
        finally:
            chaos.reset()
        assert [r.error.split(":", 1)[0] for r in results] == \
            ["BrokenProcessPool"] * 3
        assert runner.pool_rebuilds == 1
        assert not list(cache.glob("*/*.json"))  # nothing cached
        monkeypatch.delenv("REPRO_CHAOS")
        chaos.reset()
        rerun = ExperimentRunner(cache_dir=cache, max_workers=2,
                                 ledger=False).run(jobs)
        assert [(r.ok, r.cache_hit) for r in rerun] == [(True, False)] * 3

    @fork_only
    def test_timeout_rebuilds_do_not_spend_the_budget(self, sleeper):
        # One worker, so every slow job is reclaimed by its own rebuild:
        # four rebuilds, one past the crash budget, and still every
        # healthy job finishes.
        from repro.experiments.runner import MAX_POOL_REBUILDS

        slow = MAX_POOL_REBUILDS + 1
        jobs = []
        for i in range(slow):
            jobs += [Job(sleeper, {"secs": 30.0}, 2 * i),
                     Job(sleeper, {}, 2 * i + 1)]
        pool = WorkerPool(1)
        try:
            runner = ExperimentRunner(pool=pool, timeout_s=0.3, ledger=False)
            start = time.monotonic()
            results = runner.run(jobs)
        finally:
            pool.close()
        assert time.monotonic() - start < 20
        assert [r.outcome for r in results] == ["timeout", "ok"] * slow
        assert all(r.error.startswith("JobTimeout:")
                   for r in results[::2])
        assert runner.pool_rebuilds == slow


#: A process that starts an idle two-worker pool through ``WorkerPool``
#: with the start method named in ``argv[1]``, prints the worker pids,
#: and then waits to be killed.
_POOL_PARENT = """
import multiprocessing, os, sys, time
if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    from repro.experiments.runner import WorkerPool
    executor = WorkerPool(2).get()
    executor.submit(os.getpid).result()
    print(*executor._processes, flush=True)
    time.sleep(120)
"""


def _running(pid):
    """Is ``pid`` a live process?  A zombie (exited, not yet reaped by
    whoever inherited it) counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestWorkerPool:
    """The borrowed-pool path itself is exercised through the service
    (``tests/test_service.py::TestWarmPool``)."""

    def test_streaming_runner_cannot_borrow_a_pool(self):
        with pytest.raises(ValueError, match="cannot borrow"):
            ExperimentRunner(stream=True, ledger=False, pool=WorkerPool(2))

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="reads process state from /proc")
    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_idle_workers_exit_when_parent_is_killed(self, method):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))))
        parent = subprocess.Popen(
            [sys.executable, "-c", _POOL_PARENT, method],
            stdout=subprocess.PIPE, text=True, env=env)
        workers = []
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert workers  # fork starts both; spawn starts them on demand
            parent.kill()
            parent.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(map(_running, workers)):
                time.sleep(0.05)
            assert not [pid for pid in workers if _running(pid)]
        finally:
            parent.kill()
            for pid in workers:  # never leak them, even on failure
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            parent.communicate()


def _in_threads(fns, timeout_s=120.0):
    """Start every ``fn`` on its own thread at once; return their results."""
    barrier = threading.Barrier(len(fns))
    out, errors = [None] * len(fns), []

    def call(i, fn):
        barrier.wait()
        try:
            out[i] = fn()
        except BaseException as exc:  # surfaced below, in the test thread
            errors.append(exc)

    threads = [threading.Thread(target=call, args=(i, fn))
               for i, fn in enumerate(fns)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout_s)
        assert not thread.is_alive(), "a job thread hung"
    if errors:
        raise errors[0]
    return out


class TestConcurrentJobs:
    """Runners and jobs on different threads of one process keep their
    own run ID and sinks."""

    def test_concurrent_in_process_metrics_match_solo_runs(self):
        @experiment("_metered_probe", "counts steps, yielding between them",
                    section="II", tags=("test",))
        def _metered_probe(seed: int = 0):
            for _ in range(20):
                if telem.metrics_on:
                    telem.counter("probe_steps_total", seed=seed).inc()
                time.sleep(0.002)
            return {"seed": seed}

        switch_interval = sys.getswitchinterval()
        try:
            # More threads than cores, switching often.
            jobs = [("_metered_probe", 1), ("rowhammer_basic", 0),
                    ("_metered_probe", 2), ("rowhammer_basic", 1)]
            solo = [execute_job(name, seed=seed, observe=("metrics",)).metrics
                    for name, seed in jobs]
            original = telem.get_registry()
            sys.setswitchinterval(1e-5)
            together = _in_threads([
                lambda name=name, seed=seed: execute_job(
                    name, seed=seed, observe=("metrics",)).metrics
                for name, seed in jobs])
        finally:
            sys.setswitchinterval(switch_interval)
            unregister("_metered_probe")
        assert together == solo
        assert telem.get_registry() is original
        assert not telem.metrics_on

    def test_concurrent_runners_stamp_their_own_run_id(self):
        def drive(runner):
            results = []
            for round_ in range(3):
                results += runner.run([Job("sidedness_ablation", {}, 10 * round_ + k)
                                       for k in (0, 1)])      # pool batch
                results += runner.run([Job("twostep_study", {}, round_)])  # in-process
            return runner.run_id, results

        runners = [ExperimentRunner(max_workers=2, ledger=False)
                   for _ in range(3)]
        for run_id, results in _in_threads(
                [lambda r=r: drive(r) for r in runners]):
            assert len(results) == 9 and all(r.ok for r in results)
            assert [r.run_id for r in results] == [run_id] * 9

    def test_timed_one_job_batch_off_main_thread_times_out(self, monkeypatch,
                                                          tmp_path):
        # SIGALRM cannot reach a chunk thread; the pool enforces it.
        monkeypatch.setenv("REPRO_CHAOS", "hang:seed=7:secs=3")
        monkeypatch.setenv("REPRO_CHAOS_STATE", str(tmp_path / "state"))
        from repro import chaos
        chaos.reset()
        try:
            runner = ExperimentRunner(timeout_s=1.0, ledger=False)
            [results] = _in_threads(
                [lambda: runner.run([Job("sidedness_ablation", {}, 7)])])
        finally:
            chaos.reset()
        assert results[0].outcome == "timeout"
        assert results[0].duration_s < 3.0

    @fork_only
    def test_pool_forked_while_job_lock_held_finishes(self):
        held, release = threading.Event(), threading.Event()

        def hold():
            with telem.job_lock:
                held.set()
                release.wait(30)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(5)
            runner = ExperimentRunner(max_workers=2, timeout_s=20,
                                      ledger=False)
            results = runner.run([Job("sidedness_ablation", {}, s)
                                  for s in (0, 1)])
        finally:
            release.set()
            holder.join(30)
        assert not holder.is_alive()
        assert [r.outcome for r in results] == ["ok", "ok"]


class TestCacheCorruption:
    def _prime(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, ledger=False)
        result = runner.run([Job("sidedness_ablation", {}, 4)])[0]
        path = runner.cache.path(result.name, result.params, result.seed)
        assert path.is_file()
        return runner, path

    def _assert_quarantined_miss(self, tmp_path, path):
        runner = ExperimentRunner(cache_dir=tmp_path, ledger=False)
        rerun = runner.run([Job("sidedness_ablation", {}, 4)])[0]  # must not raise
        assert rerun.ok and not rerun.cache_hit  # corrupt entry read as a miss
        assert list(path.parent.glob("*.corrupt"))  # and was quarantined
        # The re-run repopulated the entry; a third run hits it cleanly.
        assert runner.run([Job("sidedness_ablation", {}, 4)])[0].cache_hit

    def test_truncated_json_is_quarantined(self, tmp_path):
        _, path = self._prime(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        self._assert_quarantined_miss(tmp_path, path)

    def test_wrong_schema_record_is_quarantined(self, tmp_path):
        _, path = self._prime(tmp_path)
        path.write_text(json.dumps({"something": "else"}))
        self._assert_quarantined_miss(tmp_path, path)

    def test_empty_file_is_quarantined(self, tmp_path):
        _, path = self._prime(tmp_path)
        path.write_text("")
        self._assert_quarantined_miss(tmp_path, path)

    def test_non_object_json_is_quarantined(self, tmp_path):
        _, path = self._prime(tmp_path)
        path.write_text("[1, 2, 3]")
        self._assert_quarantined_miss(tmp_path, path)


class TestCacheWriteSafety:
    def test_tmp_names_are_unique_per_writer(self, tmp_path):
        # The staging name embeds pid + nonce: concurrent writers of the
        # same key can never clobber each other's tmp file.
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(cache_dir=tmp_path, ledger=False)
        result = runner.run([Job("sidedness_ablation", {}, 0)])[0]
        path = cache.path(result.name, result.params, result.seed)
        seen = set()
        real_replace = os.replace

        def spy(src, dst):
            seen.add(os.path.basename(src))
            return real_replace(src, dst)

        os.replace = spy
        try:
            cache.put(result)
            cache.put(result)
        finally:
            os.replace = real_replace
        assert len(seen) == 2  # two writes, two distinct staging names
        assert all(f".tmp.{os.getpid()}." in name for name in seen)
        assert path.is_file()

    def test_stale_tmps_are_swept_on_init(self, tmp_path):
        sub = tmp_path / "sidedness_ablation"
        sub.mkdir()
        stale = sub / "abc.json.tmp.999.dead"
        stale.write_text("{")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = sub / "abc.json.tmp.1000.live"
        fresh.write_text("{")
        ResultCache(tmp_path)
        assert not stale.exists()  # crash leftover removed
        assert fresh.exists()  # live writer untouched


class TestSigintSurvivability:
    def test_interrupted_sweep_loses_no_completed_results(self, tmp_path):
        """SIGINT mid-sweep: completed jobs are flushed to the cache; a
        plain re-run re-executes only the unfinished remainder (asserted
        by the job-count telemetry in the metrics snapshot)."""
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": str((
                __import__("pathlib").Path(__file__).resolve().parent.parent / "src"
            )),
            "REPRO_LEDGER": "off",
            # One job hangs forever (no seed filter: first claimant).
            "REPRO_CHAOS": "hang:secs=120",
            "REPRO_CHAOS_STATE": str(tmp_path / "state"),
        })
        cache = tmp_path / "cache"
        argv = [sys.executable, "-m", "repro", "sweep", "sidedness_ablation",
                "--seeds", "8", "--parallel", "2", "--cache-dir", str(cache)]
        proc = subprocess.Popen(argv, env=env, start_new_session=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        deadline = time.monotonic() + 30
        def cached():
            return len(list((cache / "sidedness_ablation").glob("*.json")))

        # Wait until the non-hung jobs have been flushed, then interrupt.
        while time.monotonic() < deadline:
            if cached() >= 7:
                break
            time.sleep(0.1)
        os.kill(proc.pid, signal.SIGINT)
        _, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 130, stderr
        assert "re-run the same command" in stderr
        assert cached() == 7  # everything except the hung job

        env.pop("REPRO_CHAOS")  # the re-run resumes clean
        metrics_out = tmp_path / "metrics.json"
        resumed = subprocess.run(
            argv + ["--metrics", "--metrics-out", str(metrics_out)],
            env=env, capture_output=True, text=True, timeout=60)
        assert resumed.returncode == 0, resumed.stderr
        snapshot = json.loads(metrics_out.read_text())["metrics"]
        counts = {}
        for entry in snapshot["counters"]:
            if entry["name"] == "runner_jobs_total":
                counts[entry["labels"]["cache_hit"]] = (
                    counts.get(entry["labels"]["cache_hit"], 0) + entry["value"]
                )
        assert counts.get("true", 0) == 7  # restored, not re-executed
        assert counts.get("false", 0) == 1  # only the interrupted job re-ran


class TestSigtermDrain:
    def test_sigterm_drains_with_143_and_resume_hint(self, tmp_path):
        """SIGTERM mid-sweep is a graceful drain, not an abort: completed
        jobs are flushed, the exit code is the conventional 143 (so a
        supervisor can tell drain from crash), and stderr says how to
        resume: run the same command again."""
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": str((
                __import__("pathlib").Path(__file__).resolve().parent.parent / "src"
            )),
            "REPRO_LEDGER": "off",
            "REPRO_CHAOS": "hang:secs=120",
            "REPRO_CHAOS_STATE": str(tmp_path / "state"),
        })
        cache = tmp_path / "cache"
        argv = [sys.executable, "-m", "repro", "sweep", "sidedness_ablation",
                "--seeds", "8", "--parallel", "2", "--cache-dir", str(cache)]
        proc = subprocess.Popen(argv, env=env, start_new_session=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        deadline = time.monotonic() + 30
        def cached():
            return len(list((cache / "sidedness_ablation").glob("*.json")))

        while time.monotonic() < deadline:
            if cached() >= 7:
                break
            time.sleep(0.1)
        os.kill(proc.pid, signal.SIGTERM)
        _, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 143, stderr
        assert "terminated (graceful drain)" in stderr
        assert "re-run the same command" in stderr
        assert cached() == 7

        env.pop("REPRO_CHAOS")
        resumed = subprocess.run(argv, env=env,
                                 capture_output=True, text=True, timeout=60)
        assert resumed.returncode == 0, resumed.stderr
        assert cached() == 8


class TestCacheWriteDegrade:
    def test_put_failure_returns_none_and_warns_once(self, tmp_path, capsys,
                                                     monkeypatch):
        """ENOSPC/EACCES on a cache write degrades to uncached: put()
        reports None, tallies, warns exactly once, and leaves no
        half-written staging file behind."""
        cache = ResultCache(tmp_path / "cache")
        result = ExperimentRunner(ledger=False).run(
            [Job("sidedness_ablation", {}, 0)])[0]

        def enospc(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", enospc)
        assert cache.put(result) is None
        assert cache.put(result) is None
        assert cache.write_errors == 2
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert err.count("continuing uncached") == 1
        assert not list((tmp_path / "cache").glob("**/*.tmp*"))

    def test_runner_completes_and_counts_cache_write_failures(self, tmp_path,
                                                              monkeypatch):
        runner = ExperimentRunner(cache_dir=tmp_path / "cache",
                                  max_workers=1, observe=("metrics",),
                                  ledger=False)
        monkeypatch.setattr(runner.cache, "put", lambda result: None)
        results = runner.run(
            [Job("sidedness_ablation", {}, seed=s) for s in range(3)])
        assert all(r.error is None for r in results)
        assert runner.metrics.value("cache_write_errors_total") == 3
