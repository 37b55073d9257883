"""Hardened execution: timeouts, retry classification, pool recovery,
cache corruption quarantine, and SIGINT survivability."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments import (
    ExperimentRunner,
    Job,
    JobTimeout,
    derive_seed,
    error_class,
    execute_job,
    execute_job_safe,
    is_retryable,
    retry_backoff_s,
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
def transient_then_ok(tmp_path):
    """Experiment that raises ConnectionError until a flag file exists."""
    flag = tmp_path / "recovered"

    @experiment("_transient_probe", "fails until the flag exists",
                section="II", tags=("test",))
    def _transient_probe(seed: int = 0):
        if not flag.exists():
            flag.touch()
            raise ConnectionError("first attempt drops")
        return {"seed": seed}

    yield "_transient_probe"
    unregister("_transient_probe")


@pytest.fixture()
def hard_failures():
    """Experiment raising MemoryError / SystemExit / ValueError by seed."""

    @experiment("_hard_probe", "raises unpleasant things", section="II",
                tags=("test",))
    def _hard_probe(seed: int = 0):
        if seed == 1:
            raise MemoryError("simulated OOM")
        if seed == 2:
            sys.exit(3)
        if seed == 3:
            raise ValueError("plain bug")
        return {"seed": seed}

    yield "_hard_probe"
    unregister("_hard_probe")


class TestClassification:
    def test_error_class_parses_prefix(self):
        assert error_class("ValueError: nope") == "ValueError"
        assert error_class(None) == ""
        assert error_class("JobTimeout: exceeded 1s wall-clock") == "JobTimeout"

    def test_retryable_set(self):
        assert is_retryable("ConnectionError: reset")
        assert is_retryable("OSError: [Errno 5] I/O error")
        assert is_retryable("ChaosTransientError: injected")
        assert not is_retryable("ValueError: bug")
        assert not is_retryable("MemoryError: simulated OOM")
        assert not is_retryable("SystemExit: 3")
        assert not is_retryable("JobTimeout: exceeded 1s wall-clock")

    def test_backoff_is_deterministic_and_bounded(self):
        job = Job("sidedness_ablation", {}, 7)
        first = retry_backoff_s(0.1, job, 1)
        assert first == retry_backoff_s(0.1, job, 1)
        assert 0 < first <= 5.0
        assert retry_backoff_s(0.1, job, 2) != first  # attempt matters
        assert retry_backoff_s(10.0, job, 4) <= 5.0  # capped

    def test_memory_error_and_system_exit_become_results(self, hard_failures):
        oom = execute_job_safe(hard_failures, seed=1)
        assert oom.error.startswith("MemoryError:")
        assert oom.outcome == "error"
        bail = execute_job_safe(hard_failures, seed=2)
        assert bail.error == "SystemExit: 3"
        assert not is_retryable(bail.error)

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


class TestRetries:
    def test_transient_failure_retries_to_success(self, transient_then_ok):
        runner = ExperimentRunner(retries=2, backoff_s=0.01,
                                  observe=("metrics",), ledger=False)
        results = runner.run([Job(transient_then_ok, {}, 0)])
        assert results[0].ok
        assert runner.retries_total == 1
        assert runner.metrics.value("runner_retries_total",
                                    error="ConnectionError") == 1

    def test_default_zero_retries(self, transient_then_ok):
        runner = ExperimentRunner(ledger=False)
        results = runner.run([Job(transient_then_ok, {}, 0)])
        assert results[0].error.startswith("ConnectionError:")

    def test_nonretryable_failures_never_retry(self, hard_failures):
        runner = ExperimentRunner(retries=5, backoff_s=0.01, ledger=False)
        results = runner.run([Job(hard_failures, {}, 1)])
        assert results[0].error.startswith("MemoryError:")
        assert runner.retries_total == 0

    def test_plain_bugs_never_retry(self, hard_failures):
        runner = ExperimentRunner(retries=5, backoff_s=0.01, ledger=False)
        results = runner.run([Job(hard_failures, {}, 3)])
        assert results[0].error.startswith("ValueError:")
        assert runner.retries_total == 0

    def test_budget_exhaustion_surfaces_the_error(self, tmp_path):
        @experiment("_always_transient", "never recovers", section="II",
                    tags=("test",))
        def _always_transient(seed: int = 0):
            raise ConnectionError("still down")

        try:
            runner = ExperimentRunner(retries=2, backoff_s=0.01, ledger=False)
            results = runner.run([Job("_always_transient", {}, 0)])
            assert results[0].error.startswith("ConnectionError:")
            assert runner.retries_total == 2
        finally:
            unregister("_always_transient")


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
    def test_rebuild_budget_degrades_to_serial(self, sleeper, monkeypatch,
                                               tmp_path):
        # Every worker start dies: rebuilds exhaust, serial finishes.
        monkeypatch.setenv("REPRO_CHAOS", "kill:once=0")
        monkeypatch.setenv("REPRO_CHAOS_STATE", str(tmp_path / "state"))
        from repro import chaos
        chaos.reset()
        try:
            runner = ExperimentRunner(max_workers=2, max_pool_rebuilds=1,
                                      ledger=False)
            jobs = [Job(sleeper, {}, derive_seed(0, i)) for i in range(3)]
            results = runner.run(jobs)
        finally:
            chaos.reset()
        # kill never fires in the parent, so serial execution completes.
        assert len(results) == 3
        assert all(r.ok for r in results)
        assert runner.pool_rebuilds == 1


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
    """Runners and jobs on different threads of one process (the
    service's ``--max-concurrent``) keep their own run ID and sinks."""

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
        result = runner.run_one("sidedness_ablation", seed=4)
        path = runner.cache.path(result.name, result.params, result.seed)
        assert path.is_file()
        return runner, path

    def _assert_quarantined_miss(self, tmp_path, path):
        runner = ExperimentRunner(cache_dir=tmp_path, ledger=False)
        rerun = runner.run_one("sidedness_ablation", seed=4)  # must not raise
        assert rerun.ok and not rerun.cache_hit  # corrupt entry read as a miss
        assert list(path.parent.glob("*.corrupt"))  # and was quarantined
        # The re-run repopulated the entry; a third run hits it cleanly.
        assert runner.run_one("sidedness_ablation", seed=4).cache_hit

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
        result = runner.run_one("sidedness_ablation", seed=0)
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
        result = ExperimentRunner(ledger=False).run_one(
            "sidedness_ablation", seed=0)

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
