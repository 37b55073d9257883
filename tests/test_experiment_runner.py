"""The experiment runner: provenance, determinism, caching, seed
derivation, the process-pool fan-out, and batch fault tolerance."""

import json
import multiprocessing
import os
import time

import pytest

from repro import experiments as E
from repro.experiments import (
    ExperimentRunner,
    Job,
    derive_seed,
    execute_job_safe,
    job_key,
)
from repro.experiments.registry import experiment, unregister


@pytest.fixture()
def failing_experiment():
    """A registered experiment that raises for odd seeds."""

    @experiment("_flaky_probe", "fails on odd seeds", section="II", tags=("test",))
    def _flaky_probe(seed: int = 0):
        if seed % 2:
            raise RuntimeError(f"odd seed {seed}")
        return {"seed": seed}

    yield "_flaky_probe"
    unregister("_flaky_probe")


class TestExecuteJob:
    def test_result_carries_provenance(self):
        result = E.execute_job("sidedness_ablation", seed=3)
        assert result.name == "sidedness_ablation"
        assert result.seed == 3
        assert result.duration_s > 0
        assert result.peak_rss_kb > 0
        assert result.version
        assert not result.cache_hit

    def test_payload_is_json_safe(self):
        result = E.execute_job("twostep_study", seed=0)
        json.dumps(result.to_json_dict())  # must not raise

    def test_params_are_bound_and_recorded(self):
        result = E.execute_job("flash_error_sweep",
                               params={"pe_grid": (3000, 20000)}, seed=1)
        assert result.params == {"pe_grid": (3000, 20000)}
        assert len(result.payload) == 2


class TestDeterminism:
    # Three representative experiments spanning DRAM attacks, flash, and
    # PCM: same seed ⇒ byte-identical canonical payload JSON.
    @pytest.mark.parametrize("name", ["sidedness_ablation", "twostep_study", "fcr_study"])
    def test_same_seed_byte_identical_payload(self, name):
        first = E.execute_job(name, seed=5).payload_json()
        second = E.execute_job(name, seed=5).payload_json()
        assert first.encode() == second.encode()

    def test_different_seed_differs(self):
        a = E.execute_job("sidedness_ablation", seed=0).payload_json()
        b = E.execute_job("sidedness_ablation", seed=99).payload_json()
        assert a != b

    def test_derive_seed_stable_and_spread(self):
        seeds = [derive_seed(0, i) for i in range(16)]
        assert seeds == [derive_seed(0, i) for i in range(16)]  # reproducible
        assert len(set(seeds)) == 16  # no collisions in a small sweep
        assert all(0 <= s < 2**31 for s in seeds)
        assert [derive_seed(1, i) for i in range(16)] != seeds  # base matters


class TestCache:
    def test_second_run_hits_cache(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        fresh = runner.run_one("twostep_study", seed=2)
        cached = runner.run_one("twostep_study", seed=2)
        assert not fresh.cache_hit
        assert cached.cache_hit
        assert cached.payload == fresh.payload
        assert cached.duration_s == fresh.duration_s  # original timing preserved

    def test_cache_key_distinguishes_name_params_seed(self, tmp_path):
        cache = E.ResultCache(tmp_path)
        base = cache.key("twostep_study", {}, 0)
        assert cache.key("twostep_study", {}, 1) != base
        assert cache.key("twostep_study", {"pe_cycles": 4000}, 0) != base
        assert cache.key("fcr_study", {}, 0) != base

    def test_cache_key_ignores_params_insertion_order(self, tmp_path):
        # Regression: {"a": 1, "b": 2} and {"b": 2, "a": 1} are the same
        # job and must share one cache entry.
        cache = E.ResultCache(tmp_path)
        forward = cache.key("twostep_study", {"pe_cycles": 4000, "dwell_s": 9.0}, 0)
        reverse = cache.key("twostep_study", {"dwell_s": 9.0, "pe_cycles": 4000}, 0)
        assert forward == reverse
        assert cache.path("twostep_study", {"pe_cycles": 4000, "dwell_s": 9.0}, 0) \
            == cache.path("twostep_study", {"dwell_s": 9.0, "pe_cycles": 4000}, 0)

    def test_alias_and_canonical_share_cache_entries(self, tmp_path):
        cache = E.ResultCache(tmp_path)
        assert cache.key("c12", {}, 0) == cache.key("twostep_study", {}, 0)

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run_one("twostep_study", seed=2)
        path = runner.cache.path("twostep_study", {}, 2)
        path.write_text("{not json")
        assert not runner.run_one("twostep_study", seed=2).cache_hit


class TestJobKey:
    def test_matches_cache_key(self, tmp_path):
        cache = E.ResultCache(tmp_path)
        assert (cache.key("sidedness_ablation", {"a": 1}, 7)
                == job_key("sidedness_ablation", {"a": 1}, 7))

    def test_param_order_does_not_matter(self):
        assert (job_key("sidedness_ablation", {"a": 1, "b": 2}, 0)
                == job_key("sidedness_ablation", {"b": 2, "a": 1}, 0))

    def test_seed_and_params_matter(self):
        base = job_key("sidedness_ablation", {}, 0)
        assert job_key("sidedness_ablation", {}, 1) != base
        assert job_key("sidedness_ablation", {"x": 1}, 0) != base


class TestRunnerBatch:
    def test_batch_preserves_order(self):
        runner = ExperimentRunner()
        results = runner.run([Job("twostep_study", {}, 1),
                              Job("sidedness_ablation", {}, 1)])
        assert [r.name for r in results] == ["twostep_study", "sidedness_ablation"]

    def test_unknown_job_fails_fast(self):
        with pytest.raises(E.UnknownExperimentError):
            ExperimentRunner().run([Job("nonexistent", {}, 0)])

    def test_parallel_matches_inline(self, tmp_path):
        jobs = [Job("sidedness_ablation", {}, s) for s in (0, 1, 2, 3)]
        inline = ExperimentRunner(max_workers=1).run(jobs)
        pooled = ExperimentRunner(max_workers=2).run(jobs)
        assert [r.payload for r in pooled] == [r.payload for r in inline]
        assert all(not r.cache_hit for r in pooled)


class TestFaultTolerance:
    def test_execute_job_safe_converts_exception_to_errored_result(self, failing_experiment):
        result = execute_job_safe(failing_experiment, seed=1)
        assert result.error == "RuntimeError: odd seed 1"
        assert not result.ok
        assert result.payload is None
        assert result.seed == 1
        assert result.duration_s > 0

    def test_execute_job_safe_passes_through_success(self, failing_experiment):
        result = execute_job_safe(failing_experiment, seed=2)
        assert result.ok and result.error is None
        assert result.payload == {"seed": 2}

    def test_execute_job_safe_still_raises_framework_errors(self, failing_experiment):
        with pytest.raises(E.UnknownExperimentError):
            execute_job_safe("nonexistent")
        with pytest.raises(ValueError, match="no parameter"):
            execute_job_safe(failing_experiment, params={"bogus_param": 1})

    def test_execute_job_still_propagates(self, failing_experiment):
        with pytest.raises(RuntimeError, match="odd seed"):
            E.execute_job(failing_experiment, seed=1)

    def test_run_one_still_propagates(self, failing_experiment):
        with pytest.raises(RuntimeError, match="odd seed"):
            ExperimentRunner().run_one(failing_experiment, seed=1)

    def test_batch_keeps_siblings_and_slots_errors(self, failing_experiment):
        runner = ExperimentRunner()
        results = runner.run([Job(failing_experiment, {}, s) for s in (0, 1, 2)])
        assert [r.error is None for r in results] == [True, False, True]
        assert results[1].error == "RuntimeError: odd seed 1"
        assert results[0].payload == {"seed": 0}
        summary = runner.summary(results)
        assert (summary["jobs"], summary["ok"], summary["errors"]) == (3, 2, 1)
        assert summary["errored"][0]["seed"] == 1

    def test_parallel_batch_survives_failures(self, failing_experiment):
        runner = ExperimentRunner(max_workers=2)
        results = runner.run([Job(failing_experiment, {}, s) for s in range(4)])
        assert [r.error is None for r in results] == [True, False, True, False]

    def test_errored_results_never_reach_the_cache(self, tmp_path, failing_experiment):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run([Job(failing_experiment, {}, s) for s in (0, 1)])
        rerun = ExperimentRunner(cache_dir=tmp_path).run(
            [Job(failing_experiment, {}, s) for s in (0, 1)])
        assert rerun[0].cache_hit  # success was cached
        assert not rerun[1].cache_hit  # failure re-ran

    def test_outcome_label_tallies_errors(self, failing_experiment):
        runner = ExperimentRunner(observe=("metrics",))
        runner.run([Job(failing_experiment, {}, s) for s in (0, 1, 2)])
        assert runner.metrics.value("runner_jobs_total",
                                    cache_hit="false", outcome="ok") == 2
        assert runner.metrics.value("runner_jobs_total",
                                    cache_hit="false", outcome="error") == 1

    def test_job_end_trace_distinguishes_outcomes(self, failing_experiment):
        from repro.telemetry import runtime as telem

        recorder = telem.enable_tracing(fresh=True)
        E.execute_job(failing_experiment, seed=0)
        with pytest.raises(RuntimeError):
            E.execute_job(failing_experiment, seed=1)
        ends = [e for e in recorder.events() if e.kind == "job_end"]
        assert len(ends) == 2
        assert ends[0].fields["ok"] is True
        assert "error" not in ends[0].fields
        assert ends[1].fields["ok"] is False
        assert ends[1].fields["error"] == "RuntimeError: odd seed 1"


def _pid_probe(seed: int = 0):
    from repro.telemetry import runtime as telem

    time.sleep(0.05)  # keep one worker from draining the whole queue
    if telem.metrics_on:
        telem.counter("probe_jobs_total", pid=os.getpid()).inc()
    return {"pid": os.getpid()}


@pytest.fixture()
def pid_probe():
    """Register the probe before the pool forks so workers inherit it."""
    experiment("_pid_probe", "reports its worker pid",
               section="II", tags=("test",))(_pid_probe)
    yield "_pid_probe"
    unregister("_pid_probe")


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the test-registered experiment",
)


class TestCrossProcessMerge:
    @fork_only
    def test_parent_merges_metrics_from_distinct_workers(self, pid_probe):
        runner = ExperimentRunner(max_workers=3, observe=("metrics",))
        results = runner.run([Job("_pid_probe", {}, s) for s in range(3)])
        pids = {r.payload["pid"] for r in results}
        assert os.getpid() not in pids  # genuinely ran out-of-process
        assert len(pids) >= 2  # more than one worker contributed
        # Every worker's series survived the snapshot/merge round trip.
        assert runner.metrics.total("probe_jobs_total") == 3
        for pid in pids:
            assert runner.metrics.value("probe_jobs_total", pid=pid) >= 1

    @fork_only
    def test_cache_hits_reabsorb_worker_snapshots(self, pid_probe, tmp_path):
        jobs = [Job("_pid_probe", {}, s) for s in range(3)]
        first = ExperimentRunner(cache_dir=tmp_path, max_workers=3,
                                 observe=("metrics",))
        first.run(jobs)
        # A fresh runner re-running the same jobs is all cache hits, yet
        # its merged metrics must equal the original run's: the per-job
        # snapshots survived the on-disk cache and were re-absorbed.
        second = ExperimentRunner(cache_dir=tmp_path, max_workers=3,
                                  observe=("metrics",))
        rerun = second.run(jobs)
        assert all(r.cache_hit for r in rerun)
        assert (second.metrics.total("probe_jobs_total")
                == first.metrics.total("probe_jobs_total") == 3)
        assert second.metrics.value("runner_jobs_total",
                                    cache_hit="true", outcome="ok") == 3

    @fork_only
    def test_parent_merges_profiles_from_workers(self, pid_probe):
        runner = ExperimentRunner(max_workers=2, observe=("spans",))
        runner.run([Job("_pid_probe", {}, s) for s in range(2)])
        assert runner.profile.get("job{name=_pid_probe}")[0] == 2


class TestSweep:
    def test_sweep_runs_derived_seeds_and_caches(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, max_workers=2)
        first = runner.sweep("twostep_study", seeds=4, base_seed=0)
        assert len(first) == 4
        assert [r.seed for r in first] == [derive_seed(0, i) for i in range(4)]
        assert all(not r.cache_hit for r in first)
        second = runner.sweep("twostep_study", seeds=4, base_seed=0)
        assert all(r.cache_hit for r in second)
        assert [r.payload for r in second] == [r.payload for r in first]

    def test_sweeping_seedless_experiment_is_an_error(self):
        with pytest.raises(ValueError, match="takes no seed"):
            ExperimentRunner().sweep("para_reliability", seeds=4)
