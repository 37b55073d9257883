"""Live telemetry: run/job correlation IDs, worker→parent streaming,
the Prometheus exposition renderer + HTTP exporter, sweep progress, the
``--live`` renderer, and the cross-artifact join contract.

The subprocess test at the bottom doubles as the CI smoke: it launches
a real ``repro sweep --serve-metrics 0`` and scrapes ``/metrics`` while
the sweep runs, asserting the progress gauges are present and monotone.
"""

import io
import json
import multiprocessing
import os
import queue
import re
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.experiments import ExperimentRunner, Job, registry
from repro.experiments.runner import derive_seed, job_key
from repro.telemetry import MetricsRegistry, RunLedger
from repro.telemetry import events as stream_events
from repro.telemetry import export, ids
from repro.telemetry import runtime as telem
from repro.telemetry.events import EventStream, SweepProgress, WorkerStream
from repro.telemetry.live import LiveRenderer, format_progress_lines

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool streaming tests rely on fork inheriting the registry",
)


@pytest.fixture(autouse=True)
def _clean_stream():
    """No live stream armed around every test."""
    stream_events.disarm()
    yield
    stream_events.disarm()


# ----------------------------------------------------------------------
# IDs
# ----------------------------------------------------------------------
class TestIds:
    def test_job_id_is_deterministic_key_prefix(self):
        name = registry.resolve("sidedness_ablation")
        key = job_key(name, {}, 7)
        jid = ids.job_id_from_key(key)
        assert jid == key[:12] and len(jid) == 12
        # same (name, params, seed) → same ID across processes/sessions
        assert jid == ids.job_id_from_key(job_key(name, {}, 7))
        assert jid != ids.job_id_from_key(job_key(name, {}, 8))

    def test_run_id_format_and_uniqueness(self):
        a, b = ids.new_run_id(), ids.new_run_id()
        assert re.fullmatch(r"r\d{8}-\d{6}-[0-9a-f]{6}", a)
        assert a != b

    def test_environment_fingerprint_fields(self):
        import platform

        fp = ids.environment_fingerprint()
        assert set(fp) == {"git_sha", "python", "numpy", "hostname"}
        assert fp["python"] == platform.python_version()


# ----------------------------------------------------------------------
# Exposition-format compliance (shared by `stats` and the exporter)
# ----------------------------------------------------------------------
class TestExposition:
    def test_metric_name_sanitization(self):
        assert export.sanitize_metric_name("dram.acts/s") == "dram_acts_s"
        assert export.sanitize_metric_name("9lives") == "_9lives"
        assert export.sanitize_metric_name("ns:metric_ok") == "ns:metric_ok"

    def test_label_name_sanitization_rejects_colons(self):
        assert export.sanitize_label_name("le:gt") == "le_gt"
        assert export.sanitize_label_name("0bad") == "_0bad"

    def test_label_value_escaping(self):
        assert (export.escape_label_value('a\\b"c\nd')
                == 'a\\\\b\\"c\\nd')

    def test_counters_get_total_suffix_exactly_once(self):
        assert export.exposition_name("jobs", "counter") == "jobs_total"
        assert (export.exposition_name("dram_activations_total", "counter")
                == "dram_activations_total")
        # non-counters keep their base name (histograms grow _bucket etc.)
        assert export.exposition_name("lat", "histogram") == "lat"
        assert export.exposition_name("depth", "gauge") == "depth"

    def test_help_and_type_lines_once_per_family(self):
        reg = MetricsRegistry()
        reg.counter("jobs", outcome="ok").inc(2)
        reg.counter("jobs", outcome='we"ird\nvalue').inc(1)
        text = export.render_exposition(reg)
        assert text.count("# HELP jobs_total ") == 1
        assert text.count("# TYPE jobs_total counter") == 1
        assert 'jobs_total{outcome="ok"} 2' in text
        assert 'jobs_total{outcome="we\\"ird\\nvalue"} 1' in text

    def test_histogram_families_keep_base_name(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", edges=(1, 2))
        hist.observe(0.5)
        hist.observe(5.0)
        text = export.render_exposition(reg)
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_sum" in text and "lat_count 2" in text
        assert "lat_total" not in text

    def test_registry_render_prometheus_delegates_to_exposition(self):
        reg = MetricsRegistry()
        reg.counter("dram_activations_total", bank="0").inc(82747392)
        assert reg.render_prometheus() == export.render_exposition(reg)

    def test_progress_registry_gauges(self):
        now = time.monotonic()
        progress = SweepProgress(run_id="r1")
        for i, jid in enumerate(("aaa", "bbb", "ccc", "ddd", "eee")):
            progress.add_job(jid, "exp", i)
        progress.mark_running("aaa", pid=123)
        progress.mark_done("bbb", "ok", duration_s=1.0)
        progress.mark_done("ccc", "error", duration_s=1.0)
        progress.mark_done("ddd", "ok", cache_hit=True)
        progress.beat("aaa", 123, now_mono=now)
        reg = export.progress_registry(progress, workers=2, now_mono=now + 0.5)

        def jobs(state):
            return reg.value("repro_sweep_jobs", state=state, run_id="r1")

        assert jobs("total") == 5
        assert jobs("done") == 1 and jobs("running") == 1
        assert jobs("errored") == 1 and jobs("cached") == 1
        assert jobs("pending") == 1
        age = reg.value("repro_worker_heartbeat_age_seconds",
                        pid=123, run_id="r1")
        assert age == pytest.approx(0.5, abs=0.01)
        assert reg.value("repro_sweep_eta_seconds", run_id="r1") > 0
        text = export.render_exposition(reg)
        assert "# TYPE repro_sweep_jobs gauge" in text
        assert 'run_id="r1"' in text

    def test_http_server_serves_live_exposition(self):
        calls = []

        def collect():
            calls.append(1)
            return "# TYPE x counter\nx_total 1\n"

        with export.MetricsHTTPServer(collect, port=0) as server:
            assert server.port != 0
            body = urllib.request.urlopen(
                f"{server.url}/metrics", timeout=5).read().decode()
            assert body == "# TYPE x counter\nx_total 1\n"
            health = urllib.request.urlopen(
                f"{server.url}/healthz", timeout=5).read()
            assert health == b"ok\n"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{server.url}/nope", timeout=5)
        assert calls


# ----------------------------------------------------------------------
# Worker-side streaming
# ----------------------------------------------------------------------
class TestWorkerStream:
    def _beats(self, events):
        return [e for e in events if e["kind"] == "heartbeat"]

    def test_heartbeat_carries_job_registry_snapshot(self):
        events = []
        ws = WorkerStream(events.append, interval_s=0.0)
        reg = telem.get_registry()
        ws.on_job_start("j1", "exp", 0)
        reg.counter("c").inc(5)
        reg.gauge("depth").set(7)
        reg.histogram("lat", edges=(1, 2)).observe(5.0)
        ws.tick(force=True)
        reg.counter("c").inc(3)
        ws.tick(force=True)
        first, second = self._beats(events)
        assert second["job_id"] == "j1"
        # every beat is whole: totals, and unchanged series too
        assert second["metrics"] == reg.snapshot()
        assert first["metrics"]["gauges"] == second["metrics"]["gauges"]

    def test_live_view_follows_a_mid_job_registry_swap(self):
        events = []
        stream = EventStream(SweepProgress("r"))
        ws = WorkerStream(lambda e: (events.append(e), stream.handle(e)),
                          interval_s=0.0)
        ws.on_job_start("j1", "exp", 0)
        telem.get_registry().counter("c").inc(8)
        ws.tick(force=True)
        assert stream.live_registry().value("c") == 8
        # a swapped-in registry starts from zero: the live view shows
        # its values, not the old ones plus the new
        with telem.observing(metrics=MetricsRegistry()):
            telem.get_registry().counter("c").inc(2)
            ws.tick(force=True)
        assert stream.live_registry().value("c") == 2
        assert len(self._beats(events)) == 2

    def test_job_end_carries_no_metrics(self):
        events = []
        ws = WorkerStream(events.append, interval_s=0.0)
        ws.on_job_start("j1", "exp", 0)
        telem.get_registry().counter("c").inc()
        ws.on_job_end("j1", "ok", duration_s=0.1)
        assert [e["kind"] for e in events] == ["job_start", "job_end"]
        assert "metrics" not in events[-1]

    def test_events_stamped_with_pid_job_and_run_ids(self):
        events = []
        ws = WorkerStream(events.append, interval_s=0.0)
        ws.on_job_start("jX", "exp", 3, "r20990101-000000-dddddd")
        ws.on_job_end("jX", "ok", duration_s=0.5)
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "job_start" and kinds[-1] == "job_end"
        for event in events:
            assert event["pid"] == os.getpid()
            assert event["job_id"] == "jX"
            assert event["run_id"] == "r20990101-000000-dddddd"
        assert events[-1]["outcome"] == "ok"

    def test_dead_queue_never_raises(self):
        def put(_event):
            raise OSError("queue is gone")

        ws = WorkerStream(put, interval_s=0.0)
        ws.on_job_start("j", "exp", 0)  # must not raise
        ws.on_job_end("j", "ok")

    def test_streaming_registry_ticks_the_sink(self):
        events = []
        stream_events.arm_local(events.append, interval_s=0.0)
        stream_events.sink().on_job_start("j", "exp", 0)
        reg = stream_events.job_registry()
        assert isinstance(reg, stream_events.StreamingRegistry)
        with telem.observing(metrics=reg):
            reg.counter("c").inc()  # instrument touch → rate-limited flush
        assert any(e["kind"] == "heartbeat" for e in events)

    def test_job_registry_plain_when_disarmed(self):
        reg = stream_events.job_registry()
        assert type(reg) is MetricsRegistry


# ----------------------------------------------------------------------
# Parent-side consumer
# ----------------------------------------------------------------------
class TestStreamConsumer:
    def _snapshot(self, value):
        return {"counters": [{"name": "c", "labels": {}, "value": value}],
                "gauges": [], "histograms": []}

    def test_fold_and_no_double_count_after_job_end(self):
        consumer = EventStream(SweepProgress("r"))
        consumer.progress.add_job("j", "exp", 0)
        consumer.handle({"kind": "job_start", "job_id": "j", "pid": 1,
                         "name": "exp", "seed": 0})
        consumer.handle({"kind": "heartbeat", "job_id": "j", "pid": 1,
                         "metrics": self._snapshot(3)})
        assert consumer.live_registry().value("c") == 3
        # job_end drops the in-flight snapshot; the final one then
        # merges parent-side — the live view must not count both
        consumer.handle({"kind": "job_end", "job_id": "j", "pid": 1,
                         "outcome": "ok"})
        base = MetricsRegistry()
        base.counter("c").inc(5)
        assert consumer.live_registry(base).value("c") == 5

    def test_job_start_marks_running_and_beats_track_workers(self):
        consumer = EventStream(SweepProgress("r"))
        consumer.progress.add_job("j", "exp", 0)
        consumer.handle({"kind": "job_start", "job_id": "j", "pid": 42,
                         "name": "exp", "seed": 0})
        job = consumer.progress.jobs["j"]
        assert job["state"] == "running" and job["pid"] == 42
        assert consumer.progress.workers[42]["job_id"] == "j"
        assert consumer.progress.heartbeat_ages()[42] < 1.0

    def test_check_stale_flags_each_job_once(self):
        consumer = EventStream(SweepProgress("r"))
        consumer.progress.add_job("j", "exp", 0)
        now = time.monotonic()
        consumer.handle({"kind": "job_start", "job_id": "j", "pid": 1,
                         "name": "exp", "seed": 0})
        newly = consumer.check_stale(0.5, now_mono=now + 1.0)
        assert [e["job_id"] for e in newly] == ["j"]
        assert newly[0]["age_s"] >= 0.5
        assert consumer.check_stale(0.5, now_mono=now + 2.0) == []
        assert len(consumer.progress.stale_events) == 1

    def test_finished_jobs_never_go_stale(self):
        consumer = EventStream(SweepProgress("r"))
        consumer.progress.add_job("j", "exp", 0)
        consumer.progress.mark_running("j", pid=1)
        consumer.progress.mark_done("j", "ok", duration_s=0.1)
        assert consumer.check_stale(0.0, time.monotonic() + 99) == []

    def test_drain_consumes_queue_and_skips_garbage(self):
        consumer = EventStream(SweepProgress("r"))
        consumer.progress.add_job("j", "exp", 0)
        q = queue.SimpleQueue()
        q.put({"kind": "job_start", "job_id": "j", "pid": 1,
               "name": "exp", "seed": 0})
        q.put("not-an-event")
        q.put({"kind": "heartbeat", "job_id": "j", "pid": 1,
               "metrics": self._snapshot(2)})
        assert consumer.drain(q) == 3
        assert consumer.events_seen == 2
        assert consumer.live_registry().value("c") == 2

    def test_eta_estimate_from_completed_durations(self):
        progress = SweepProgress("r")
        for jid in ("a", "b", "c", "d"):
            progress.add_job(jid, "exp", 0)
        assert progress.eta_s() is None  # nothing completed yet
        progress.mark_running("a")
        progress.mark_done("a", "ok", duration_s=2.0)
        # 3 outstanding × 2 s mean / 2 workers = 3 s
        assert progress.eta_s(workers=2) == pytest.approx(3.0, abs=0.1)


# ----------------------------------------------------------------------
# Runner integration
# ----------------------------------------------------------------------
class TestRunnerStreaming:
    def test_serial_stream_correlates_results_and_progress(self):
        runner = ExperimentRunner(cache_dir=None, max_workers=1, ledger=False,
                                  stream=True, heartbeat_s=0.01)
        name = registry.resolve("sidedness_ablation")
        jobs = [Job(name, {}, derive_seed(0, i)) for i in range(2)]
        results = runner.run(jobs)
        assert all(r.ok for r in results)
        for result in results:
            assert result.run_id == runner.run_id
            assert result.job_id == ids.job_id_from_key(
                job_key(name, {}, result.seed))
        counts = runner.progress.counts()
        assert counts["total"] == 2 and counts["done"] == 2
        assert runner.stream.events_seen >= 4  # start+end per job
        assert runner.summary(results)["run_id"] == runner.run_id
        assert stream_events.sink() is None  # disarmed after the batch

    def test_live_exposition_carries_progress_gauges(self):
        runner = ExperimentRunner(cache_dir=None, max_workers=1, ledger=False,
                                  stream=True)
        runner.run([Job(registry.resolve("sidedness_ablation"), {}, 0)])
        text = runner.live_exposition()
        assert "# TYPE repro_sweep_jobs gauge" in text
        assert f'run_id="{runner.run_id}"' in text
        assert "runner_jobs_total" in text

    @fork_only
    def test_pool_stream_merges_without_double_count(self):
        runner = ExperimentRunner(cache_dir=None, max_workers=2, ledger=False,
                                  stream=True, heartbeat_s=0.02)
        jobs = [Job("rowhammer_basic", {"victims": 64}, derive_seed(0, i))
                for i in range(4)]
        results = runner.run(jobs)
        assert sum(r.ok for r in results) == 4
        assert runner.progress.finished() == 4
        assert runner.progress.workers  # worker pids were seen
        # streamed in-flight snapshots were dropped at job_end: the live
        # view equals the finalized merge exactly
        live = runner.live_metrics()
        assert (live.total("dram_activations_total")
                == runner.metrics.total("dram_activations_total"))
        assert live.total("dram_activations_total") > 0


class TestArtifactJoin:
    def test_job_id_joins_ledger_cache_trace_and_bundle(
            self, tmp_path, monkeypatch):
        """Acceptance: one job_id recovers the same job from the ledger
        line, the result cache record, the trace events, and (for the
        failed job) the capture bundle."""
        from repro import chaos
        from repro.sanitizer.bundle import load_bundle

        name = registry.resolve("sidedness_ablation")
        ok_seed, bad_seed = derive_seed(0, 0), derive_seed(0, 1)
        monkeypatch.setenv("REPRO_CHAOS", f"exc:seed={bad_seed}")
        monkeypatch.setenv("REPRO_CHAOS_STATE", str(tmp_path / "chaos-state"))
        monkeypatch.setenv("REPRO_CAPTURE", str(tmp_path / "bundles"))
        chaos.reset()
        recorder = telem.enable_tracing(capacity=65536, fresh=True)
        try:
            runner = ExperimentRunner(
                cache_dir=tmp_path / "cache", max_workers=1,
                ledger=RunLedger(tmp_path / "ledger.jsonl"),
                observe=("metrics",))
            results = runner.run([Job(name, {}, ok_seed),
                                  Job(name, {}, bad_seed)])
        finally:
            chaos.reset()
        ok_id = ids.job_id_from_key(job_key(name, {}, ok_seed))
        bad_id = ids.job_id_from_key(job_key(name, {}, bad_seed))
        run_id = runner.run_id
        by_seed = {r.seed: r for r in results}
        assert by_seed[ok_seed].ok and not by_seed[bad_seed].ok

        # result metadata
        assert by_seed[ok_seed].job_id == ok_id
        assert by_seed[bad_seed].job_id == bad_id
        assert {r.run_id for r in results} == {run_id}

        # ledger lines
        records = RunLedger(tmp_path / "ledger.jsonl").records()
        assert {r["job_id"] for r in records} == {ok_id, bad_id}
        assert {r["run_id"] for r in records} == {run_id}

        # cache records (only the successful job is cached)
        cached = list((tmp_path / "cache").glob("*/*.json"))
        assert cached == [runner.cache.path(name, {}, ok_seed)]
        cache_record = json.loads(cached[0].read_text())
        assert cache_record["job_id"] == ok_id
        assert cache_record["run_id"] == run_id

        # trace events carry the context stamp
        traced = [e.to_json_dict() for e in recorder.events()
                  if e.fields.get("job_id") == ok_id]
        kinds = {e["kind"] for e in traced}
        assert {"job_start", "job_end"} <= kinds
        assert all(e["run_id"] == run_id for e in traced)

        # the failed job's capture bundle
        (bundle_path,) = sorted((tmp_path / "bundles").glob("*.json"))
        bundle = load_bundle(bundle_path)
        assert bundle["job_id"] == bad_id
        assert bundle["run_id"] == run_id
        assert bundle["job_key"].startswith(bad_id)

    def test_result_round_trips_ids_through_json(self):
        runner = ExperimentRunner(cache_dir=None, max_workers=1, ledger=False)
        (result,) = runner.run([Job(registry.resolve("sidedness_ablation"),
                                    {}, 0)])
        from repro.experiments import ExperimentResult

        clone = ExperimentResult.from_json_dict(result.to_json_dict())
        assert clone.run_id == result.run_id == runner.run_id
        assert clone.job_id == result.job_id


# ----------------------------------------------------------------------
# Live renderer
# ----------------------------------------------------------------------
class TestLiveRenderer:
    def _progress(self):
        progress = SweepProgress(run_id="rtest")
        progress.add_job("aaa", "exp", 1)
        progress.add_job("bbb", "exp", 2)
        progress.mark_running("aaa", pid=77)
        progress.mark_done("bbb", "ok", duration_s=0.5)
        progress.beat("aaa", 77)
        return progress

    def test_format_lines_show_bar_counts_and_workers(self):
        lines = format_progress_lines(self._progress(), workers=2)
        assert "rtest" in lines[0]
        assert "1/2" in lines[0] and "ok=1" in lines[0] and "run=1" in lines[0]
        worker_lines = [l for l in lines if "worker 77" in l]
        assert worker_lines and "exp[seed=1] (aaa)" in worker_lines[0]

    def test_stale_jobs_are_flagged_in_the_view(self):
        progress = self._progress()
        progress.jobs["aaa"]["stale_warned"] = True
        progress.stale_events.append({"job_id": "aaa"})
        lines = format_progress_lines(progress, workers=2)
        assert "stale=1" in lines[0]
        assert any("! stale heartbeat" in l for l in lines)

    def test_non_tty_renderer_writes_single_status_lines(self):
        out = io.StringIO()  # not a TTY
        renderer = LiveRenderer(out=out, interval_s=0.0, plain_interval_s=0.0)

        class FakeRunner:
            progress = self._progress()
            max_workers = 2

        renderer.update(FakeRunner)
        renderer.finish(FakeRunner)
        text = out.getvalue()
        assert "\x1b[" not in text  # no ANSI control on a pipe
        assert text.count("rtest") == 2  # one line per paint, no repaint


# ----------------------------------------------------------------------
# End-to-end: the CLI exporter scraped mid-sweep (the CI smoke)
# ----------------------------------------------------------------------
class TestServeMetricsEndToEnd:
    def test_mid_sweep_scrape_progress_monotone(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, REPRO_LEDGER="off", REPRO_CAPTURE="off")
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "retention_study",
             "--seeds", "6", "--parallel", "2", "--no-cache",
             "--serve-metrics", "0"],
            cwd=tmp_path, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        done_series, saw_running, saw_beat = [], False, False
        last_body = ""
        try:
            banner = proc.stderr.readline()
            match = re.search(r"http://127\.0\.0\.1:\d+/metrics", banner)
            assert match, f"no exporter URL announced: {banner!r}"
            url = match.group(0)
            deadline = time.monotonic() + 120
            while proc.poll() is None and time.monotonic() < deadline:
                try:
                    body = urllib.request.urlopen(url, timeout=2).read().decode()
                except OSError:
                    time.sleep(0.05)
                    continue
                last_body = body
                done = re.search(
                    r'repro_sweep_jobs\{[^}]*state="done"[^}]*\} (\d+)', body)
                if done:
                    done_series.append(int(done.group(1)))
                if re.search(r'state="running"[^}]*\} [1-9]', body):
                    saw_running = True
                if "repro_worker_heartbeat_age_seconds{" in body:
                    saw_beat = True
                time.sleep(0.1)
            _out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert done_series, "never scraped the exporter while the sweep ran"
        assert done_series == sorted(done_series), (
            f"done gauge went backwards: {done_series}")
        assert 'state="total"' in last_body and "repro_sweep_jobs{" in last_body
        assert saw_running, "no scrape ever observed a running job"
        assert saw_beat, "no scrape ever carried worker heartbeat ages"
