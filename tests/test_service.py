"""The experiment service: submission model, journal, HTTP daemon,
client, the one-submission-at-a-time worker, the one-daemon-per-state-dir
lock, and the acceptance chaos scenarios (SIGKILL-and-resume, SIGTERM
drain under load)."""

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.chaos import harness
from repro.experiments.registry import experiment, unregister
from repro.service import (
    ExperimentService,
    JobJournal,
    JobSpec,
    ServiceClient,
    ServiceError,
    ServiceTimeout,
    ServiceUnavailable,
)
from repro.service.client import retry_delay_s
from repro.service.daemon import (
    ENDPOINT_FILE,
    StateDirBusy,
    lock_state_dir,
    read_endpoint,
)
from repro.telemetry import RunLedger

PROBE = "sidedness_ablation"

#: Jobs run on pool workers; a probe registered by a test reaches them
#: only if they fork from this process.
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the pool's workers must inherit the test-registered probe")


# ----------------------------------------------------------------------
# JobSpec: validation + idempotent IDs
# ----------------------------------------------------------------------

class TestJobSpec:
    def test_sid_is_stable_and_process_independent(self):
        a = JobSpec.from_payload({"name": PROBE, "seed": 7})
        b = JobSpec.from_payload({"name": PROBE, "seed": 7})
        assert a.sid == b.sid
        assert len(a.sid) == 12

    def test_sid_distinguishes_seed_and_params(self):
        base = JobSpec.from_payload({"name": PROBE, "seed": 7})
        other_seed = JobSpec.from_payload({"name": PROBE, "seed": 8})
        assert base.sid != other_seed.sid

    def test_sweep_sid_never_collides_with_member_job(self):
        """A sweep folds its shape into the key, so the sweep's sid and
        any member job's sid are distinct even for seeds=1."""
        sweep = JobSpec.from_payload({"name": PROBE, "seeds": 1,
                                      "base_seed": 0})
        from repro.experiments.runner import derive_seed

        member = JobSpec.from_payload({"name": PROBE,
                                       "seed": derive_seed(0, 0)})
        assert sweep.sid != member.sid

    def test_kind_inferred_from_seeds(self):
        assert JobSpec.from_payload({"name": PROBE}).kind == "experiment"
        assert JobSpec.from_payload({"name": PROBE,
                                     "seeds": 4}).kind == "sweep"

    def test_expand_matches_cli_sweep_derivation(self):
        from repro.experiments.runner import derive_seed

        spec = JobSpec.from_payload({"name": PROBE, "seeds": 4,
                                     "base_seed": 3})
        assert [j.seed for j in spec.expand()] == [
            derive_seed(3, i) for i in range(4)]
        assert spec.job_count == 4

    @pytest.mark.parametrize("payload, fragment", [
        ("not a dict", "JSON object"),
        ({"name": "no_such_experiment"}, "unknown experiment"),
        ({}, "missing experiment 'name'"),
        ({"name": PROBE, "bogus_field": 1}, "unknown field"),
        ({"name": PROBE, "params": [1]}, "'params' must be an object"),
        ({"name": PROBE, "kind": "cron"}, "unknown job kind"),
        ({"name": PROBE, "kind": "sweep"}, "needs 'seeds'"),
        ({"name": "para_reliability", "seeds": 4}, "takes no seed"),
        ({"name": PROBE, "timeout_s": 0}, "must be positive"),
        ({"name": PROBE, "retries": 1}, "unknown field"),
        ({"name": PROBE, "params": {"not_a_param": 1}}, "bad params"),
    ])
    def test_bad_payloads_rejected_with_client_message(self, payload,
                                                       fragment):
        with pytest.raises(ValueError, match=fragment):
            JobSpec.from_payload(payload)

    def test_round_trips_through_json(self):
        spec = JobSpec.from_payload({"name": PROBE, "seeds": 4,
                                     "base_seed": 9, "timeout_s": 2.5})
        again = JobSpec.from_payload(spec.to_json_dict())
        assert again == spec
        assert again.sid == spec.sid


# ----------------------------------------------------------------------
# JobJournal: replay semantics
# ----------------------------------------------------------------------

class TestJobJournal:
    def test_lifecycle_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        spec = JobSpec.from_payload({"name": PROBE, "seeds": 2})
        assert journal.submit(spec)
        assert journal.start(spec.sid, "r1")
        assert journal.done(spec.sid, "ok", jobs=2, errors=0)
        state = journal.replay()
        assert list(state.submits) == [spec.sid]
        assert state.starts[spec.sid]["run_id"] == "r1"
        assert state.done[spec.sid]["outcome"] == "ok"
        assert state.pending() == []
        assert state.corrupt_lines == 0

    def test_submission_without_done_is_pending(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        first = JobSpec.from_payload({"name": PROBE, "seed": 1})
        second = JobSpec.from_payload({"name": PROBE, "seed": 2})
        journal.submit(first)
        journal.submit(second)
        journal.done(first.sid, "ok")
        assert journal.replay().pending() == [second.sid]

    def test_cancel_is_terminal_for_replay(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        spec = JobSpec.from_payload({"name": PROBE, "seed": 3})
        journal.submit(spec)
        journal.cancel(spec.sid)
        state = journal.replay()
        assert spec.sid in state.cancelled
        assert state.pending() == []

    def test_duplicate_submits_collapse_first_wins(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        spec = JobSpec.from_payload({"name": PROBE, "seed": 4})
        journal.submit(spec)
        journal.submit(spec)
        state = journal.replay()
        assert state.order == [spec.sid]

    def test_torn_tail_is_skipped_not_raised(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        journal = JobJournal(path)
        spec = JobSpec.from_payload({"name": PROBE, "seed": 5})
        journal.submit(spec)
        blob = path.read_bytes()
        # Tear the (only) record in half, exactly like a mid-write kill.
        path.write_bytes(blob[: len(blob) // 2])
        state = journal.replay()
        assert state.corrupt_lines == 1
        assert state.order == []

    def test_append_after_torn_tail_is_isolated(self, tmp_path):
        """A post-crash append must not merge into the torn line: the
        shared appender prefixes a newline when the tail is torn."""
        path = tmp_path / "jobs.jsonl"
        journal = JobJournal(path)
        first = JobSpec.from_payload({"name": PROBE, "seed": 6})
        second = JobSpec.from_payload({"name": PROBE, "seed": 7})
        journal.submit(first)
        path.write_bytes(path.read_bytes()[:-10])  # torn, no newline
        journal.submit(second)
        state = journal.replay()
        assert state.order == [second.sid]
        assert state.corrupt_lines == 1


# ----------------------------------------------------------------------
# The daemon over real HTTP (in-process instance, ephemeral port)
# ----------------------------------------------------------------------

def _raw_post(base_url, payload, timeout_s=5.0):
    request = urllib.request.Request(
        f"{base_url}/jobs", data=json.dumps(payload).encode("utf-8"),
        method="POST", headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            return (response.status, response.headers.get("Retry-After"),
                    json.loads(response.read()))
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers.get("Retry-After"), json.loads(exc.read())


@pytest.fixture
def parked_service(tmp_path):
    """A service whose worker never starts: queue state is fully
    deterministic (nothing drains while a test inspects it)."""
    service = ExperimentService(tmp_path / "svc", port=0, workers=1,
                                max_queue=1, start_worker=False).start()
    yield service
    service.stop()


@pytest.fixture
def live_service(tmp_path):
    service = ExperimentService(tmp_path / "svc", port=0, workers=1).start()
    yield service
    service.stop()


class TestServiceHTTP:
    def test_healthz_live_and_endpoint_file(self, parked_service):
        client = ServiceClient(parked_service.url, retries=0)
        health = client.health()
        assert health["status"] == "live"
        assert health["service_id"] == parked_service.service_id
        record = read_endpoint(parked_service.state_dir)
        assert record["port"] == parked_service.port
        assert record["service_id"] == parked_service.service_id

    def test_submit_is_journaled_before_the_response(self, parked_service):
        client = ServiceClient(parked_service.url, retries=0)
        body = client.submit({"name": PROBE, "seed": 1})
        assert body["state"] == "queued"
        state = JobJournal(parked_service.state_dir / "jobs.jsonl").replay()
        assert body["sid"] in state.submits

    def test_invalid_submission_is_400(self, parked_service):
        status, _retry, body = _raw_post(parked_service.url,
                                         {"name": "no_such_experiment"})
        assert status == 400
        assert "unknown experiment" in body["error"]
        # Jobs are never retried, so a retry budget is an unknown field.
        status, _retry, body = _raw_post(parked_service.url,
                                         {"name": PROBE, "retries": 1})
        assert status == 400
        assert "unknown field(s): retries" in body["error"]
        with pytest.raises(ServiceError) as info:
            ServiceClient(parked_service.url, retries=0).submit(
                {"name": PROBE, "params": {"junk": 1}})
        assert info.value.status == 400

    def test_duplicate_submission_maps_onto_existing_job(self, parked_service):
        client = ServiceClient(parked_service.url, retries=0)
        first = client.submit({"name": PROBE, "seed": 2})
        again = client.submit({"name": PROBE, "seed": 2})
        assert again["duplicate"] is True
        assert again["sid"] == first["sid"]
        assert parked_service.metrics.value("service_duplicates_total") == 1

    def test_queue_overflow_sheds_with_429_and_retry_after(self, parked_service):
        client = ServiceClient(parked_service.url, retries=0)
        client.submit({"name": PROBE, "seed": 3})  # fills max_queue=1
        status, retry_after, body = _raw_post(parked_service.url,
                                              {"name": PROBE, "seed": 4})
        assert status == 429
        assert float(retry_after) >= 1
        assert body["error"] == "queue full"
        assert parked_service.metrics.value(
            "service_rejections_total", reason="overflow") == 1

    def test_draining_rejects_with_503_and_retry_after(self, parked_service):
        parked_service.initiate_drain("test")
        assert ServiceClient(parked_service.url,
                             retries=0).health()["status"] == "draining"
        status, retry_after, _body = _raw_post(parked_service.url,
                                               {"name": PROBE, "seed": 5})
        assert status == 503
        assert float(retry_after) >= 1

    def test_cancel_queued_job(self, parked_service):
        client = ServiceClient(parked_service.url, retries=0)
        sid = client.submit({"name": PROBE, "seed": 6})["sid"]
        cancelled = client.cancel(sid)
        assert cancelled["state"] == "cancelled"
        assert client.job(sid)["state"] == "cancelled"
        # Terminal: a second cancel is a conflict.
        with pytest.raises(ServiceError) as info:
            client.cancel(sid)
        assert info.value.status == 409
        # And the journal agrees, so a restart will not resurrect it.
        state = JobJournal(parked_service.state_dir / "jobs.jsonl").replay()
        assert sid in state.cancelled

    def test_unknown_routes_and_jobs_are_404(self, parked_service):
        client = ServiceClient(parked_service.url, retries=0)
        for method, path in (("GET", "/jobs/ffffffffffff"),
                             ("GET", "/nope"), ("DELETE", "/jobs/feedface")):
            with pytest.raises(ServiceError) as info:
                client.request(method, path)
            assert info.value.status == 404

    def test_metrics_exposition_has_service_families(self, parked_service):
        ServiceClient(parked_service.url, retries=0).submit(
            {"name": PROBE, "seed": 7})
        text = ServiceClient(parked_service.url, retries=0).metrics_text()
        assert "service_admissions_total" in text
        assert "service_queue_depth 1" in text
        assert "# HELP service_queue_depth" in text


class TestServiceExecution:
    def test_experiment_job_runs_to_done_with_result(self, live_service):
        client = ServiceClient(live_service.url, retries=1)
        sid = client.submit({"name": PROBE, "seed": 0})["sid"]
        record = client.wait(sid, timeout_s=60.0)
        assert record["state"] == "done"
        assert record["result"]["name"] == PROBE
        assert record["summary"]["errors"] == 0

    def test_sweep_runs_through_cache_and_ledger(self, live_service):
        client = ServiceClient(live_service.url, retries=1)
        sid = client.submit({"name": PROBE, "seeds": 3})["sid"]
        record = client.wait(sid, timeout_s=60.0)
        assert record["state"] == "done"
        assert record["summary"]["jobs"] == 3
        cached = {json.loads(path.read_text())["job_id"] for path in
                  (live_service.state_dir / "cache").glob("*/*.json")}
        assert len(cached) == 3
        ledger = RunLedger(live_service.state_dir / "ledger.jsonl")
        records = ledger.scan()
        assert len(records) == 3
        assert {r["command"] for r in records} == {"service"}
        assert {r["job_id"] for r in records} == cached

    def test_restart_preserves_done_state_without_rerun(self, tmp_path):
        state_dir = tmp_path / "svc"
        service = ExperimentService(state_dir, port=0, workers=1).start()
        try:
            client = ServiceClient(service.url, retries=1)
            sid = client.submit({"name": PROBE, "seeds": 2})["sid"]
            client.wait(sid, timeout_s=60.0)
        finally:
            service.stop()
        second = ExperimentService(state_dir, port=0, workers=1).start()
        try:
            assert second.jobs[sid].state == "done"
            assert second.metrics.value("service_journal_replays_total") == 1
            assert second.metrics.value("service_jobs_recovered_total") == 0
            # The finished job is not re-enqueued, so the ledger stays
            # at the original record count.
            assert len(RunLedger(state_dir / "ledger.jsonl").scan()) == 2
        finally:
            second.stop()


class TestServiceClient:
    def test_unreachable_daemon_raises_after_bounded_retries(self):
        client = ServiceClient("http://127.0.0.1:9", retries=1,
                               backoff_s=0.01)
        with pytest.raises(ServiceUnavailable):
            client.health()

    def test_missing_endpoint_file_is_a_clear_error(self, tmp_path):
        with pytest.raises(ServiceUnavailable, match="service.json"):
            ServiceClient.from_state_dir(tmp_path / "nowhere")

    def test_shed_submission_retries_until_exhausted(self, parked_service):
        ServiceClient(parked_service.url, retries=0).submit(
            {"name": PROBE, "seed": 8})
        client = ServiceClient(parked_service.url, retries=1, backoff_s=0.01)
        with pytest.raises(ServiceError) as info:
            client.submit({"name": PROBE, "seed": 9})
        assert info.value.status == 429
        # Both attempts were shed and counted.
        assert parked_service.metrics.value(
            "service_rejections_total", reason="overflow") == 2

    def test_4xx_other_than_shed_never_retries(self, parked_service):
        client = ServiceClient(parked_service.url, retries=3, backoff_s=0.01)
        with pytest.raises(ServiceError):
            client.submit({"name": "no_such_experiment"})
        assert parked_service.metrics.value(
            "service_rejections_total", reason="invalid") == 1


# ----------------------------------------------------------------------
# The worker: one submission at a time, chunk by chunk
# ----------------------------------------------------------------------

@pytest.fixture()
def slow_probe():
    """Registered experiment sleeping ``secs`` per job, so a sweep is
    still running when a test acts on it (runs on the service's pool:
    a test using it needs ``fork_only``)."""

    @experiment("_svc_slow_probe", "sleeps on demand", section="II",
                tags=("test",))
    def _svc_slow_probe(secs: float = 0.0, seed: int = 0):
        time.sleep(secs)
        return {"seed": seed}

    yield "_svc_slow_probe"
    unregister("_svc_slow_probe")


class TestConcurrentScheduling:
    """Scheduling with concurrent clients: submissions run one at a
    time, in order, with cancel and poison checks between chunks."""

    @fork_only
    def test_cancel_running_sweep_stops_at_chunk_boundary(self, live_service,
                                                          slow_probe):
        """A cancel lands between chunks (2 jobs each with one worker):
        the sweep settles ``cancelled`` part way, the journal holds the
        ``cancel`` and a ``done cancelled`` record, and the submission
        queued behind it then runs to ``done``."""
        client = ServiceClient(live_service.url, retries=1)
        sweep_sid = client.submit({"name": slow_probe, "seeds": 30,
                                   "params": {"secs": 0.1}})["sid"]
        next_sid = client.submit({"name": PROBE, "seed": 4242})["sid"]
        assert harness._poll(lambda: client.job(sweep_sid)["completed"] >= 2,
                             timeout_s=30.0, interval_s=0.01)
        assert client.cancel(sweep_sid)["state"] == "cancelling"
        sweep = client.wait(sweep_sid, timeout_s=60.0)
        assert sweep["state"] == "cancelled"
        assert 2 <= sweep["completed"] < 30
        assert sweep["completed"] % 2 == 0  # whole chunks only
        following = client.wait(next_sid, timeout_s=60.0)
        assert following["state"] == "done"
        assert following["started_ts"] >= sweep["finished_ts"]
        state = JobJournal(live_service.state_dir / "jobs.jsonl").replay()
        assert sweep_sid in state.cancelled
        assert state.done[sweep_sid]["outcome"] == "cancelled"
        assert state.done[sweep_sid]["completed"] == sweep["completed"]

    def test_journaled_retries_field_is_unreplayable(self, tmp_path):
        """A submission journaled with the removed ``retries`` field
        replays as an ``error`` record and is not re-enqueued."""
        state_dir = tmp_path / "svc"
        journal = JobJournal(state_dir / "jobs.jsonl")
        spec = JobSpec.from_payload({"name": PROBE, "seed": 3})
        journal.append("submit", spec.sid,
                       spec={**spec.to_json_dict(), "retries": 2})
        service = ExperimentService(state_dir, port=0, workers=1,
                                    start_worker=False).start()
        try:
            rec = service.jobs[spec.sid]
            assert rec.state == "error"
            assert rec.error == ("unreplayable submission: "
                                 "unknown field(s): retries")
            assert len(service.queue) == 0
        finally:
            service.stop()

    def test_jobs_expose_resource_accounting(self, tmp_path):
        service = ExperimentService(tmp_path / "svc", port=0,
                                    workers=1).start()
        try:
            client = ServiceClient(service.url, retries=1)
            sid = client.submit({"name": PROBE, "seeds": 2})["sid"]
            record = client.wait(sid, timeout_s=60.0)
            assert record["wall_s"] > 0
            assert record["peak_rss_kb"] > 0
            assert record["inflight"] == 0  # settled: nothing in flight
        finally:
            service.stop()

    def test_cache_hits_add_no_resource_accounting(self, tmp_path):
        """A hit carries the RSS mark of the process that first ran it,
        here in an earlier daemon life: a submission of hits reports 0."""
        state_dir = tmp_path / "svc"
        sweep = {"name": PROBE, "seeds": 2}
        service = ExperimentService(state_dir, port=0, workers=1).start()
        try:
            client = ServiceClient(service.url, retries=1)
            first = client.wait(client.submit(sweep)["sid"], timeout_s=60.0)
        finally:
            service.stop()
        assert first["peak_rss_kb"] > 0
        (state_dir / "jobs.jsonl").unlink()  # forget it; keep the cache
        service = ExperimentService(state_dir, port=0, workers=1).start()
        try:
            client = ServiceClient(service.url, retries=1)
            again = client.wait(client.submit(sweep)["sid"], timeout_s=60.0)
        finally:
            service.stop()
        assert again["state"] == "done"
        assert again["summary"]["cache_hits"] == again["summary"]["jobs"] == 2
        assert again["peak_rss_kb"] == 0

    def test_failed_outcome_replays_as_failed(self, tmp_path):
        """A journaled ``failed`` completion is terminal on restart —
        the poison is not re-enqueued and re-run."""
        state_dir = tmp_path / "svc"
        journal = JobJournal(state_dir / "jobs.jsonl")
        spec = JobSpec.from_payload({"name": PROBE, "seeds": 2})
        journal.submit(spec)
        journal.start(spec.sid, "r1")
        journal.done(spec.sid, "failed", jobs=2, errors=1, timeouts=1,
                     error="poisoned by job x: outcome=timeout")
        service = ExperimentService(state_dir, port=0, workers=1,
                                    start_worker=False).start()
        try:
            rec = service.jobs[spec.sid]
            assert rec.state == "failed"
            assert "timeout" in rec.error
            assert len(service.queue) == 0
        finally:
            service.stop()

    def test_healthz_reports_scheduling_and_lock_state(self, parked_service):
        client = ServiceClient(parked_service.url, retries=0)
        client.submit({"name": PROBE, "seed": 31})
        health = client.health()
        assert health["queue_depth"] == 1
        assert health["in_flight"] == 0

    def test_metrics_expose_scheduler_gauges(self, parked_service):
        text = ServiceClient(parked_service.url, retries=0).metrics_text()
        assert "service_active_submissions 0" in text


# ----------------------------------------------------------------------
# One warm worker pool for the daemon's life
# ----------------------------------------------------------------------

@pytest.fixture()
def pid_probe():
    """Registered experiment reporting the pid that ran it (sleeping
    ``secs`` first).  Registered before the service's pool forks, so
    the workers know it."""

    @experiment("_svc_pid_probe", "reports its pid", section="II",
                tags=("test",))
    def _svc_pid_probe(secs: float = 0.0, seed: int = 0):
        time.sleep(secs)
        return {"pid": os.getpid()}

    yield "_svc_pid_probe"
    unregister("_svc_pid_probe")


@pytest.fixture()
def pooled_service(tmp_path, pid_probe):
    service = ExperimentService(tmp_path / "svc", port=0, workers=2).start()
    yield service
    service.stop()


def _pool_pids(service):
    return set(service.pool.get()._processes)


def _alive(pid):
    """Is ``pid`` still running?  A stopped pool joins its workers, so
    they are reaped, not zombies."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _job_pids(service, name):
    """Every pid a cached ``name`` job ran on."""
    return {json.loads(path.read_text())["payload"]["pid"]
            for path in (service.state_dir / "cache" / name).glob("*.json")}


@fork_only
class TestWarmPool:
    """Every submission borrows the service's one pool and runs every
    job on it, a one-job submission included: its workers fork at the
    first job and serve every later one until a dead worker or a
    timed-out job replaces them or the service stops."""

    def _sweep(self, client, name, base_seed):
        """A 4-seed sweep: one pooled chunk with ``workers=2``."""
        sid = client.submit({"name": name, "seeds": 4,
                             "base_seed": base_seed})["sid"]
        record = client.wait(sid, timeout_s=60.0)
        assert record["state"] == "done"
        assert record["summary"]["jobs"] == 4

    def test_consecutive_sweeps_run_on_the_same_workers(self, pooled_service,
                                                        pid_probe):
        client = ServiceClient(pooled_service.url, retries=1)
        self._sweep(client, pid_probe, 1)
        warm = _pool_pids(pooled_service)
        assert len(warm) == 2
        self._sweep(client, pid_probe, 2)
        assert _pool_pids(pooled_service) == warm
        ran_on = _job_pids(pooled_service, pid_probe)
        assert ran_on and ran_on <= warm  # both sweeps, pooled workers only

    def test_timed_out_job_fails_and_next_sweep_gets_a_fresh_pool(
            self, pooled_service, pid_probe):
        client = ServiceClient(pooled_service.url, retries=1)
        self._sweep(client, pid_probe, 1)
        first = _pool_pids(pooled_service)
        poisoned = client.submit({"name": pid_probe, "seed": 7,
                                  "params": {"secs": 30.0},
                                  "timeout_s": 0.5})["sid"]
        record = client.wait(poisoned, timeout_s=60.0)
        assert record["state"] == "failed"
        assert "timeout" in record["error"]
        self._sweep(client, pid_probe, 2)
        fresh = _pool_pids(pooled_service)
        assert len(fresh) == 2 and not fresh & first

    def test_one_job_submissions_run_on_the_pool(self, tmp_path, pid_probe):
        service = ExperimentService(tmp_path / "svc", port=0,
                                    workers=1).start()
        try:
            client = ServiceClient(service.url, retries=1)
            pids = []
            for seed in (1, 2):
                sid = client.submit({"name": pid_probe, "seed": seed})["sid"]
                record = client.wait(sid, timeout_s=60.0)
                assert record["state"] == "done"
                pids.append(record["result"]["payload"]["pid"])
            assert pids[0] != os.getpid()
            assert pids[0] == pids[1]
            assert set(pids) == _pool_pids(service)
        finally:
            service.stop()

    def test_killed_worker_of_a_one_job_submission_is_replaced(
            self, pooled_service, pid_probe, tmp_path, monkeypatch):
        from repro import chaos

        state = tmp_path / "chaos"
        monkeypatch.setenv(chaos.ENV_CHAOS, f"kill:name={pid_probe}")
        monkeypatch.setenv(chaos.ENV_CHAOS_STATE, str(state))
        chaos.reset()
        try:
            client = ServiceClient(pooled_service.url, retries=1)
            sid = client.submit({"name": pid_probe, "seed": 3})["sid"]
            record = client.wait(sid, timeout_s=60.0)
            health = client.health()
        finally:
            chaos.reset()
        assert record["state"] == "done"
        assert record["result"]["payload"]["pid"] in _pool_pids(pooled_service)
        assert pooled_service.metrics.value("runner_pool_rebuilds_total") == 1
        assert health["status"] == "live"
        assert chaos.injected_counts(state) == {"kill": 1}

    def test_spent_rebuild_budget_fails_the_submission(self, tmp_path,
                                                       monkeypatch):
        # Every job kills its worker.  The first chunk spends the
        # budget and ends in ``BrokenProcessPool`` errors; the
        # submission stops there instead of killing a pool per chunk.
        from repro import chaos
        from repro.experiments.runner import MAX_POOL_REBUILDS

        monkeypatch.setenv(chaos.ENV_CHAOS, "kill:once=0")
        monkeypatch.setenv(chaos.ENV_CHAOS_STATE, str(tmp_path / "chaos"))
        chaos.reset()
        service = ExperimentService(tmp_path / "svc", port=0,
                                    workers=1).start()
        try:
            client = ServiceClient(service.url, retries=1)
            sid = client.submit({"name": PROBE, "seeds": 8})["sid"]
            record = client.wait(sid, timeout_s=60.0)
        finally:
            service.stop()
            chaos.reset()
        assert record["state"] == "failed"
        assert "BrokenProcessPool" in record["error"]
        assert record["completed"] == 2  # one chunk of 2 × workers
        assert service.metrics.value("runner_pool_rebuilds_total") == \
            MAX_POOL_REBUILDS

    def test_stop_leaves_no_pool_worker_alive(self, tmp_path, pid_probe):
        service = ExperimentService(tmp_path / "svc", port=0,
                                    workers=2).start()
        try:
            self._sweep(ServiceClient(service.url, retries=1), pid_probe, 1)
            workers = _pool_pids(service)
        finally:
            service.stop()
        assert len(workers) == 2
        assert not [pid for pid in workers if _alive(pid)]


# ----------------------------------------------------------------------
# One daemon per state dir: the exclusive daemon.lock
# ----------------------------------------------------------------------

def _subprocess_env():
    """This package importable, no chaos schedule armed."""
    import repro

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_CHAOS")}
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_serve(state_dir):
    """``repro serve`` on ``state_dir`` in a child process.  POSIX record
    locks never conflict within one process, so a competing daemon must
    be a separate process."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--state-dir", str(state_dir), "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_subprocess_env())


def _await_health(proc, state_dir, timeout_s=30.0):
    """The spawned daemon's ``/healthz`` once it answers ({} if it
    exits or never does)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline and proc.poll() is None:
        record = read_endpoint(state_dir)
        if record is not None and record.get("pid") == proc.pid:
            try:
                return ServiceClient(f"http://127.0.0.1:{record['port']}",
                                     retries=0).health()
            except ServiceError:
                pass
        time.sleep(0.05)
    return {}


#: A process that takes the state-dir lock, forks a long-lived child
#: (as a runner forks its pool workers), prints the child's pid, and
#: then waits to be killed.
_FORKING_HOLDER = """
import os, sys, time
from repro.service.daemon import lock_state_dir
lock_state_dir(sys.argv[1])
child = os.fork()
if child == 0:
    time.sleep(120)
    os._exit(0)
print(child, flush=True)
time.sleep(120)
"""


class TestStateDirLock:
    def test_second_daemon_refused_while_held(self, parked_service):
        endpoint = parked_service.state_dir / ENDPOINT_FILE
        before = endpoint.read_bytes()
        proc = _spawn_serve(parked_service.state_dir)
        try:
            _out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 2
        assert f"pid {os.getpid()}" in err
        assert "cannot bind" not in err
        assert endpoint.read_bytes() == before

    def test_daemon_starts_after_stop(self, tmp_path):
        state_dir = tmp_path / "svc"
        ExperimentService(state_dir, port=0, start_worker=False).start().stop()
        proc = _spawn_serve(state_dir)
        try:
            assert _await_health(proc, state_dir).get("status") == "live"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()
            proc.communicate()

    def test_failed_bind_releases_the_lock(self, tmp_path):
        state_dir = tmp_path / "svc"
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
            with pytest.raises(OSError):
                ExperimentService(state_dir, port=sock.getsockname()[1],
                                  start_worker=False).start()
        proc = _spawn_serve(state_dir)
        try:
            assert _await_health(proc, state_dir).get("status") == "live"
        finally:
            proc.kill()
            proc.communicate()

    def test_lock_freed_when_holder_dies_despite_forked_child(self,
                                                              tmp_path):
        """A SIGKILLed holder's forked child (a surviving pool worker)
        must not keep the lock: record locks belong to the process that
        took them, unlike ``flock`` locks, which the child would share."""
        state_dir = tmp_path / "svc"
        state_dir.mkdir()
        holder = subprocess.Popen(
            [sys.executable, "-c", _FORKING_HOLDER, str(state_dir)],
            stdout=subprocess.PIPE, text=True, env=_subprocess_env())
        child = None
        try:
            child = int(holder.stdout.readline())
            with pytest.raises(StateDirBusy):
                lock_state_dir(state_dir)
            holder.kill()
            holder.wait(timeout=10)
            os.kill(child, 0)  # the forked child still runs
            fd = lock_state_dir(state_dir)
            os.close(fd)
        finally:
            holder.kill()
            # The child inherited the holder's stdout pipe: kill it first,
            # or communicate() waits for its sleep to end.
            if child is not None:
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            holder.communicate()


# ----------------------------------------------------------------------
# Client: deterministic retry jitter + typed wait deadline
# ----------------------------------------------------------------------

class TestClientRetryJitter:
    def test_schedule_is_deterministic_per_seed(self):
        first = [retry_delay_s(0.25, a, seed=7) for a in range(5)]
        again = [retry_delay_s(0.25, a, seed=7) for a in range(5)]
        assert first == again

    def test_different_seeds_produce_different_schedules(self):
        a = [retry_delay_s(0.25, n, seed=1) for n in range(5)]
        b = [retry_delay_s(0.25, n, seed=2) for n in range(5)]
        assert a != b

    def test_jitter_is_bounded_around_the_exponential(self):
        for attempt in range(6):
            for seed in range(20):
                delay = retry_delay_s(0.25, attempt, seed=seed, cap_s=1e9)
                base = 0.25 * (2 ** attempt)
                assert 0.5 * base <= delay < 1.5 * base

    def test_retry_after_floor_and_cap(self):
        assert retry_delay_s(0.25, 0, retry_after="3", seed=0) >= 3.0
        assert retry_delay_s(0.25, 10, seed=0, cap_s=5.0) == 5.0
        # A malformed header falls back to the jittered exponential.
        assert retry_delay_s(0.25, 0, retry_after="soon", seed=0) < 1.0

    def test_clients_draw_distinct_seeds_by_default(self):
        seeds = {ServiceClient("http://127.0.0.1:9").jitter_seed
                 for _ in range(8)}
        assert len(seeds) > 1


class _StalledServer:
    """Accepts TCP connections and never answers — a hung daemon."""

    def __init__(self):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.conns = []
        self.thread = threading.Thread(target=self._accept_loop, daemon=True)
        self.thread.start()

    def _accept_loop(self):
        while True:
            try:
                conn, _addr = self.sock.accept()
            except OSError:
                return
            self.conns.append(conn)  # hold open, never respond

    def close(self):
        self.sock.close()
        for conn in self.conns:
            try:
                conn.close()
            except OSError:
                pass


class TestWaitDeadline:
    def test_wait_raises_service_timeout_against_stalled_daemon(self):
        import time as _time

        server = _StalledServer()
        try:
            client = ServiceClient(f"http://127.0.0.1:{server.port}",
                                   timeout_s=0.5, retries=0)
            started = _time.monotonic()
            with pytest.raises(ServiceTimeout):
                client.wait("feedfacecafe", timeout_s=1.0, poll_s=0.05)
            elapsed = _time.monotonic() - started
            # Hard bound: the deadline caps the in-flight request too.
            assert elapsed < 5.0
        finally:
            server.close()

    def test_service_timeout_is_a_timeout_error(self):
        assert issubclass(ServiceTimeout, TimeoutError)
        assert issubclass(ServiceTimeout, ServiceError)

    def test_wait_deadline_parameter_wins_over_timeout(self):
        import time as _time

        server = _StalledServer()
        try:
            client = ServiceClient(f"http://127.0.0.1:{server.port}",
                                   timeout_s=0.5, retries=0)
            deadline = _time.monotonic() + 0.3
            started = _time.monotonic()
            with pytest.raises(ServiceTimeout):
                client.wait("feedfacecafe", timeout_s=60.0, poll_s=0.05,
                            deadline=deadline)
            assert _time.monotonic() - started < 5.0
        finally:
            server.close()


# ----------------------------------------------------------------------
# Acceptance: the deterministic service chaos proof (ISSUE 9)
# ----------------------------------------------------------------------

class TestServiceChaosAcceptance:
    """The two scenarios the issue pins: a 16-job sweep SIGKILLed
    mid-flight resumes on restart with every job accounted exactly
    once, and SIGTERM under load drains to exit 0."""

    def _run(self, name, tmp_path):
        outcome = harness.run_scenario(name, tmp_path)
        failed = [f"{c.label}: {c.observed}"
                  for c in outcome.checks if not c.ok]
        assert outcome.passed, failed
        return outcome

    def test_sigkill_mid_sweep_then_restart_and_resume(self, tmp_path):
        self._run("service_kill", tmp_path)

    def test_sigterm_drain_under_load_exits_zero(self, tmp_path):
        self._run("service_drain", tmp_path)
