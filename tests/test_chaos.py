"""The chaos plan (parsing, claiming, determinism) and the scenario
harness that proves the hardened runner's recovery paths."""

import multiprocessing
import os

import pytest

from repro import chaos
from repro.chaos import harness
from repro.chaos.plan import ChaosPlan, ChaosTransientError, FaultSpec

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="each scenario arms its faults in os.environ; a fork server "
           "started by an earlier scenario keeps its old environment, "
           "so its workers never see them",
)


@pytest.fixture(autouse=True)
def _clean_chaos(monkeypatch):
    monkeypatch.delenv(chaos.ENV_CHAOS, raising=False)
    monkeypatch.delenv(chaos.ENV_CHAOS_STATE, raising=False)
    chaos.reset()
    yield
    chaos.reset()


class TestPlanParsing:
    def test_entry_grammar(self):
        plan = ChaosPlan.parse(
            "kill:seed=7,hang:secs=2.5:name=x,exc:once=0,ledger,"
            "corrupt:sub=dram.bank")
        kinds = [s.kind for s in plan.specs]
        assert kinds == ["kill", "hang", "exc", "ledger", "corrupt"]
        assert plan.specs[0].seed == 7
        assert plan.specs[1].secs == 2.5
        assert plan.specs[1].name == "x"
        assert plan.specs[2].once is False
        assert plan.specs[3].once is True
        assert plan.specs[4].sub == "dram.bank"

    def test_unknown_kind_and_field_raise(self):
        with pytest.raises(ValueError):
            ChaosPlan.parse("explode")
        with pytest.raises(ValueError):
            ChaosPlan.parse("kill:frobnicate=1")
        with pytest.raises(ValueError, match="unknown chaos field 'rate'"):
            ChaosPlan.parse("exc:rate=0.5")
        with pytest.raises(ValueError, match="unknown chaos fault kind"):
            ChaosPlan.parse("seed=42,exc")

    def test_env_round_trip_and_cache_invalidation(self, monkeypatch):
        assert chaos.current_plan() is None
        monkeypatch.setenv(chaos.ENV_CHAOS, "exc")
        first = chaos.current_plan()
        assert first is not None
        assert [s.kind for s in first.specs] == ["exc"]
        monkeypatch.setenv(chaos.ENV_CHAOS, "ledger")
        assert [s.kind for s in chaos.current_plan().specs] == ["ledger"]


class TestFiring:
    def test_fault_fires_at_most_once(self):
        plan = ChaosPlan.parse("exc")
        assert plan.pick("exc") is not None
        assert plan.pick("exc") is None

    def test_once_0_fires_every_time(self, tmp_path):
        plan = ChaosPlan.parse("exc:once=0", state_dir=tmp_path)
        assert all(plan.pick("exc", "x", s) is not None for s in range(3))
        assert chaos.injected_counts(tmp_path) == {"exc": 3}

    def test_seed_filter_pins_the_victim(self):
        plan = ChaosPlan.parse("exc:seed=5")
        assert plan.pick("exc", "x", 4) is None
        assert plan.pick("exc", "x", 5) is not None
        assert plan.pick("exc", "x", 5) is None  # consumed

    def test_state_dir_claims_cross_instance(self, tmp_path):
        a = ChaosPlan.parse("kill", state_dir=tmp_path)
        b = ChaosPlan.parse("kill", state_dir=tmp_path)
        assert a.pick("kill") is not None
        assert b.pick("kill") is None  # marker already claimed
        assert chaos.injected_counts(tmp_path) == {"kill": 1}

    def test_on_job_start_raises_transient(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_CHAOS, "exc")
        chaos.reset()
        with pytest.raises(ChaosTransientError):
            chaos.on_job_start("x", 0)
        chaos.on_job_start("x", 0)  # consumed: second call is clean

    def test_kill_never_fires_in_the_parent(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_CHAOS, "kill")
        chaos.reset()
        assert not chaos.in_worker()
        chaos.on_job_start("x", 0)  # would SIGKILL us if the guard failed
        # The kill spec is still armed (unclaimed) for a real worker.
        assert chaos.current_plan().pick("kill") is not None


class TestScenarios:
    """Each harness scenario is a real end-to-end recovery proof."""

    def _run(self, name, tmp_path, workers=2):
        outcome = harness.run_scenario(name, tmp_path, workers=workers)
        failed = [f"{c.label}: {c.observed}" for c in outcome.checks if not c.ok]
        assert outcome.passed, failed
        return outcome

    def test_exc_scenario(self, tmp_path):
        self._run("exc", tmp_path)

    def test_torn_scenario(self, tmp_path):
        self._run("torn", tmp_path)

    def test_ledger_scenario(self, tmp_path):
        self._run("ledger", tmp_path)

    @fork_only
    def test_kill_scenario(self, tmp_path):
        self._run("kill", tmp_path)

    @fork_only
    def test_hang_scenario(self, tmp_path):
        self._run("hang", tmp_path)

    def test_service_torn_scenario(self, tmp_path):
        """A torn journal ``done`` record: replay counts the tear,
        re-enqueues the job, and the re-run is all cache hits."""
        self._run("service_torn", tmp_path)

    def test_service_shed_scenario(self, tmp_path):
        """Queue overflow sheds with 429 + Retry-After; the patient
        client eventually lands the job and nothing runs twice."""
        self._run("service_shed", tmp_path)

    @fork_only
    def test_service_poisoned_scenario(self, tmp_path):
        """A timeout-poisoned submission fails its own fault domain
        (structured ``failed``) while its co-scheduled healthy
        neighbour completes."""
        self._run("service_poisoned", tmp_path)

    @fork_only
    def test_hang_produces_stale_heartbeat_before_timeout(
            self, tmp_path, monkeypatch):
        """The live-telemetry contract for hangs: the streaming consumer
        must flag the hung job's stale heartbeat strictly *before* the
        timeout reaper produces its structured outcome."""
        from repro.experiments import ExperimentRunner, Job, registry
        from repro.experiments.runner import derive_seed, job_key
        from repro.telemetry import job_id_from_key

        victim = derive_seed(0, 1)
        monkeypatch.setenv(chaos.ENV_CHAOS, f"hang:seed={victim}:secs=20")
        monkeypatch.setenv(chaos.ENV_CHAOS_STATE, str(tmp_path / "state"))
        chaos.reset()
        name = registry.resolve(harness.PROBE_EXPERIMENT)
        runner = ExperimentRunner(cache_dir=None, max_workers=2, ledger=False,
                                  timeout_s=2.0, stream=True,
                                  heartbeat_s=0.1, stale_after_s=0.5)
        results = runner.run([Job(name, {}, derive_seed(0, i))
                              for i in range(4)])
        hung = [r for r in results if r.seed == victim]
        assert hung and hung[0].outcome == "timeout"
        jid = job_id_from_key(job_key(name, {}, victim))
        stale = [e for e in runner.progress.stale_events
                 if e["job_id"] == jid]
        assert stale, "hung job was never flagged stale"
        finished = runner.progress.jobs[jid]["finished_mono"]
        assert stale[0]["at_mono"] < finished, (
            "stale warning did not precede the timeout outcome")

    @fork_only
    def test_combined_acceptance_scenario(self, tmp_path):
        """The pinned acceptance schedule: SIGKILL + hang + torn write in
        a 16-job sweep, exact telemetry, then a re-run on the same cache
        that re-executes exactly the timed-out and the torn-write jobs."""
        self._run("combined", tmp_path, workers=4)

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            harness.run_suite(["no-such-scenario"], workdir=tmp_path)

    def test_scenarios_restore_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(chaos.ENV_CHAOS, "ledger")
        harness.run_scenario("exc", tmp_path)
        assert os.environ[chaos.ENV_CHAOS] == "ledger"
