"""Failure-capture bundles and deterministic replay.

Covers the full loop: a sanitizer-detected corruption inside a runner
job writes a bundle; :func:`~repro.sanitizer.bundle.replay_bundle`
re-executes the job under the bundle's recorded knobs and reproduces
the identical failure digest; the ``repro replay`` CLI reports the
documented exit codes (0 reproduced, 3 did not reproduce, 2 unreadable
bundle).
"""

import json

import pytest

from repro import chaos
from repro.cli import main
from repro.experiments.runner import execute_job_safe
from repro.sanitizer import runtime as sanit
from repro.sanitizer.bundle import (
    BUNDLE_KIND,
    BUNDLE_SCHEMA,
    BundleError,
    CaptureContext,
    capture_dir,
    failure_digest,
    load_bundle,
    replay_bundle,
)
from repro.utils import rng as rng_utils


@pytest.fixture(autouse=True)
def _clean_chaos(monkeypatch):
    monkeypatch.delenv(chaos.ENV_CHAOS, raising=False)
    monkeypatch.delenv(chaos.ENV_CHAOS_STATE, raising=False)
    chaos.reset()
    yield
    chaos.reset()


def capture_failure(monkeypatch, tmp_path, seed=5):
    """Run one job with a dram.bank corruption armed and capture it."""
    bundles = tmp_path / "bundles"
    monkeypatch.setenv("REPRO_CAPTURE", str(bundles))
    monkeypatch.setenv(sanit.ENV_SANITIZE, "full")
    monkeypatch.setenv(chaos.ENV_CHAOS, "corrupt:sub=dram.bank")
    chaos.reset()
    result = execute_job_safe("sidedness_ablation", seed=seed)
    paths = sorted(bundles.glob("*.json"))
    assert result.outcome == "invariant"
    assert len(paths) == 1
    return result, paths[0]


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
class TestCaptureDir:
    def test_off_always_disarms(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAPTURE", "off")
        sanit.set_level("full")
        assert capture_dir() is None

    def test_explicit_path_arms(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CAPTURE", str(tmp_path))
        sanit.set_level("off")
        assert capture_dir() == tmp_path

    def test_unset_follows_sanitizer(self, monkeypatch):
        monkeypatch.delenv("REPRO_CAPTURE", raising=False)
        sanit.set_level("off")
        assert capture_dir() is None
        sanit.set_level("cheap")
        assert capture_dir() is not None

    def test_arm_if_enabled_matches(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CAPTURE", str(tmp_path))
        context = CaptureContext.arm_if_enabled()
        assert context is not None
        context.restore()
        monkeypatch.setenv("REPRO_CAPTURE", "off")
        assert CaptureContext.arm_if_enabled() is None


class TestBundleContents:
    def test_captured_bundle_fields(self, monkeypatch, tmp_path):
        result, path = capture_failure(monkeypatch, tmp_path)
        bundle = load_bundle(path)
        assert bundle["kind"] == BUNDLE_KIND
        assert bundle["schema"] == BUNDLE_SCHEMA
        assert bundle["name"] == "sidedness_ablation"
        assert bundle["seed"] == 5
        assert bundle["outcome"] == "invariant"
        assert bundle["error"].startswith("InvariantViolation: [dram.bank]")
        assert bundle["violation"]["subsystem"] == "dram.bank"
        assert bundle["chaos"] == "corrupt:sub=dram.bank"
        assert bundle["sanitize_level"] == "full"
        assert bundle["digest"] == failure_digest(
            result.name, dict(result.params), result.seed, result.error
        )
        # Provenance for "how did the job spend its randomness".
        assert bundle["rng_labels"]
        assert all(isinstance(label, str) for label in bundle["rng_labels"])
        assert isinstance(bundle["trace"], list)

    def test_clean_run_writes_no_bundle(self, monkeypatch, tmp_path):
        bundles = tmp_path / "bundles"
        monkeypatch.setenv("REPRO_CAPTURE", str(bundles))
        monkeypatch.setenv(sanit.ENV_SANITIZE, "full")
        result = execute_job_safe("sidedness_ablation", seed=5)
        assert result.outcome == "ok"
        assert not list(bundles.glob("*.json"))


class TestLoadBundle:
    def test_missing_file(self, tmp_path):
        with pytest.raises(BundleError, match="cannot read"):
            load_bundle(tmp_path / "nope.json")

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"kind": "repro-fail')
        with pytest.raises(BundleError, match="not valid JSON"):
            load_bundle(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else", "schema": 1}))
        with pytest.raises(BundleError, match="has kind"):
            load_bundle(path)

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"kind": BUNDLE_KIND, "schema": 99}))
        with pytest.raises(BundleError, match="schema"):
            load_bundle(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"kind": BUNDLE_KIND, "schema": BUNDLE_SCHEMA}))
        with pytest.raises(BundleError, match="name"):
            load_bundle(path)

    def test_non_integer_seed(self, tmp_path):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps({
            "kind": BUNDLE_KIND, "schema": BUNDLE_SCHEMA,
            "name": "x", "params": {}, "digest": "0" * 16, "seed": "five",
        }))
        with pytest.raises(BundleError, match="non-integer seed"):
            load_bundle(path)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
class TestReplay:
    def test_replay_reproduces_injected_failure(self, monkeypatch, tmp_path):
        _result, path = capture_failure(monkeypatch, tmp_path)
        bundle = load_bundle(path)
        # Replay must succeed from a *different* ambient environment.
        monkeypatch.delenv(chaos.ENV_CHAOS, raising=False)
        monkeypatch.setenv(sanit.ENV_SANITIZE, "off")
        sanit.sync_from_env()
        chaos.reset()
        report = replay_bundle(bundle)
        assert report.reproduced
        assert report.digest == report.expected_digest == bundle["digest"]
        assert report.result.outcome == "invariant"
        # The caller's knobs came back.
        assert sanit.current_level() == "off"
        assert chaos.ENV_CHAOS not in __import__("os").environ

    def test_tampered_digest_does_not_reproduce(self, monkeypatch, tmp_path):
        _result, path = capture_failure(monkeypatch, tmp_path)
        bundle = load_bundle(path)
        bundle["digest"] = "0" * 16
        report = replay_bundle(bundle)
        assert not report.reproduced
        assert report.digest != report.expected_digest

    def test_clean_rerun_never_reproduces(self, monkeypatch, tmp_path):
        """A bundle whose failure was environmental (here: the chaos
        schedule is stripped) reruns clean — and a clean rerun must not
        count as reproduced even if a digest could match."""
        _result, path = capture_failure(monkeypatch, tmp_path)
        bundle = load_bundle(path)
        bundle["chaos"] = None
        report = replay_bundle(bundle)
        assert not report.reproduced
        assert report.result.outcome == "ok"

    def test_report_json_shape(self, monkeypatch, tmp_path):
        _result, path = capture_failure(monkeypatch, tmp_path)
        report = replay_bundle(load_bundle(path))
        record = report.to_json_dict()
        assert record["reproduced"] is True
        assert record["outcome"] == "invariant"
        assert record["digest"] == record["expected_digest"]


# ----------------------------------------------------------------------
# CLI exit codes: 0 reproduced, 3 did not reproduce, 2 unreadable
# ----------------------------------------------------------------------
class TestReplayCli:
    def test_reproduced_exits_zero(self, monkeypatch, tmp_path, capsys):
        _result, path = capture_failure(monkeypatch, tmp_path)
        assert main(["replay", str(path)]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_not_reproduced_exits_three(self, monkeypatch, tmp_path):
        _result, path = capture_failure(monkeypatch, tmp_path)
        bundle = json.loads(path.read_text())
        bundle["digest"] = "0" * 16
        path.write_text(json.dumps(bundle))
        assert main(["replay", str(path)]) == 3

    def test_unreadable_bundle_exits_two(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        assert main(["replay", str(path)]) == 2
        assert "bundle" in capsys.readouterr().err.lower()

    def test_json_output(self, monkeypatch, tmp_path, capsys):
        _result, path = capture_failure(monkeypatch, tmp_path)
        assert main(["replay", str(path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["reproduced"] is True
        assert record["name"] == "sidedness_ablation"


# ----------------------------------------------------------------------
# rng derivation-label capture (the bundle's randomness provenance)
# ----------------------------------------------------------------------
class TestLabelCapture:
    def test_labels_recorded_between_start_and_stop(self):
        rng_utils.start_label_capture()
        try:
            rng_utils.derive_seed(1, "experiment", 7)
            labels = list(rng_utils._capture_labels)
        finally:
            rng_utils.stop_label_capture()
        assert labels == ["1/experiment/7"]
        rng_utils.derive_seed(1, "after-stop")
        assert rng_utils._capture_labels is None

    def test_capture_is_capped(self):
        rng_utils.start_label_capture()
        try:
            for i in range(rng_utils._CAPTURE_CAP + 50):
                rng_utils.derive_seed(0, "spin", i)
            assert len(rng_utils._capture_labels) == rng_utils._CAPTURE_CAP
        finally:
            rng_utils.stop_label_capture()
