"""Failure-capture bundles and deterministic replay.

When a job errors — an invariant trips, the experiment raises, a
deadline fires — the runner writes a minimal, self-contained **failure
bundle** next to the run: the experiment name, bound params, seed, the
error string and its digest, the sanitizer verdict, the active chaos
schedule, the :mod:`repro.utils.rng` derivation labels consumed so far,
and the most recent trace-ring events.  ``repro replay <bundle>``
re-executes the job under the same knobs and asserts the same failure
digest, turning "a sweep died overnight" into a one-command local
repro.

Capture is armed whenever the sanitizer is on, or explicitly via the
``REPRO_CAPTURE`` environment variable / ``--capture-dir`` CLI flag
(a directory path arms it; the literal ``off`` disarms it even with
the sanitizer on).  Bundles default to ``.repro-failures/``.

The **failure digest** is the SHA-256 (truncated to 16 hex chars) of
the canonical JSON of ``{name, params, seed, error}`` — the full
identity of a deterministic failure.  A replay reproduces the bundle
iff it fails with byte-identical error identity.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.experiments.result import ExperimentResult, canonical_json
from repro.telemetry import runtime as telem
from repro.telemetry.trace import TraceRecorder
from repro.utils import rng as rng_utils

from repro.sanitizer import runtime as sanit

__all__ = [
    "BUNDLE_SCHEMA",
    "BUNDLE_KIND",
    "DEFAULT_CAPTURE_DIR",
    "ENV_CAPTURE",
    "TRACE_CAPACITY",
    "BundleError",
    "CaptureContext",
    "ReplayReport",
    "capture_dir",
    "failure_digest",
    "load_bundle",
    "replay_bundle",
]

BUNDLE_SCHEMA = 1
BUNDLE_KIND = "repro-failure-bundle"
ENV_CAPTURE = "REPRO_CAPTURE"
DEFAULT_CAPTURE_DIR = ".repro-failures"

#: Events kept in the bundle's recent-trace ring.
TRACE_CAPACITY = 256


class BundleError(ValueError):
    """The file is not a readable failure bundle (missing, truncated,
    wrong schema, or missing required fields)."""


def capture_dir() -> Optional[Path]:
    """Where to write failure bundles, or ``None`` when capture is off.

    ``REPRO_CAPTURE=off`` always disarms; any other non-empty value is
    the target directory; unset falls back to ``.repro-failures`` when
    the sanitizer is enabled (a tripped invariant must leave evidence).
    """
    raw = os.environ.get(ENV_CAPTURE, "").strip()
    if raw.lower() == "off":
        return None
    if raw:
        return Path(raw)
    if sanit.sanitize_on:
        return Path(DEFAULT_CAPTURE_DIR)
    return None


def failure_digest(name: str, params: Dict[str, Any], seed: Optional[int],
                   error: Optional[str]) -> str:
    """The 16-hex-char identity of one failure (or success: error=None)."""
    blob = canonical_json(
        {"name": name, "params": params, "seed": seed, "error": error}
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class CaptureContext:
    """Per-job capture state: rng derivation labels + a recent trace ring.

    Armed by :func:`~repro.experiments.runner.execute_job_safe` before
    the job body (so chaos- and sanitizer-induced failures are both
    covered); ``restore()`` must run afterwards whatever happened, and
    :meth:`write_bundle` before it.  When tracing is off, a private
    ring observes the job; when it is already on, the caller's recorder
    is left alone and the bundle takes its most recent events instead.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self._scope = ExitStack()
        rng_utils.start_label_capture()
        self._scope.callback(rng_utils.stop_label_capture)
        if not telem.trace_on:
            self._scope.enter_context(telem.observing(
                trace=TraceRecorder(capacity=TRACE_CAPACITY)))

    @staticmethod
    def arm_if_enabled() -> Optional["CaptureContext"]:
        directory = capture_dir()
        return CaptureContext(directory) if directory is not None else None

    def restore(self) -> None:
        self._scope.close()

    # -- bundle assembly -----------------------------------------------
    def _recent_trace(self) -> List[Dict[str, Any]]:
        events = telem.get_tracer().events()[-TRACE_CAPACITY:]
        return [event.to_json_dict() for event in events]

    def write_bundle(self, result: ExperimentResult,
                     exc: Optional[BaseException] = None) -> Path:
        """Persist one failed job as a bundle; returns the bundle path."""
        import repro
        from repro.experiments.runner import job_key
        from repro.telemetry import ids

        violation = None
        if isinstance(exc, sanit.InvariantViolation):
            violation = exc.to_json_dict()
        digest = failure_digest(result.name, dict(result.params),
                                result.seed, result.error)
        key = job_key(result.name, result.params, result.seed)
        record = {
            "schema": BUNDLE_SCHEMA,
            "kind": BUNDLE_KIND,
            "name": result.name,
            "params": dict(result.params),
            "seed": result.seed,
            "error": result.error,
            "outcome": result.outcome,
            "digest": digest,
            "sanitize_level": sanit.current_level(),
            "violation": violation,
            "chaos": os.environ.get("REPRO_CHAOS", "").strip() or None,
            "rng_labels": list(rng_utils._capture_labels or []),
            "trace": self._recent_trace(),
            "job_key": key,
            "run_id": result.run_id,
            "job_id": getattr(result, "job_id", None) or ids.job_id_from_key(key),
            "repro_version": repro.__version__,
            "captured_at": time.time(),
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"{result.name}-{result.seed}-{digest}.json"
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True,
                                  default=repr))
        os.replace(tmp, path)
        if telem.metrics_on:
            telem.counter("failure_bundles_written_total",
                          outcome=result.outcome).inc()
        return path


def load_bundle(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a failure bundle; raises :class:`BundleError`."""
    path = Path(path)
    try:
        record = json.loads(path.read_text())
    except OSError as exc:
        raise BundleError(f"cannot read bundle {path}: {exc}") from exc
    except ValueError as exc:
        raise BundleError(f"bundle {path} is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise BundleError(f"bundle {path} is not a JSON object")
    if record.get("kind") != BUNDLE_KIND:
        raise BundleError(
            f"bundle {path} has kind {record.get('kind')!r}, "
            f"expected {BUNDLE_KIND!r}"
        )
    if record.get("schema") != BUNDLE_SCHEMA:
        raise BundleError(
            f"bundle {path} has schema {record.get('schema')!r}, "
            f"this version reads schema {BUNDLE_SCHEMA}"
        )
    for key, kinds in (("name", str), ("params", dict), ("digest", str)):
        if not isinstance(record.get(key), kinds):
            raise BundleError(f"bundle {path} is missing a valid {key!r} field")
    seed = record.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise BundleError(f"bundle {path} has a non-integer seed {seed!r}")
    return record


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of re-executing a captured failure."""

    reproduced: bool
    expected_digest: str
    digest: str
    result: ExperimentResult

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "reproduced": self.reproduced,
            "expected_digest": self.expected_digest,
            "digest": self.digest,
            "outcome": self.result.outcome,
            "error": self.result.error,
        }


def replay_bundle(bundle: Dict[str, Any],
                  timeout_s: Optional[float] = None) -> ReplayReport:
    """Deterministically re-execute a captured failure.

    The job reruns under the bundle's knobs: the recorded chaos
    schedule (with once-claims reset so injected faults fire again),
    the recorded sanitizer level, and capture disarmed (a replay must
    not write bundles of itself).  The caller's environment and
    sanitizer level are restored afterwards.

    ``reproduced`` means the rerun *failed* with the identical failure
    digest — a clean rerun never reproduces, even though a success
    digest exists.
    """
    from repro import chaos
    from repro.experiments.runner import call_with_deadline, execute_job_safe

    saved = {
        key: os.environ.get(key)
        for key in (chaos.ENV_CHAOS, chaos.ENV_CHAOS_STATE,
                    sanit.ENV_SANITIZE, ENV_CAPTURE)
    }
    try:
        if bundle.get("chaos"):
            os.environ[chaos.ENV_CHAOS] = bundle["chaos"]
        else:
            os.environ.pop(chaos.ENV_CHAOS, None)
        os.environ.pop(chaos.ENV_CHAOS_STATE, None)
        os.environ[sanit.ENV_SANITIZE] = bundle.get("sanitize_level") or "off"
        os.environ[ENV_CAPTURE] = "off"
        chaos.reset()
        # The job adopts the bundle's level from the environment; the
        # scope puts the caller's level back.
        with telem.observing():
            result = call_with_deadline(
                lambda: execute_job_safe(bundle["name"],
                                         params=dict(bundle["params"]),
                                         seed=bundle.get("seed")),
                timeout_s,
            )
        digest = failure_digest(result.name, dict(result.params),
                                result.seed, result.error)
        return ReplayReport(
            reproduced=result.error is not None and digest == bundle["digest"],
            expected_digest=bundle["digest"],
            digest=digest,
            result=result,
        )
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        chaos.reset()
