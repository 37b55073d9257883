"""Structured experiment results.

An :class:`ExperimentResult` is the unit the runner, the cache, the CLI
and the report writer all exchange: the experiment's (JSON-safe)
payload plus full provenance — seed, bound parameters, wall-clock
duration, peak RSS, and the package version that produced it.  Bare
dicts no longer cross the experiment boundary.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


def to_jsonable(value: Any) -> Any:
    """Best-effort conversion of experiment payloads to JSON types.

    Dataclasses become dicts, numpy arrays/scalars become lists/numbers,
    generic objects fall back to their public ``__dict__``; anything
    else is ``repr``-ed.  The conversion is deterministic for a
    deterministic payload, which is what makes result caching and the
    same-seed ⇒ byte-identical-JSON guarantee possible.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: to_jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        try:
            return to_jsonable(value.item())  # numpy scalar
        except Exception:  # pragma: no cover - exotic .item() objects
            pass
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "__dict__") and not isinstance(value, type):
        return {k: to_jsonable(v) for k, v in vars(value).items() if not k.startswith("_")}
    return repr(value)


def canonical_json(value: Any) -> str:
    """The canonical (sorted-keys, compact) JSON encoding used for cache
    keys and determinism checks."""
    return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ExperimentResult:
    """One experiment execution: payload + provenance.

    ``metrics`` — when the job ran with telemetry collection on — is
    the job's :meth:`~repro.telemetry.MetricsRegistry.snapshot`: the
    counters/gauges/histograms the simulated hardware emitted while
    this experiment executed.  It travels through the result cache, so
    a cached result still answers "what did the hardware do".

    ``profile`` is the analogous
    :meth:`~repro.telemetry.SpanProfiler.snapshot` of wall-clock spans
    when the job ran under the span profiler.

    ``physics`` is the analogous
    :meth:`~repro.telemetry.PhysicsCollector.snapshot` of the domain
    observability layer — per-row heat, flip provenance aggregates,
    and the mitigation audit trail — when the job collected the
    ``physics`` observer.

    ``error`` is ``None`` for a successful run; a fault-tolerant batch
    (:meth:`~repro.experiments.runner.ExperimentRunner.run`) captures a
    raising job as a result with ``payload=None`` and ``error`` set to
    ``"ExcType: message"`` — never cached, always surfaced.

    ``run_id``/``job_id`` are the correlation pair from
    :mod:`repro.telemetry.ids`: the sweep-level run and the
    deterministic per-job ID also stamped into trace events, ledger
    lines, result cache records, and failure-capture bundles.  Both may
    be ``None`` for results read from pre-correlation caches.
    """

    name: str
    payload: Any
    seed: Optional[int]
    params: Dict[str, Any] = field(default_factory=dict)
    duration_s: float = 0.0
    peak_rss_kb: int = 0
    version: str = ""
    cache_hit: bool = False
    metrics: Optional[Dict[str, Any]] = None
    profile: Optional[Dict[str, Any]] = None
    physics: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    run_id: Optional[str] = None
    job_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def outcome(self) -> str:
        """Structured outcome class: ``"ok"``, ``"timeout"``,
        ``"invariant"``, or ``"error"``.

        Classification keys on the error class (the leading
        ``ClassName`` of the error string): ``JobTimeout`` is the
        runner's deadline enforcement, ``InvariantViolation`` is the
        sanitizer catching corrupted simulator state (see
        :mod:`repro.sanitizer`); everything else is a plain error.
        """
        if self.error is None:
            return "ok"
        cls = self.error.split(":", 1)[0].strip()
        if cls == "JobTimeout":
            return "timeout"
        if cls == "InvariantViolation":
            return "invariant"
        return "error"

    def payload_json(self) -> str:
        """Canonical JSON of the payload (byte-identical for equal seeds)."""
        return canonical_json(self.payload)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "params": to_jsonable(self.params),
            "duration_s": self.duration_s,
            "peak_rss_kb": self.peak_rss_kb,
            "version": self.version,
            "cache_hit": self.cache_hit,
            "metrics": self.metrics,
            "profile": self.profile,
            "physics": self.physics,
            "error": self.error,
            "run_id": self.run_id,
            "job_id": self.job_id,
            "payload": self.payload,
        }

    @classmethod
    def from_json_dict(cls, record: Dict[str, Any], **overrides: Any) -> "ExperimentResult":
        fields = {
            "name": record["name"],
            "payload": record["payload"],
            "seed": record.get("seed"),
            "params": dict(record.get("params") or {}),
            "duration_s": float(record.get("duration_s", 0.0)),
            "peak_rss_kb": int(record.get("peak_rss_kb", 0)),
            "version": record.get("version", ""),
            "cache_hit": bool(record.get("cache_hit", False)),
            "metrics": record.get("metrics"),
            "profile": record.get("profile"),
            "physics": record.get("physics"),
            "error": record.get("error"),
            "run_id": record.get("run_id"),
            "job_id": record.get("job_id"),
        }
        fields.update(overrides)
        return cls(**fields)
