"""The run ledger: an append-only JSONL manifest of every experiment run.

Field-scale characterization campaigns (the paper's Figure 1 is one)
live and die by provenance: which jobs ran, with what parameters and
seeds, on which code, how long they took, and what they measured.  The
ledger answers those questions *longitudinally* — every
:class:`~repro.experiments.runner.ExperimentRunner` job appends one
JSON line to a machine-local file, so ``repro ledger list|show|diff``
can reconstruct and compare months of runs.

One record carries: schema version, timestamp, hostname, git SHA and
package version, the job's name/params/seed, duration, peak RSS,
cache-hit and ok/error status, a digest of the payload, and a digest
plus headline totals of the job's metric snapshot.

Configuration is environment-first so it works under any entry point:

* ``REPRO_LEDGER_PATH`` — where the JSONL lives
  (default ``~/.cache/repro/ledger.jsonl``);
* ``REPRO_LEDGER=off`` (also ``0``/``false``/``no``) — the off switch.

Appends are best-effort: a read-only home directory must never take
down an experiment run.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "LEDGER_SCHEMA",
    "DEFAULT_LEDGER_PATH",
    "ENV_LEDGER_PATH",
    "ENV_LEDGER_SWITCH",
    "RunLedger",
    "build_record",
    "default_ledger",
    "git_sha",
    "ledger_enabled",
]

LEDGER_SCHEMA = 1
DEFAULT_LEDGER_PATH = "~/.cache/repro/ledger.jsonl"
ENV_LEDGER_PATH = "REPRO_LEDGER_PATH"
ENV_LEDGER_SWITCH = "REPRO_LEDGER"

#: At most this many per-counter totals are inlined into a record; the
#: full snapshot is represented by its digest.
_MAX_METRIC_TOTALS = 48

_git_sha_cache: Optional[str] = None


def ledger_enabled() -> bool:
    """The ``REPRO_LEDGER`` off switch (default: on)."""
    return os.environ.get(ENV_LEDGER_SWITCH, "").strip().lower() not in (
        "off", "0", "false", "no", "disabled",
    )


def ledger_path() -> Path:
    return Path(os.environ.get(ENV_LEDGER_PATH) or DEFAULT_LEDGER_PATH).expanduser()


def default_ledger() -> Optional["RunLedger"]:
    """The environment-configured ledger, or ``None`` when switched off."""
    if not ledger_enabled():
        return None
    return RunLedger(ledger_path())


def git_sha() -> str:
    """Short git SHA of the source tree, cached; empty when unavailable."""
    global _git_sha_cache
    if _git_sha_cache is None:
        try:
            _git_sha_cache = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True, text=True, timeout=5,
            ).stdout.strip()
        except Exception:
            _git_sha_cache = ""
    return _git_sha_cache


def _digest(blob: str) -> str:
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def build_record(result: Any, command: str = "runner") -> Dict[str, Any]:
    """One ledger record for an :class:`ExperimentResult`-shaped object.

    Digests make runs comparable without storing payloads: two records
    with equal ``payload_digest`` produced byte-identical canonical
    payload JSON.  ``metrics_totals`` inlines per-counter sums (capped)
    so ``repro ledger diff`` can show *which* hardware activity moved.
    """
    import repro
    from repro.experiments.result import canonical_json
    from repro.telemetry import ids

    job_id = getattr(result, "job_id", None)
    if not job_id:
        try:
            from repro.experiments.runner import job_key

            job_id = ids.job_id_from_key(
                job_key(result.name, result.params, result.seed))
        except Exception:  # unregistered name: identity stays best-effort
            job_id = ""
    metrics_digest = ""
    metrics_totals: Dict[str, float] = {}
    if result.metrics:
        metrics_digest = _digest(canonical_json(result.metrics))
        for entry in result.metrics.get("counters", ()):
            name = entry["name"]
            metrics_totals[name] = metrics_totals.get(name, 0) + entry["value"]
        if len(metrics_totals) > _MAX_METRIC_TOTALS:
            keep = sorted(metrics_totals)[:_MAX_METRIC_TOTALS]
            metrics_totals = {k: metrics_totals[k] for k in keep}
    record = {
        "schema": LEDGER_SCHEMA,
        "ts": time.time(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        "host": socket.gethostname(),
        "repro_version": repro.__version__,
        "git_sha": git_sha(),
        "command": command,
        "run_id": getattr(result, "run_id", None) or "",
        "job_id": job_id,
        "name": result.name,
        "params": dict(result.params),
        "seed": result.seed,
        "duration_s": result.duration_s,
        "peak_rss_kb": result.peak_rss_kb,
        "cache_hit": result.cache_hit,
        "ok": result.error is None,
        "error": result.error,
        "payload_digest": _digest(canonical_json(result.payload))
        if result.payload is not None else "",
        "metrics_digest": metrics_digest,
        "metrics_totals": metrics_totals,
    }
    record["id"] = _digest(json.dumps(record, sort_keys=True, default=repr))[:12]
    return record


class RunLedger:
    """Append-only JSONL manifest of runs at one path.

    Appends are race-safe: the whole line goes down in a single
    ``write`` on an ``O_APPEND`` descriptor, so concurrent runners
    sharing one ledger interleave whole records, never fragments of
    them.  Reads skip unparseable lines and count them in
    :attr:`corrupt_lines` so ``repro ledger show``/``diff`` can report
    (rather than crash on) a torn or foreign line.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path).expanduser()
        self.corrupt_lines = 0

    def append(self, record: Dict[str, Any]) -> bool:
        """Append one record; best-effort (returns False on IO failure)."""
        from repro import chaos

        if chaos.fail_ledger_append(
                record.get("name"), record.get("seed")):
            return False  # injected I/O failure: the best-effort contract
        from repro.utils.jsonl import append_record

        line = (json.dumps(record, sort_keys=True, default=repr) + "\n").encode("utf-8")
        return append_record(self.path, line, fsync=False)

    def record(self, result: Any, command: str = "runner") -> Dict[str, Any]:
        """Build and append a record for ``result``; returns the record."""
        rec = build_record(result, command=command)
        self.append(rec)
        return rec

    def scan(self) -> List[Dict[str, Any]]:
        """All parseable records, oldest first; refreshes
        :attr:`corrupt_lines` with the number of skipped lines."""
        self.corrupt_lines = 0
        if not self.path.is_file():
            return []
        out: List[Dict[str, Any]] = []
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    self.corrupt_lines += 1
                    continue
                if isinstance(record, dict):
                    out.append(record)
                else:
                    self.corrupt_lines += 1
        from repro.telemetry import runtime as telem

        if telem.metrics_on:
            telem.gauge("ledger_corrupt_lines").set(self.corrupt_lines)
        return out

    def records(self) -> List[Dict[str, Any]]:
        """All parseable records, oldest first (torn lines are skipped)."""
        return self.scan()

    def find(self, ref: str) -> Optional[Dict[str, Any]]:
        """Look a record up by 1-based index, negative index, or id prefix.

        A numeric ref is tried as an index first; when that misses and
        the ref is id-prefix-sized (>= 4 chars), it falls back to a
        prefix match — hex ids are sometimes all digits, and those must
        stay findable.
        """
        records = self.records()
        if not records:
            return None
        try:
            index = int(ref)
        except ValueError:
            return self._find_by_prefix(records, ref)
        if index != 0:
            try:
                return records[index - 1] if index > 0 else records[index]
            except IndexError:
                pass
        if len(ref.lstrip("-")) >= 4:
            return self._find_by_prefix(records, ref)
        return None

    @staticmethod
    def _find_by_prefix(records: List[Dict[str, Any]],
                        ref: str) -> Optional[Dict[str, Any]]:
        matches = [r for r in records if str(r.get("id", "")).startswith(ref)]
        return matches[-1] if matches else None
