"""The service job journal and the submission model.

Every accepted submission becomes one ``submit`` record in an
append-only ``jobs.jsonl``; lifecycle transitions append ``start``,
``done``, and ``cancel`` records.  Appends are single ``O_APPEND``
writes followed by ``fsync`` (see :mod:`repro.utils.jsonl`), so a
SIGKILL can tear at most the final line — and :meth:`JobJournal.replay`
skips (and counts) torn lines instead of raising.

Replay semantics give the daemon its crash contract: a submission
without a matching ``done``/``cancel`` is *pending* and re-enqueues on
restart; completed work is never re-executed because the result cache
under the same state directory still holds it.  The journal records
submissions only: results live in the cache, provenance in the ledger.

Submissions are **idempotent**: a :class:`JobSpec`'s service ID
(``sid``) derives from the same ``job_key`` digest the result cache
uses, so a client retrying a ``POST /jobs`` it never saw the response
to maps onto the already-journaled job instead of double-running it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Set, Union

from repro.experiments import registry
from repro.experiments.runner import Job, derive_seed, job_key
from repro.telemetry import ids
from repro.utils.jsonl import append_record

__all__ = ["DONE_OUTCOMES", "JOURNAL_SCHEMA", "JOURNAL_EVENTS", "JobJournal",
           "JobSpec", "ReplayState"]

JOURNAL_SCHEMA = 1

#: The journal's event vocabulary, in lifecycle order.
JOURNAL_EVENTS = ("submit", "start", "done", "cancel")

#: ``done`` record outcomes: ``ok`` (all jobs succeeded), ``error``
#: (individual jobs errored but the submission ran to completion),
#: ``failed`` (the submission's fault domain was poisoned — invariant
#: violation, timeout-exhausted job, or runner collapse — and execution
#: stopped early), ``cancelled``.  Unknown outcomes replay as ``error``.
DONE_OUTCOMES = ("ok", "error", "failed", "cancelled")


@dataclass(frozen=True)
class JobSpec:
    """One validated submission: a single experiment run or a seed sweep.

    ``kind`` is ``"experiment"`` (one ``seed``) or ``"sweep"``
    (``seeds`` replicas derived from ``base_seed`` exactly like
    ``repro sweep``).  The spec is immutable and canonically
    identified by :attr:`sid`.
    """

    kind: str
    name: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    seeds: int = 0
    base_seed: int = 0
    timeout_s: Optional[float] = None

    @property
    def sid(self) -> str:
        """The idempotent service job ID (12 hex chars).

        Derived from the result cache's ``job_key`` digest: the same
        submission always maps to the same ID, in any process, so
        client retries never double-run.  Sweeps fold their shape into
        the key's params so a sweep and one of its member jobs can
        never collide.
        """
        if self.kind == "sweep":
            key = job_key(self.name, {
                **dict(self.params),
                "__sweep__": {"seeds": self.seeds, "base_seed": self.base_seed},
            }, None)
        else:
            key = job_key(self.name, self.params, self.seed)
        return ids.job_id_from_key(key)

    @classmethod
    def from_payload(cls, payload: Any) -> "JobSpec":
        """Validate a ``POST /jobs`` body into a spec.

        Raises ``ValueError`` with a client-presentable message on any
        malformed submission — unknown experiment, bad params, a sweep
        of a seedless experiment, or unknown fields.
        """
        if not isinstance(payload, dict):
            raise ValueError("job submission must be a JSON object")
        known = {"kind", "name", "params", "seed", "seeds", "base_seed",
                 "timeout_s"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown field(s): {', '.join(unknown)}")
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError("missing experiment 'name'")
        try:
            spec = registry.get(name)
        except KeyError:
            raise ValueError(f"unknown experiment {name!r}") from None
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError("'params' must be an object")
        kind = payload.get("kind")
        seeds = int(payload.get("seeds") or 0)
        if kind is None:  # infer: a seeds count means a sweep
            kind = "experiment" if payload.get("seeds") is None else "sweep"
        if kind not in ("experiment", "sweep"):
            raise ValueError(f"unknown job kind {kind!r}")
        if kind == "sweep":
            if seeds <= 0:
                raise ValueError("a sweep needs 'seeds' >= 1")
            if not spec.accepts_seed:
                raise ValueError(
                    f"experiment {spec.name!r} takes no seed; a sweep "
                    f"would run {seeds} identical jobs")
        seed = int(payload.get("seed") or 0)
        timeout_s = payload.get("timeout_s")
        if timeout_s is not None:
            timeout_s = float(timeout_s)
            if timeout_s <= 0:
                raise ValueError("'timeout_s' must be positive")
        # Bind now so bad params are a 400 at submission, not a failed
        # job minutes later.
        probe_seed: Optional[int] = None
        if spec.accepts_seed:
            probe_seed = derive_seed(int(payload.get("base_seed") or 0), 0) \
                if kind == "sweep" else seed
        try:
            spec.bind(params=params, seed=probe_seed)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad params for {spec.name!r}: {exc}") from None
        return cls(kind=kind, name=spec.name, params=dict(params),
                   seed=seed, seeds=seeds,
                   base_seed=int(payload.get("base_seed") or 0),
                   timeout_s=timeout_s)

    def to_json_dict(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"kind": self.kind, "name": self.name,
                                "params": dict(self.params)}
        if self.kind == "sweep":
            body["seeds"] = self.seeds
            body["base_seed"] = self.base_seed
        else:
            body["seed"] = self.seed
        if self.timeout_s is not None:
            body["timeout_s"] = self.timeout_s
        return body

    def expand(self) -> List[Job]:
        """The runner jobs this submission multiplexes into."""
        spec = registry.get(self.name)
        if self.kind == "sweep":
            return [Job(self.name, dict(self.params),
                        derive_seed(self.base_seed, i),
                        timeout_s=self.timeout_s)
                    for i in range(self.seeds)]
        seed = self.seed if spec.accepts_seed else None
        return [Job(self.name, dict(self.params), seed,
                    timeout_s=self.timeout_s)]

    @property
    def job_count(self) -> int:
        return self.seeds if self.kind == "sweep" else 1


@dataclass
class ReplayState:
    """What a journal replay recovered."""

    submits: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    done: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    cancelled: Set[str] = field(default_factory=set)
    order: List[str] = field(default_factory=list)
    starts: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    corrupt_lines: int = 0

    def pending(self) -> List[str]:
        """Journaled-but-unfinished sids, in submission order — the
        work a restarted daemon re-enqueues."""
        return [sid for sid in self.order
                if sid not in self.done and sid not in self.cancelled]


class JobJournal:
    """Append-only JSONL journal of service job lifecycle events."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path).expanduser()

    # -- writing ----------------------------------------------------------
    def append(self, event: str, sid: str, **fields: Any) -> bool:
        """Append one lifecycle record; best-effort (False on failure).

        This is also the ``torn_journal`` chaos injection point: an
        armed schedule may write the record truncated, with no trailing
        newline, exactly as a SIGKILL mid-``write`` would.
        """
        record = {"schema": JOURNAL_SCHEMA, "event": event, "sid": sid,
                  "ts": time.time(), **fields}
        line = (json.dumps(record, sort_keys=True, default=repr) + "\n"
                ).encode("utf-8")
        from repro import chaos

        if chaos.tear_journal_append(event):
            # Injected torn write: half the record, no trailing newline
            # — byte-for-byte what a SIGKILL mid-write leaves behind.
            torn = line[: max(1, len(line) // 2)]
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(str(self.path),
                             os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
                try:
                    os.write(fd, torn)
                    os.fsync(fd)
                finally:
                    os.close(fd)
            except OSError:  # pragma: no cover - injected path only
                pass
            return False
        return append_record(self.path, line, fsync=True)

    def submit(self, spec: JobSpec) -> bool:
        return self.append("submit", spec.sid, spec=spec.to_json_dict())

    def start(self, sid: str, run_id: str) -> bool:
        return self.append("start", sid, run_id=run_id)

    def done(self, sid: str, outcome: str, **fields: Any) -> bool:
        return self.append("done", sid, outcome=outcome, **fields)

    def cancel(self, sid: str) -> bool:
        return self.append("cancel", sid)

    # -- reading ----------------------------------------------------------
    def replay(self) -> ReplayState:
        """Reconstruct job state from the journal, torn-tail tolerant.

        Unparseable or wrong-schema lines are skipped and counted in
        ``corrupt_lines`` — a torn final line after a SIGKILL is
        expected, not an error.  Duplicate submits collapse (first
        wins, preserving submission order); the last ``done`` per sid
        wins.
        """
        state = ReplayState()
        if not self.path.is_file():
            return state
        with open(self.path) as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw)
                except ValueError:
                    state.corrupt_lines += 1
                    continue
                if (not isinstance(record, dict)
                        or record.get("schema") != JOURNAL_SCHEMA
                        or record.get("event") not in JOURNAL_EVENTS
                        or not record.get("sid")):
                    state.corrupt_lines += 1
                    continue
                sid = record["sid"]
                event = record["event"]
                if event == "submit":
                    if sid not in state.submits:
                        state.submits[sid] = record
                        state.order.append(sid)
                elif event == "start":
                    state.starts[sid] = record
                elif event == "done":
                    state.done[sid] = record
                elif event == "cancel":
                    state.cancelled.add(sid)
        return state
