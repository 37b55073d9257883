"""Deterministic fault injection for the execution stack.

The paper's systems keep working *because* they assume components fail:
ECC corrects flipped bits, PARA tolerates missed neighbors, refresh
scaling trades margin for correctness.  The experiment infrastructure
deserves the same discipline — and the only way to trust recovery code
is to execute it on demand.  This module injects the faults the
hardened :class:`~repro.experiments.runner.ExperimentRunner` claims to
survive:

``kill``
    SIGKILL the current *worker* process before the job body runs
    (never the parent — a degraded-to-serial runner must not shoot
    itself).  Exercises ``BrokenProcessPool`` recovery.
``hang``
    Sleep ``secs`` (default 30) before the job body, exceeding any
    sane per-job timeout.  Exercises deadline enforcement.
``exc``
    Raise :class:`ChaosTransientError` inside the job.  Exercises the
    errored-result path: the job fails alone, is never cached, and a
    re-run re-executes it.
``torn``
    Tear the result-cache write for the matching job (the final file
    holds truncated JSON, as if the writer died mid-write).  Exercises
    corrupt-entry quarantine.
``ledger``
    Fail one run-ledger append with an injected ``OSError``.
    Exercises the ledger's best-effort contract.
``torn_journal``
    Tear a service job-journal append (the record goes down truncated,
    with no trailing newline, as if the daemon was SIGKILLed
    mid-write).  ``name=`` filters on the journal *event* being
    appended (``submit``/``start``/``done``/``cancel``).  Exercises
    torn-tail-tolerant replay on daemon restart.
``corrupt``
    Mutate live *simulator state* — flip a stored DRAM cell bit,
    alias two start-gap mapping entries, skew a refresh cursor — at a
    sanitizer check site for the subsystem named by ``sub=``.
    Exercises the sanitizer: each registered invariant class has a
    paired injector in :mod:`repro.chaos.state`, and the negative-test
    suite proves every injected corruption is detected at
    ``REPRO_SANITIZE=full`` and attributed to the right subsystem.

Faults are **declared, not random** (unless you ask): the schedule
lives in the ``REPRO_CHAOS`` environment variable so it reaches pool
workers for free, and every entry can pin the exact job it hits::

    REPRO_CHAOS="kill:seed=1638297,hang:seed=902114:secs=30,ledger"

Grammar: entries separated by ``,``; fields within an entry separated
by ``:``.  The first field is the fault kind; the rest are ``key=value``
filters/knobs — ``name=`` (experiment), ``seed=`` (job seed),
``secs=`` (hang duration), ``rate=`` (seeded-random firing probability),
``sub=`` (target subsystem for ``corrupt``)
and ``once=0`` (allow repeat firing).  A bare ``seed=N`` entry sets the
plan-level chaos seed that drives ``rate=`` draws, which are computed
as a SHA-256 hash of ``(chaos seed, entry, job)`` — the same schedule
replays exactly, in any process, on any machine.

Every fault fires **at most once** by default.  Once-firing is
coordinated across processes through marker files in the
``REPRO_CHAOS_STATE`` directory (claimed with ``O_CREAT | O_EXCL``, so
two workers cannot both claim one fault); without a state directory the
guarantee is per-process only.  The markers double as the authoritative
injection count — a SIGKILLed worker cannot report telemetry, but its
marker survives.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry import runtime as telem

__all__ = [
    "ENV_CHAOS",
    "ENV_CHAOS_STATE",
    "FAULT_KINDS",
    "ChaosTransientError",
    "FaultSpec",
    "ChaosPlan",
    "current_plan",
    "fail_ledger_append",
    "in_worker",
    "injected_counts",
    "on_job_start",
    "reset",
    "tear_cache_write",
    "tear_journal_append",
]

ENV_CHAOS = "REPRO_CHAOS"
ENV_CHAOS_STATE = "REPRO_CHAOS_STATE"

FAULT_KINDS = ("kill", "hang", "exc", "torn", "ledger", "corrupt",
               "torn_journal")

#: Default sleep for ``hang`` faults — long enough to trip any
#: reasonable per-job timeout, short enough that a runaway test dies
#: of its own accord.
DEFAULT_HANG_SECS = 30.0


class ChaosTransientError(RuntimeError):
    """The injected job failure: one errored result, never cached."""


@dataclass
class FaultSpec:
    """One declared fault: a kind plus its filters and knobs."""

    kind: str
    index: int  # position in the plan; part of the marker/draw identity
    name: Optional[str] = None
    seed: Optional[int] = None
    secs: float = DEFAULT_HANG_SECS
    rate: float = 1.0
    once: bool = True
    sub: Optional[str] = None  # target subsystem for ``corrupt``

    def matches(self, name: Optional[str], seed: Optional[int]) -> bool:
        if self.name is not None and self.name != name:
            return False
        if self.seed is not None and self.seed != seed:
            return False
        return True


def _parse_entry(entry: str, index: int) -> FaultSpec:
    fields = [f.strip() for f in entry.split(":") if f.strip()]
    kind = fields[0]
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown chaos fault kind {kind!r} in entry {entry!r}; "
            f"expected one of {', '.join(FAULT_KINDS)}"
        )
    spec = FaultSpec(kind=kind, index=index)
    for f in fields[1:]:
        key, sep, value = f.partition("=")
        if not sep:
            raise ValueError(f"malformed chaos field {f!r} in entry {entry!r}")
        if key == "name":
            spec.name = value
        elif key == "seed":
            spec.seed = int(value)
        elif key == "secs":
            spec.secs = float(value)
        elif key == "rate":
            spec.rate = float(value)
            if not 0.0 <= spec.rate <= 1.0:
                raise ValueError(f"chaos rate must be in [0, 1], got {spec.rate}")
        elif key == "once":
            spec.once = value not in ("0", "false", "no")
        elif key == "sub":
            spec.sub = value
        else:
            raise ValueError(f"unknown chaos field {key!r} in entry {entry!r}")
    if kind == "corrupt" and spec.sub is None:
        raise ValueError(
            f"corrupt entry {entry!r} needs a sub=<subsystem> target "
            f"(e.g. corrupt:sub=dram.bank)"
        )
    return spec


class ChaosPlan:
    """A parsed fault schedule plus its firing state."""

    def __init__(self, specs: List[FaultSpec], chaos_seed: int = 0,
                 state_dir: Optional[Path] = None):
        self.specs = specs
        self.chaos_seed = chaos_seed
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self._local_claims: set = set()
        self._local_counts: Dict[str, int] = {}
        self._fire_serial = 0
        # (name, seed) of the job currently executing in this process,
        # recorded by on_job_start so mid-job injection sites (cache
        # writes, sanitizer checks) can honor name=/seed= filters.
        self.job_context: Tuple[Optional[str], Optional[int]] = (None, None)

    @classmethod
    def parse(cls, spec: str, state_dir: Optional[str] = None) -> "ChaosPlan":
        specs: List[FaultSpec] = []
        chaos_seed = 0
        for index, raw in enumerate(s for s in spec.split(",") if s.strip()):
            entry = raw.strip()
            if entry.startswith("seed="):
                chaos_seed = int(entry[len("seed="):])
                continue
            specs.append(_parse_entry(entry, index))
        return cls(specs, chaos_seed=chaos_seed, state_dir=state_dir)

    # -- firing ---------------------------------------------------------
    def pick(self, kind: str, name: Optional[str] = None,
             seed: Optional[int] = None) -> Optional[FaultSpec]:
        """The first armed fault of ``kind`` matching this site, claimed.

        Claiming is atomic (marker file with ``O_EXCL``): a returned
        spec has definitively fired here and nowhere else.
        """
        for spec in self.specs:
            if spec.kind != kind or not spec.matches(name, seed):
                continue
            if spec.rate < 1.0 and not self._draw(spec, name, seed):
                continue
            if not self._claim(spec):
                continue
            return spec
        return None

    def pick_corrupt(self, subsystem: str) -> Optional[FaultSpec]:
        """The first armed ``corrupt`` fault targeting ``subsystem``
        that also matches the in-flight job, claimed.

        Unlike :meth:`pick`, the job identity comes from
        :attr:`job_context` (sanitizer check sites are deep inside
        model code and don't know which job is running).
        """
        name, seed = self.job_context
        for spec in self.specs:
            if spec.kind != "corrupt" or spec.sub != subsystem:
                continue
            if not spec.matches(name, seed):
                continue
            if spec.rate < 1.0 and not self._draw(spec, name, seed):
                continue
            if not self._claim(spec):
                continue
            return spec
        return None

    def _draw(self, spec: FaultSpec, name: Optional[str],
              seed: Optional[int]) -> bool:
        """Seeded-deterministic Bernoulli draw for ``rate=`` entries."""
        blob = f"{self.chaos_seed}:{spec.kind}:{spec.index}:{name}:{seed}"
        digest = hashlib.sha256(blob.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") / 2**32 < spec.rate

    def _claim(self, spec: FaultSpec) -> bool:
        marker = f"{spec.kind}.{spec.index}"
        if not spec.once:
            # Repeat-firing entries never contend; the marker only counts.
            self._fire_serial += 1
            self._write_marker(f"{marker}.{os.getpid()}.{self._fire_serial}")
            return True
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            try:
                fd = os.open(str(self.state_dir / marker),
                             os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                return False
            except OSError:
                pass  # unwritable state dir: fall back to the local claim set
            else:
                os.close(fd)
                return True
        if marker in self._local_claims:
            return False
        self._local_claims.add(marker)
        return True

    def _write_marker(self, marker: str) -> None:
        if self.state_dir is None:
            return
        try:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            (self.state_dir / marker).touch()
        except OSError:
            pass

    def note(self, kind: str) -> None:
        """Count one injection (local tally + telemetry counter)."""
        self._local_counts[kind] = self._local_counts.get(kind, 0) + 1
        if telem.metrics_on:
            telem.counter("chaos_faults_injected_total", kind=kind).inc()


# ----------------------------------------------------------------------
# Module-level runtime: the hooks instrumented code calls
# ----------------------------------------------------------------------
_cached_key: Optional[Tuple[str, Optional[str]]] = None
_cached_plan: Optional[ChaosPlan] = None


def current_plan() -> Optional[ChaosPlan]:
    """The active plan for the current ``REPRO_CHAOS`` value, or None.

    Re-parsed whenever the environment changes, so tests and the
    harness can install/remove schedules without process restarts.
    """
    global _cached_key, _cached_plan
    spec = os.environ.get(ENV_CHAOS, "").strip()
    state = os.environ.get(ENV_CHAOS_STATE) or None
    key = (spec, state)
    if key != _cached_key:
        _cached_plan = ChaosPlan.parse(spec, state_dir=state) if spec else None
        _cached_key = key
    return _cached_plan


def reset() -> None:
    """Drop the cached plan (and its in-process claims/tallies)."""
    global _cached_key, _cached_plan
    _cached_key = None
    _cached_plan = None


def in_worker() -> bool:
    """True in a multiprocessing child (a pool worker), False in the parent."""
    import multiprocessing

    return multiprocessing.parent_process() is not None


def on_job_start(name: str, seed: Optional[int]) -> None:
    """Job-entry injection point: may SIGKILL, hang, or raise.

    Called by :func:`~repro.experiments.runner.execute_job_safe` before
    the job body.  ``kill`` only ever fires inside a pool worker.
    """
    plan = current_plan()
    if plan is None:
        return
    plan.job_context = (name, seed)
    if in_worker():
        spec = plan.pick("kill", name, seed)
        if spec is not None:
            plan.note("kill")
            os.kill(os.getpid(), signal.SIGKILL)
    spec = plan.pick("hang", name, seed)
    if spec is not None:
        plan.note("hang")
        time.sleep(spec.secs)
    spec = plan.pick("exc", name, seed)
    if spec is not None:
        plan.note("exc")
        raise ChaosTransientError(
            f"injected transient failure ({name}, seed {seed})"
        )


def tear_cache_write(name: str, seed: Optional[int]) -> bool:
    """Should this result-cache write be torn?  (Consumes the fault.)"""
    plan = current_plan()
    if plan is None:
        return False
    spec = plan.pick("torn", name, seed)
    if spec is None:
        return False
    plan.note("torn")
    return True


def tear_journal_append(event: Optional[str] = None) -> bool:
    """Should this service-journal append be torn?  (Consumes the fault.)

    ``event`` is the journal record's event name; a ``torn_journal``
    entry with ``name=done`` tears only the completion record, leaving
    the submission journaled — the restart-replay case the service
    must survive.
    """
    plan = current_plan()
    if plan is None:
        return False
    spec = plan.pick("torn_journal", event, None)
    if spec is None:
        return False
    plan.note("torn_journal")
    return True


def fail_ledger_append(name: Optional[str] = None,
                       seed: Optional[int] = None) -> bool:
    """Should this ledger append fail?  (Consumes the fault.)"""
    plan = current_plan()
    if plan is None:
        return False
    spec = plan.pick("ledger", name, seed)
    if spec is None:
        return False
    plan.note("ledger")
    return True


def injected_counts(state_dir: Optional[Any] = None) -> Dict[str, int]:
    """Faults fired so far, by kind — read from the state directory's
    marker files, which survive even a SIGKILLed injector process.

    Falls back to the current plan's in-process tally when no state
    directory is configured.
    """
    directory = state_dir
    if directory is None:
        directory = os.environ.get(ENV_CHAOS_STATE) or None
    if directory is not None:
        counts: Dict[str, int] = {}
        root = Path(directory)
        if root.is_dir():
            for marker in root.iterdir():
                kind = marker.name.split(".", 1)[0]
                if kind in FAULT_KINDS:
                    counts[kind] = counts.get(kind, 0) + 1
        return counts
    plan = current_plan()
    return dict(plan._local_counts) if plan is not None else {}
