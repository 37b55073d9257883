"""Run and job identity: the correlation scheme for all artifacts.

Every sweep gets one **run ID** (``rYYYYMMDD-HHMMSS-xxxxxx``, wall
clock plus random suffix) and every job a deterministic **job ID** —
the first 12 hex chars of the result cache's ``job_key`` digest, so the same
(experiment, params, seed) triple always maps to the same job ID and
artifacts written in different sessions still join.

The pair is stamped into trace events, ledger lines, result cache
records, failure-capture bundles, and ``ExperimentResult`` metadata;
``repro ledger diff <run_a> <run_b>`` and the live exporter both join
on it.

The current run ID lives in a module global *and* in the
``REPRO_RUN_ID`` environment variable so pool workers (fork or spawn)
inherit it without any extra plumbing.

This module is a leaf: importable from any layer without cycles.
"""

from __future__ import annotations

import os
import platform
import socket
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

__all__ = [
    "ENV_RUN_ID",
    "new_run_id",
    "current_run_id",
    "set_run_id",
    "clear_run_id",
    "run_scope",
    "job_id_from_key",
    "environment_fingerprint",
]

#: Environment mirror of the active run ID (inherited by pool workers).
ENV_RUN_ID = "REPRO_RUN_ID"

#: Length of a job ID: a 12-hex-char prefix of the 24-char job_key,
#: matching the ledger's record-id width.
JOB_ID_LEN = 12

_run_id: Optional[str] = None


def new_run_id(prefix: str = "r") -> str:
    """Mint a fresh run ID: readable timestamp + 3 random bytes.

    ``prefix`` distinguishes ID namespaces sharing the format — ``r``
    for runs, ``s`` for experiment-service instances — so artifacts
    stay greppable by origin.
    """
    stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime())
    return f"{prefix}{stamp}-{os.urandom(3).hex()}"


def current_run_id() -> Optional[str]:
    """The active run ID, or None outside any run scope.

    Falls back to ``REPRO_RUN_ID`` so forked/spawned pool workers see
    the parent's run without explicit argument passing.
    """
    if _run_id:
        return _run_id
    env = os.environ.get(ENV_RUN_ID, "").strip()
    return env or None


def set_run_id(run_id: str) -> None:
    """Install ``run_id`` as the active run (global + env mirror)."""
    global _run_id
    _run_id = run_id
    os.environ[ENV_RUN_ID] = run_id


def clear_run_id() -> None:
    global _run_id
    _run_id = None
    os.environ.pop(ENV_RUN_ID, None)


@contextmanager
def run_scope(run_id: str) -> Iterator[str]:
    """Scope ``run_id`` as the active run; restores the previous one."""
    global _run_id
    prev_global = _run_id
    prev_env = os.environ.get(ENV_RUN_ID)
    set_run_id(run_id)
    try:
        yield run_id
    finally:
        _run_id = prev_global
        if prev_env is None:
            os.environ.pop(ENV_RUN_ID, None)
        else:
            os.environ[ENV_RUN_ID] = prev_env


def job_id_from_key(job_key: str) -> str:
    """Job ID = 12-hex-char prefix of the result cache's job_key."""
    return job_key[:JOB_ID_LEN]


def environment_fingerprint() -> Dict[str, Any]:
    """Where a report came from: enough to spot apples-vs-oranges
    comparisons (different host, interpreter, or numpy).
    """
    from repro.telemetry.ledger import git_sha  # local: keep this module a leaf

    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is baked into the image
        numpy_version = ""
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "hostname": socket.gethostname(),
    }
