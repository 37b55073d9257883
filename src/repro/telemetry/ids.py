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

Both travel as arguments: the runner passes its run ID to each job it
runs (in-process, or in the pool job tuple), so concurrent runners in
one process never see each other's.

This module is a leaf: importable from any layer without cycles.
"""

from __future__ import annotations

import os
import platform
import socket
import time
from typing import Any, Dict

__all__ = [
    "new_run_id",
    "job_id_from_key",
    "environment_fingerprint",
]

#: Length of a job ID: a 12-hex-char prefix of the 24-char job_key,
#: matching the ledger's record-id width.
JOB_ID_LEN = 12


def new_run_id(prefix: str = "r") -> str:
    """Mint a fresh run ID: readable timestamp + 3 random bytes.

    ``prefix`` distinguishes ID namespaces sharing the format — ``r``
    for runs, ``s`` for experiment-service instances — so artifacts
    stay greppable by origin.
    """
    stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime())
    return f"{prefix}{stamp}-{os.urandom(3).hex()}"


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
