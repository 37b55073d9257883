"""The long-running experiment service: ``repro serve``.

The paper's reliability argument is longitudinal — RowHammer,
retention, and disturbance characterization happen continuously, at
fleet scale, not inside one CLI process's lifetime.  This package is
that deployment shape: a crash-tolerant daemon that accepts experiment
and sweep jobs over HTTP/JSON, runs them one at a time on the hardened
:class:`~repro.experiments.runner.ExperimentRunner`, journals every
submission to a crash-safe append-only file, and is explicitly built
to be SIGKILLed and restarted on the same ``--state-dir`` without
losing or double-running work.  One daemon owns a state directory at a
time: it holds ``daemon.lock`` for its whole life, and a second daemon
on the same directory refuses to start.

Layout:

* :mod:`repro.service.journal` — the append-only job journal and the
  :class:`JobSpec` submission model (idempotent IDs from ``job_key``);
* :mod:`repro.service.daemon` — :class:`ExperimentService`: the
  state-dir lock, HTTP endpoints, admission control, graceful drain,
  journal replay;
* :mod:`repro.service.client` — :class:`ServiceClient` with bounded
  retry/backoff (honors ``Retry-After``), used by ``repro submit`` and
  ``repro jobs``.
"""

from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceTimeout,
    ServiceUnavailable,
)
from repro.service.daemon import DEFAULT_SERVICE_PORT, ExperimentService
from repro.service.journal import JOURNAL_SCHEMA, JobJournal, JobSpec

__all__ = [
    "DEFAULT_SERVICE_PORT",
    "JOURNAL_SCHEMA",
    "ExperimentService",
    "JobJournal",
    "JobSpec",
    "ServiceClient",
    "ServiceError",
    "ServiceTimeout",
    "ServiceUnavailable",
]
