"""HTTP client for the experiment service (``repro submit``/``repro jobs``).

Stdlib-only (:mod:`urllib`).  The client is deliberately boring: JSON
in, JSON out, with a bounded retry/backoff loop around the two failure
shapes a long-running daemon actually presents — connection errors
while it restarts, and 429/503 shedding while it is loaded or
draining (honoring ``Retry-After``).  Retries are bounded; the caller
always gets either a response or a typed exception, never a hang.

Retry sleeps carry *deterministic* jitter (sha256 of seed + attempt):
many clients shed by a recovering daemon de-synchronize instead of
thundering-herding it at the same instant, yet any one client's
schedule is reproducible from its ``jitter_seed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = ["ServiceClient", "ServiceError", "ServiceTimeout",
           "ServiceUnavailable", "retry_delay_s"]

#: Ceiling on a single retry sleep, even if ``Retry-After`` asks for more.
MAX_RETRY_SLEEP_S = 5.0

#: Job states the client treats as settled (no further polling).
TERMINAL_STATES = ("done", "error", "cancelled", "failed")


class ServiceError(Exception):
    """A definitive (non-retryable, or retries-exhausted) service error."""

    def __init__(self, message: str, status: Optional[int] = None,
                 body: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.status = status
        self.body = body or {}


class ServiceUnavailable(ServiceError):
    """The daemon could not be reached within the retry budget."""


class ServiceTimeout(ServiceError, TimeoutError):
    """A wait deadline expired before the job settled.

    Subclasses ``TimeoutError`` so callers written against the old
    bare-``TimeoutError`` contract keep working.
    """


def retry_delay_s(backoff_s: float, attempt: int,
                  retry_after: Optional[str] = None, seed: int = 0,
                  cap_s: float = MAX_RETRY_SLEEP_S) -> float:
    """Deterministic jittered retry delay for ``attempt`` (0-based).

    Exponential from ``backoff_s``, scaled into ``[0.5×, 1.5×)`` by a
    sha256-derived factor of ``(seed, attempt)``.  ``Retry-After``
    raises the floor (the daemon knows its own load) and ``cap_s``
    bounds the result.
    """
    digest = hashlib.sha256(f"{seed}:{attempt}".encode("utf-8")).digest()
    jitter = int.from_bytes(digest[:4], "big") / 2 ** 32
    delay = backoff_s * (2 ** attempt) * (0.5 + jitter)
    if retry_after:
        try:
            delay = max(delay, float(retry_after))
        except ValueError:
            pass
    return min(delay, cap_s)


class ServiceClient:
    """A small JSON/HTTP client bound to one daemon endpoint.

    ``retries`` bounds how many times a request is re-sent after a
    connection error or a 429/503; ``backoff_s`` seeds the exponential
    sleep between attempts (``Retry-After``, when present, overrides
    it, capped at :data:`MAX_RETRY_SLEEP_S`).  ``jitter_seed`` pins the
    deterministic retry jitter; by default each client draws a random
    seed so a fleet of clients spreads its retries out.
    """

    def __init__(self, base_url: str, timeout_s: float = 10.0,
                 retries: int = 5, backoff_s: float = 0.25,
                 jitter_seed: Optional[int] = None):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        if jitter_seed is None:
            jitter_seed = int.from_bytes(os.urandom(4), "big")
        self.jitter_seed = int(jitter_seed)

    @classmethod
    def from_state_dir(cls, state_dir: Union[str, Path],
                       **kwargs: Any) -> "ServiceClient":
        """Connect to the daemon owning ``state_dir`` via its endpoint
        record; raises :class:`ServiceUnavailable` if none exists."""
        from repro.service.daemon import read_endpoint

        record = read_endpoint(state_dir)
        if record is None or "port" not in record:
            raise ServiceUnavailable(
                f"no running service found under {state_dir} "
                f"(missing/unreadable service.json)")
        return cls(f"http://{record.get('host', '127.0.0.1')}"
                   f":{record['port']}", **kwargs)

    # -- transport --------------------------------------------------------
    def _sleep_for(self, attempt: int,
                   retry_after: Optional[str] = None) -> None:
        time.sleep(retry_delay_s(self.backoff_s, attempt,
                                 retry_after=retry_after,
                                 seed=self.jitter_seed))

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None,
                retry_shed: bool = True,
                timeout_s: Optional[float] = None,
                retries: Optional[int] = None) -> Dict[str, Any]:
        """One JSON round-trip with the bounded retry loop.

        4xx responses other than 429 raise :class:`ServiceError`
        immediately (retrying a 400 cannot help); 429/503 retry when
        ``retry_shed``, honoring ``Retry-After``.  ``timeout_s`` and
        ``retries`` override the per-request socket timeout and retry
        budget (deadline-bounded polls shrink both to their remaining
        budget).
        """
        url = f"{self.base_url}{path}"
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        socket_timeout = self.timeout_s if timeout_s is None else timeout_s
        budget = self.retries if retries is None else max(0, int(retries))
        last_error: Optional[ServiceError] = None
        for attempt in range(budget + 1):
            request = urllib.request.Request(
                url, data=data, method=method,
                headers={"Content-Type": "application/json"} if data else {})
            try:
                with urllib.request.urlopen(
                        request, timeout=socket_timeout) as response:
                    return self._parse(response.read())
            except urllib.error.HTTPError as exc:
                payload = self._parse(exc.read())
                if exc.code in (429, 503) and retry_shed:
                    last_error = ServiceError(
                        payload.get("error", f"HTTP {exc.code}"),
                        status=exc.code, body=payload)
                    if attempt < budget:
                        self._sleep_for(
                            attempt, exc.headers.get("Retry-After"))
                    continue
                raise ServiceError(payload.get("error", f"HTTP {exc.code}"),
                                   status=exc.code, body=payload) from None
            except (urllib.error.URLError, ConnectionError,
                    socket.timeout, OSError) as exc:
                last_error = ServiceUnavailable(
                    f"cannot reach {url}: {exc}")
                if attempt < budget:
                    self._sleep_for(attempt)
                continue
        raise last_error if last_error is not None else ServiceUnavailable(
            f"cannot reach {url}")

    @staticmethod
    def _parse(blob: bytes) -> Dict[str, Any]:
        try:
            parsed = json.loads(blob.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return {}
        return parsed if isinstance(parsed, dict) else {}

    # -- API --------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/healthz")

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.request("POST", "/jobs", body=payload)

    def jobs(self) -> List[Dict[str, Any]]:
        return self.request("GET", "/jobs").get("jobs", [])

    def job(self, sid: str, timeout_s: Optional[float] = None,
            retries: Optional[int] = None) -> Dict[str, Any]:
        return self.request("GET", f"/jobs/{sid}", timeout_s=timeout_s,
                            retries=retries)

    def cancel(self, sid: str) -> Dict[str, Any]:
        return self.request("DELETE", f"/jobs/{sid}")

    def metrics_text(self) -> str:
        url = f"{self.base_url}/metrics"
        try:
            with urllib.request.urlopen(url, timeout=self.timeout_s) as resp:
                return resp.read().decode("utf-8")
        except (urllib.error.URLError, ConnectionError, OSError) as exc:
            raise ServiceUnavailable(f"cannot reach {url}: {exc}") from None

    def wait(self, sid: str, timeout_s: float = 60.0, poll_s: float = 0.2,
             deadline: Optional[float] = None) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; the final record.

        The wait is hard-bounded: ``deadline`` (a ``time.monotonic()``
        instant; defaults to now + ``timeout_s``) caps the whole poll
        *including* the in-flight request — each request's socket
        timeout shrinks to the remaining budget, so a hung daemon that
        accepts connections but never answers cannot stall the caller
        past the deadline.  Expiry raises :class:`ServiceTimeout` (a
        ``TimeoutError`` subclass).
        """
        if deadline is None:
            deadline = time.monotonic() + timeout_s
        last_state: Optional[str] = None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceTimeout(
                    f"job {sid} still {last_state!r} at deadline "
                    f"(+{timeout_s:g}s)")
            try:
                # No inner retries: this loop is the retry loop, and
                # the deadline must bound every sleep.
                record = self.job(
                    sid, timeout_s=max(0.05, min(self.timeout_s, remaining)),
                    retries=0)
            except ServiceUnavailable:
                # A daemon mid-restart (or hung past its socket timeout)
                # is retried until the deadline, not surfaced mid-wait.
                record = {}
            last_state = record.get("state")
            if last_state in TERMINAL_STATES:
                return record
            time.sleep(min(poll_s, max(0.0, deadline - time.monotonic())))
