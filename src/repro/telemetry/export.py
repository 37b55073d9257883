"""Prometheus text exposition (format 0.0.4) and the live exporter.

One renderer serves both consumers: ``repro stats --format
prometheus`` (post-hoc snapshots) and the ``--serve-metrics`` HTTP
endpoint (mid-sweep).  Compliance details handled here:

* ``# HELP`` / ``# TYPE`` comment lines per metric family;
* metric/label **name sanitization** to ``[a-zA-Z_:][a-zA-Z0-9_:]*``;
* **label-value escaping** of ``\\``, ``\\n`` and ``"``;
* the ``_total`` suffix convention for counters (appended only when
  missing, so existing names like ``dram_activations_total`` and
  non-counter families are untouched).

:class:`MetricsHTTPServer` is a stdlib ``http.server`` daemon thread
serving ``/metrics`` from a ``collect()`` callable — no third-party
client library, scrape it with anything that speaks HTTP.
"""

from __future__ import annotations

import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional

from repro.telemetry.metrics import Histogram, MetricsRegistry, _fmt

__all__ = [
    "DEFAULT_EXPORT_PORT",
    "sanitize_metric_name",
    "sanitize_label_name",
    "escape_label_value",
    "escape_help_text",
    "exposition_name",
    "render_exposition",
    "progress_registry",
    "MetricsHTTPServer",
]

#: Default ``--serve-metrics`` port (the conventional OTel-Prometheus one).
DEFAULT_EXPORT_PORT = 9464

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_NAME_CHAR = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LABEL_CHAR = re.compile(r"[^a-zA-Z0-9_]")

#: Help strings for the families the repo emits; anything else gets a
#: generated fallback so every family still carries a HELP line.
METRIC_HELP: Dict[str, str] = {
    "dram_activations_total": "DRAM row activations issued.",
    "dram_refreshes_total": "DRAM refresh operations issued.",
    "dram_bit_flips_total": "Disturbance bit flips injected by the DRAM model.",
    "runner_jobs_total": "Experiment jobs finished, by cache_hit and outcome.",
    "runner_stale_heartbeats_total": "Running jobs flagged for a stale heartbeat.",
    "cache_write_errors_total": "Result-cache writes that failed and degraded to uncached execution.",
    "service_queue_depth": "Jobs waiting in the experiment service's admission queue.",
    "service_admissions_total": "Service job submissions accepted, by kind.",
    "service_rejections_total": "Service job submissions rejected, by reason (overflow/draining/invalid).",
    "service_duplicates_total": "Idempotent re-submissions answered from the journal.",
    "service_jobs_total": "Service jobs finished, by outcome.",
    "service_cancels_total": "Service jobs cancelled on client request.",
    "service_drains_total": "Graceful drains the service has performed.",
    "service_journal_replays_total": "Journal replays performed at service startup.",
    "service_jobs_recovered_total": "Pending jobs re-enqueued from the journal after a restart.",
    "service_journal_corrupt_lines": "Unparseable journal lines skipped by the latest replay.",
    "service_draining": "1 while the service is draining, else 0.",
    "sanitizer_violations_total": "Sanitizer invariant violations, by subsystem.",
    "ledger_corrupt_lines": "Unparseable lines skipped by the latest run-ledger scan.",
    "repro_sweep_jobs": "Sweep jobs by state (total/done/running/errored/cached/pending).",
    "repro_sweep_elapsed_seconds": "Wall-clock seconds since the sweep started.",
    "repro_sweep_eta_seconds": "Estimated seconds until the sweep completes.",
    "repro_sweep_stale_heartbeats": "Stale-heartbeat warnings raised during the sweep.",
    "repro_worker_heartbeat_age_seconds": "Seconds since each pool worker's last event.",
    "physics_row_activations_total": "Activations recorded by the per-row heat map, per bank.",
    "physics_flips_total": "Bit flips recorded by the per-row heat map, per bank.",
    "physics_rows_disturbed": "Rows with at least one recorded flip, per bank.",
    "physics_row_peak_pressure": "Highest per-row hammer pressure observed at a flip, per bank.",
    "physics_audit_events_total": "Mitigation audit decisions, by mitigation and decision.",
    "physics_audit_dropped_total": "Typed audit events dropped by the bounded event list.",
}


def sanitize_metric_name(name: str) -> str:
    """Clamp a metric name to the exposition grammar."""
    name = _INVALID_NAME_CHAR.sub("_", str(name))
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def sanitize_label_name(name: str) -> str:
    """Clamp a label name (no colons allowed, unlike metric names)."""
    name = _INVALID_LABEL_CHAR.sub("_", str(name))
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def escape_label_value(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def escape_help_text(text: str) -> str:
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def exposition_name(name: str, kind: str) -> str:
    """The family name on the wire: sanitized, counters get ``_total``."""
    name = sanitize_metric_name(name)
    if kind == "counter" and not name.endswith("_total"):
        name += "_total"
    return name


def _labels_str(labels, extra: Optional[List] = None) -> str:
    pairs = [(sanitize_label_name(k), escape_label_value(v))
             for k, v in labels]
    if extra:
        pairs += [(k, v) for k, v in extra]
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def _help_for(raw_name: str, family: str) -> str:
    text = METRIC_HELP.get(raw_name) or METRIC_HELP.get(family)
    return text if text else f"repro metric {family}."


def render_exposition(registry: MetricsRegistry) -> str:
    """Render a registry in Prometheus text exposition format 0.0.4."""
    lines: List[str] = []
    announced: set = set()
    for metric in registry:
        family = exposition_name(metric.name, metric.kind)
        if family not in announced:
            announced.add(family)
            lines.append(f"# HELP {family} "
                         f"{escape_help_text(_help_for(metric.name, family))}")
            lines.append(f"# TYPE {family} {metric.kind}")
        if isinstance(metric, Histogram):
            base = _labels_str(metric.labels)
            cumulative = 0
            for edge, count in zip(metric.edges, metric.counts):
                cumulative += count
                le = _labels_str(metric.labels, extra=[("le", f"{edge:g}")])
                lines.append(f"{family}_bucket{le} {cumulative}")
            inf = _labels_str(metric.labels, extra=[("le", "+Inf")])
            lines.append(f"{family}_bucket{inf} {metric.count}")
            lines.append(f"{family}_sum{base} {_fmt(metric.sum)}")
            lines.append(f"{family}_count{base} {metric.count}")
        else:
            lines.append(f"{family}{_labels_str(metric.labels)} "
                         f"{_fmt(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def progress_registry(progress: Any, workers: int = 1,
                      now_mono: Optional[float] = None) -> MetricsRegistry:
    """Sweep progress as gauges, labeled with the run ID for joining."""
    registry = MetricsRegistry()
    labels: Dict[str, Any] = {}
    if getattr(progress, "run_id", None):
        labels["run_id"] = progress.run_id
    counts = progress.counts()
    for state in ("total", "done", "running", "errored", "cached", "pending"):
        registry.gauge("repro_sweep_jobs", state=state, **labels).set(counts[state])
    registry.gauge("repro_sweep_elapsed_seconds", **labels).set(
        round(progress.elapsed_s(now_mono), 3))
    eta = progress.eta_s(workers=workers, now_mono=now_mono)
    if eta is not None:
        registry.gauge("repro_sweep_eta_seconds", **labels).set(round(eta, 3))
    registry.gauge("repro_sweep_stale_heartbeats", **labels).set(
        len(progress.stale_events))
    for pid, age in progress.heartbeat_ages(now_mono).items():
        registry.gauge("repro_worker_heartbeat_age_seconds",
                       pid=pid, **labels).set(round(age, 3))
    return registry


class MetricsHTTPServer:
    """Serve ``/metrics`` (and ``/healthz``) from a collect callable.

    ``collect()`` must return the exposition text; it runs on the HTTP
    thread, so it must be thread-safe (the stream consumer's
    ``live_registry`` is).  ``port=0`` binds an ephemeral port — the
    resolved one is in :attr:`port` / :attr:`url`.
    """

    def __init__(self, collect: Callable[[], str],
                 port: int = DEFAULT_EXPORT_PORT, host: str = "127.0.0.1"):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                if self.path.split("?", 1)[0] == "/metrics":
                    try:
                        body = collect().encode("utf-8")
                    except Exception as exc:
                        self.send_error(500, f"collect failed: {exc}")
                        return
                    self.send_response(200)
                    self.send_header("Content-Type", CONTENT_TYPE)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                elif self.path == "/healthz":
                    body = b"ok\n"
                    self.send_response(200)
                    self.send_header("Content-Type", "text/plain")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                else:
                    self.send_error(404)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes must not spam the sweep's stderr

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsHTTPServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-metrics-exporter",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "MetricsHTTPServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
