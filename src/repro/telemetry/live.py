"""``repro sweep --live``: a top(1)-style progress view.

Repaints a compact dashboard from the runner's :class:`SweepProgress`
— overall bar, per-state counts, ETA, per-worker heartbeat ages, and
the hottest span phases streamed from in-flight jobs.  On a TTY the
block is redrawn in place with ANSI cursor moves; on a pipe it
degrades to an occasional plain status line, so CI logs stay sane.

Everything is written to *stderr*: stdout stays reserved for result
payloads (``--json`` and friends).
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional

__all__ = ["LiveRenderer", "format_progress_lines"]

_BAR_WIDTH = 28


def _bar(done: int, total: int, width: int = _BAR_WIDTH) -> str:
    if total <= 0:
        return "[" + " " * width + "]"
    filled = int(width * min(done, total) / total)
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _fmt_eta(eta_s: Optional[float]) -> str:
    if eta_s is None:
        return "eta --"
    if eta_s >= 3600:
        return f"eta {eta_s / 3600:.1f}h"
    if eta_s >= 60:
        return f"eta {int(eta_s // 60)}m{int(eta_s % 60):02d}s"
    return f"eta {eta_s:.1f}s"


def format_progress_lines(progress: Any, workers: int = 1,
                          now_mono: Optional[float] = None,
                          top_spans: int = 4) -> List[str]:
    """Render the dashboard block for one repaint."""
    counts = progress.counts()
    finished = progress.finished()
    total = counts["total"]
    head = (f"run {progress.run_id or '-'}  "
            f"{_bar(finished, total)} {finished}/{total}  "
            f"ok={counts['done']} cached={counts['cached']} "
            f"err={counts['errored']} run={counts['running']}")
    if progress.stale_events:
        head += f" stale={len(progress.stale_events)}"
    head += (f"  {progress.elapsed_s(now_mono):.1f}s elapsed  "
             f"{_fmt_eta(progress.eta_s(workers=workers, now_mono=now_mono))}")
    lines = [head]

    running = {j["job_id"]: j for j in progress.jobs.values()
               if j["state"] == "running"}
    ages = progress.heartbeat_ages(now_mono)
    for pid in sorted(progress.workers):
        worker = progress.workers[pid]
        job_id = worker.get("job_id")
        job = running.get(job_id)
        if job is not None:
            desc = f"{job['name']}[seed={job['seed']}] ({job_id})"
            if job.get("stale_warned"):
                desc += "  ! stale heartbeat"
        else:
            desc = "idle"
        age = ages.get(pid)
        age_s = f"{age:.1f}s" if age is not None else "--"
        lines.append(f"  worker {pid:<8} beat {age_s:<7} {desc}")

    span_totals: Dict[str, float] = {}
    for spans in progress.job_spans.values():
        for entry in spans:
            span_totals[entry["span"]] = (span_totals.get(entry["span"], 0.0)
                                          + entry["self_s"])
    if span_totals:
        top = sorted(span_totals.items(), key=lambda kv: -kv[1])[:top_spans]
        lines.append("  spans " + "  ".join(f"{name}={self_s:.2f}s"
                                            for name, self_s in top))
    return lines


class LiveRenderer:
    """Throttled repainter driven by the runner's progress callback."""

    def __init__(self, out: Any = None, interval_s: float = 0.5,
                 plain_interval_s: float = 2.0):
        self.out = out if out is not None else sys.stderr
        self.interval_s = interval_s
        self.plain_interval_s = plain_interval_s
        self.isatty = bool(getattr(self.out, "isatty", lambda: False)())
        self._last_paint = 0.0
        self._painted_lines = 0

    def update(self, runner: Any) -> None:
        progress = getattr(runner, "progress", None)
        if progress is None:
            return
        now = time.monotonic()
        interval = self.interval_s if self.isatty else self.plain_interval_s
        if now - self._last_paint < interval:
            return
        self._last_paint = now
        self._paint(progress, getattr(runner, "max_workers", None) or 1)

    def finish(self, runner: Any) -> None:
        """Final paint (uncapped) so the last state is always shown."""
        progress = getattr(runner, "progress", None)
        if progress is None:
            return
        self._paint(progress, getattr(runner, "max_workers", None) or 1)
        if self.isatty:
            self.out.write("\n")
            self.out.flush()

    def _paint(self, progress: Any, workers: int) -> None:
        lines = format_progress_lines(progress, workers=workers)
        if self.isatty:
            if self._painted_lines:
                self.out.write(f"\x1b[{self._painted_lines}F")
            self.out.write("".join(f"\x1b[2K{line}\n" for line in lines))
            self._painted_lines = len(lines)
        else:
            self.out.write(lines[0] + "\n")
        self.out.flush()
