"""Typed event tracing with a bounded ring buffer and JSONL spill.

A :class:`TraceRecorder` captures :class:`TraceEvent` records —
``activate``, ``refresh``, ``bit_flip``, ``ecc_eval``,
``mitigation_refresh``, ``para_refresh``, ``read_disturb``,
``job_start``/``job_end``, … — emitted by instrumented simulator code.

Memory is bounded: at most ``capacity`` events are held.  Without a
spill path the recorder behaves as a ring buffer (oldest events are
evicted, counted in :attr:`TraceRecorder.dropped`); with one, a full
buffer is flushed to the spill file as JSON Lines and recording
continues, so arbitrarily long traces cost O(capacity) memory.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

__all__ = ["TraceEvent", "TraceRecorder"]


@dataclass(frozen=True)
class TraceEvent:
    """One typed event: a kind, a simulated timestamp, and free fields."""

    kind: str
    t: Optional[float] = None
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"kind": self.kind}
        if self.t is not None:
            record["t"] = self.t
        record.update(self.fields)
        return record

    def to_jsonl(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"), default=repr)


class TraceRecorder:
    """Bounded in-memory event recorder.

    Args:
        capacity: maximum events held in memory.
        spill_path: optional JSONL file; when set, a full buffer is
            appended there instead of evicting old events.
    """

    def __init__(self, capacity: int = 65536,
                 spill_path: Optional[Union[str, Path]] = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.spill_path = Path(spill_path) if spill_path is not None else None
        self._buffer: deque = deque()
        self.emitted = 0
        self.dropped = 0
        self.spilled = 0
        #: Fields merged into every event (explicit fields win); the
        #: runner stamps ``run_id``/``job_id`` here so any trace event
        #: joins the ledger line, cache record, and capture bundle
        #: of the job that emitted it.
        self.context: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self._buffer)

    def emit(self, kind: str, t: Optional[float] = None, **fields: Any) -> None:
        """Record one event (evicting or spilling if the buffer is full)."""
        if len(self._buffer) >= self.capacity:
            if self.spill_path is not None:
                self.flush()
            else:
                self._buffer.popleft()
                self.dropped += 1
        if self.context:
            fields = {**self.context, **fields}
        self._buffer.append(TraceEvent(kind, t, fields))
        self.emitted += 1

    def events(self) -> List[TraceEvent]:
        """The buffered (not yet spilled/dropped) events, oldest first."""
        return list(self._buffer)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._buffer)

    def counts_by_kind(self) -> Dict[str, int]:
        """Histogram of buffered events by kind."""
        counts: Dict[str, int] = {}
        for event in self._buffer:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    def flush(self) -> int:
        """Append all buffered events to the spill file; return how many."""
        if self.spill_path is None:
            raise RuntimeError("no spill path configured")
        n = len(self._buffer)
        if n:
            self.spill_path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.spill_path, "a") as handle:
                for event in self._buffer:
                    handle.write(event.to_jsonl() + "\n")
            self._buffer.clear()
            self.spilled += n
        return n

    def dump_jsonl(self, path: Union[str, Path]) -> int:
        """Write the buffered events to ``path`` as JSON Lines."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for event in self._buffer:
                handle.write(event.to_jsonl() + "\n")
        return len(self._buffer)

    def write_jsonl(self, handle) -> int:
        """Stream the buffered events to an open text handle."""
        n = 0
        for event in self._buffer:
            handle.write(event.to_jsonl() + "\n")
            n += 1
        return n

    def clear(self) -> None:
        self._buffer.clear()
        self.emitted = 0
        self.dropped = 0
        self.spilled = 0
