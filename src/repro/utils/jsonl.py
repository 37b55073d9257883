"""Crash-safe append-only JSONL writing, shared by every journal.

The sweep checkpoint, the run ledger, and the service job journal all
follow the same discipline: one record per line, appended with a
single ``write`` on an ``O_APPEND`` descriptor so concurrent writers
interleave whole records, and readers skip (and count) torn lines.

:func:`append_record` adds one more guarantee the individual writers
previously lacked: **torn-tail isolation across restarts**.  If the
previous process died mid-append, the file ends in a partial line with
no newline; a naive append after restart would concatenate the fresh
record onto the torn bytes and corrupt *both*.  Here the appender
checks the file's final byte and, when it is not a newline, prefixes
one — the torn bytes become exactly one corrupt line for the reader to
skip, and the new record parses.

The tail check and the write hold an exclusive lock, or a concurrent
appender's half-copied record would pass for a torn tail.  ``lockf``
excludes other processes (and, unlike ``flock``, is not inherited by a
child forked mid-append); a thread lock excludes this process's own
threads, which a record lock does not.
"""

from __future__ import annotations

import fcntl
import os
import threading
from pathlib import Path
from typing import Union

__all__ = ["append_record", "tail_is_torn"]

_APPEND_LOCK = threading.Lock()


def _last_byte(fd: int, size: int) -> bytes:
    if hasattr(os, "pread"):
        return os.pread(fd, 1, size - 1)
    os.lseek(fd, size - 1, os.SEEK_SET)  # pragma: no cover - non-POSIX
    return os.read(fd, 1)  # pragma: no cover - non-POSIX


def tail_is_torn(path: Union[str, Path]) -> bool:
    """Does ``path`` end in a partial (newline-less) line?

    True means the previous writer died mid-append; replayers can use
    this to report the torn tail distinctly from a clean shutdown.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return False
    try:
        size = os.fstat(fd).st_size
        return size > 0 and _last_byte(fd, size) != b"\n"
    finally:
        os.close(fd)


def append_record(path: Union[str, Path], line: bytes,
                  fsync: bool = True) -> bool:
    """Append one newline-terminated JSONL record crash-safely.

    The whole record goes down in a single ``write`` on an
    ``O_APPEND`` descriptor (concurrent writers interleave whole
    records, never fragments), optionally fsynced.  A torn tail left by
    a crashed previous writer is isolated with a leading newline so the
    fresh record still parses.  Best-effort: returns ``False`` on any
    ``OSError`` instead of raising — durability code must never take
    down the work it is trying to preserve.
    """
    path = Path(path)
    if not line.endswith(b"\n"):
        line += b"\n"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with _APPEND_LOCK:
            fd = os.open(str(path), os.O_RDWR | os.O_CREAT | os.O_APPEND,
                         0o644)
            try:
                fcntl.lockf(fd, fcntl.LOCK_EX)
                size = os.fstat(fd).st_size
                if size > 0 and _last_byte(fd, size) != b"\n":
                    line = b"\n" + line
                os.write(fd, line)
                if fsync:
                    os.fsync(fd)
            finally:
                os.close(fd)  # also drops the lockf lock
        return True
    except OSError:
        return False
