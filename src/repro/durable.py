"""Append-only line logs and atomic file replacement.

The service's ``queue.journal`` and ``progress.jsonl``, the shard
store's ``manifest`` and the telemetry ``*.jsonl`` series share one
crash rule: **a record counts once its newline is on disk.**  Each
append is one ``write`` of whole lines, so a crash leaves at most an
unterminated tail; :func:`read_lines` returns it apart from the
records, and a :class:`LineLog`'s first append truncates it (each of
those logs has one writer), so no record is glued onto a dead
writer's last one.  :func:`atomic_write` replaces a small document
whole.  Standard library only: every layer may import this.
"""

from __future__ import annotations

import os


def read_lines(path):
    """``(lines, tail)``: every ``\\n``-terminated line of the file as
    bytes without its newline, then the unterminated tail (``b""``
    when the file ends in a newline)."""
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    return lines[:-1], lines[-1]


class LineLog:
    """The append side of one line log at ``path``: :meth:`append`
    writes whole lines through an unbuffered handle, in one ``write``
    unless the kernel takes fewer bytes, and with ``fsync`` also fsyncs
    before it returns.  The file is opened (and created) by the first
    append, after a later :meth:`close` by the next one."""

    def __init__(self, path, fsync):
        self.path = os.fspath(path)
        self.fsync = fsync
        self._handle = None

    def _open(self):
        """Open for appending, first truncating an unterminated tail.
        (The append handle is write-only: a read-write one makes every
        append measurably slower.)"""
        with open(self.path, "a+b") as probe:
            end = keep = probe.seek(0, os.SEEK_END)
            while keep:
                start = max(keep - 4096, 0)
                probe.seek(start)
                newline = probe.read(keep - start).rfind(b"\n")
                if newline >= 0:
                    keep = start + newline + 1
                    break
                keep = start
            if keep < end:
                probe.truncate(keep)
        self._handle = open(self.path, "ab", buffering=0)
        return self._handle

    def append(self, text):
        """Append ``text``: whole lines, each ending in ``\\n``."""
        handle = self._handle or self._open()
        data = text.encode("utf-8")
        written = handle.write(data)
        while written < len(data):  # a short write: send the rest
            written += handle.write(data[written:])
        if self.fsync:
            os.fsync(handle.fileno())

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def atomic_write(path, text):
    """Replace the file at ``path`` with ``text``: a temp file beside
    it, flushed and fsynced, then ``os.replace``."""
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
