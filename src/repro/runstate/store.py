"""Append-only artifact pack for stage outputs.

The ledger says *that* a task finished; the pack holds *what* it
produced — the feature bundle, prediction, or relax outcome a resumed
campaign restores instead of recomputing.  ``artifacts.pack`` is one
append-only file per state dir.  Each record is a one-line JSON header
naming its ``(stage, key)`` followed by the pickled value; the ledger
line that commits the task carries the record's ``offset``, ``length``
and ``crc32``, so the pack needs no index of its own, no file per task
and no rename.

An append is one buffered write and a flush, with no fsync: flushed
bytes are in the kernel and survive a SIGKILL of the process.  A power
loss can drop them while the fsync'd ledger line that points at them
survives, which is why :meth:`ArtifactPack.read` checks length, checksum
and the embedded ``(stage, key)`` before it unpickles.  A mismatch is
counted on ``runstate.store.corrupt`` and the key falls back to
recomputation.

Opening a pack sets its size to ``end``, the end of the last ledgered
record — the rule the ledger applies to its own torn tail.  Bytes an
uncommitted append left behind are dropped, and a pack that lost its
tail is zero-padded, so a new record never reuses a ledgered range.
"""

from __future__ import annotations

import json
import os
import pickle
import zlib
from pathlib import Path
from typing import Any

from ..telemetry.metrics import get_metrics
from .ledger import LedgerEntry

__all__ = ["ArtifactPack", "encode_record"]


def _header(stage: str, key: str) -> bytes:
    # JSON escapes newlines inside strings, so the header is one line.
    return (
        json.dumps(
            {"stage": stage, "key": key}, separators=(",", ":"), sort_keys=True
        ).encode()
        + b"\n"
    )


def encode_record(stage: str, key: str, value: Any) -> bytes:
    """One pack record: the ``(stage, key)`` header line, then the pickle."""
    return _header(stage, key) + pickle.dumps(value)


class ArtifactPack:
    """One append-only file of encoded records, read back by offset.

    Appends are not locked here: the caller serialises them together
    with the ledger line that commits each one
    (:meth:`repro.runstate.state.RunState.on_complete`).
    """

    def __init__(self, path: str | Path, end: int) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "a+b")
        self._fh.truncate(end)
        self._end = end

    def append(self, record: bytes) -> int:
        """Write one encoded record after the last; returns its offset."""
        offset = self._end
        self._fh.write(record)
        self._fh.flush()
        self._end += len(record)
        return offset

    def read(self, entry: LedgerEntry) -> Any | None:
        """The value ``entry`` committed, or ``None`` if it is not intact."""
        if entry.offset is None:
            return None
        header = _header(entry.stage, entry.key)
        record = os.pread(self._fh.fileno(), entry.length, entry.offset)
        if (
            len(record) == entry.length
            and zlib.crc32(record) == entry.crc32
            and record.startswith(header)
        ):
            try:
                return pickle.loads(memoryview(record)[len(header) :])
            except Exception:  # a class renamed since the record was written
                pass
        get_metrics().counter("runstate.store.corrupt").inc()
        return None

    def close(self) -> None:
        self._fh.close()
