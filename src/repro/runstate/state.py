"""RunState: one campaign's durable state directory.

Binds the two halves of crash-safe resumption together under a single
``--state-dir``:

* ``ledger.jsonl``   — the write-ahead :class:`CompletionLedger`;
* ``artifacts.pack`` — the append-only :class:`ArtifactPack`.

The pipeline asks :meth:`restore` which of a stage's task keys are
already done (ledgered ok *and* the artifact the ledger points at is
intact — a ledgered key whose artifact is short or fails its checksum
is recomputed, never trusted blindly), and hands :meth:`on_complete` to
the executor so every finishing task is persisted the moment it lands:
under one lock, the artifact is appended to the pack, then the ledger
record that locates it is appended and fsync'd.  That ordering is the
commit point — a kill between the two writes costs at most one
recomputation, never a ledgered key without its output.
"""

from __future__ import annotations

import threading
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..telemetry.metrics import get_metrics
from .ledger import CompletionLedger
from .store import ArtifactPack, encode_record

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dataflow.scheduler import TaskRecord

__all__ = ["RunState"]


class RunState:
    """Durable ledger + artifact pack for a (possibly resumed) campaign."""

    def __init__(self, state_dir: str | Path, fsync: bool = True) -> None:
        self.dir = Path(state_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        # The ledger opens first: a state dir of another schema raises
        # here, before the pack is created or cut.
        self.ledger = CompletionLedger(self.dir / "ledger.jsonl", fsync=fsync)
        end = max(
            (
                e.offset + e.length
                for e in self.ledger.entries
                if e.offset is not None
            ),
            default=0,
        )
        self.pack = ArtifactPack(self.dir / "artifacts.pack", end)
        self._lock = threading.Lock()

    @property
    def resumed(self) -> bool:
        """Did this directory carry completions from a previous session?"""
        return self.ledger.n_replayed > 0

    # -- Resume --------------------------------------------------------------
    def restore(self, stage: str, keys: Iterable[str]) -> dict[str, Any]:
        """Artifacts for the subset of ``keys`` already completed.

        Only keys that are both ledgered ok and intact in the pack are
        returned; a missing or corrupt artifact behind a ledgered key is
        counted on ``runstate.restore.missing_artifact`` and left to
        recompute.
        """
        done = self.ledger.latest_ok(stage)
        restored: dict[str, Any] = {}
        missing = 0
        for key in keys:
            entry = done.get(key)
            if entry is None:
                continue
            value = self.pack.read(entry)
            if value is None:
                missing += 1
                continue
            restored[key] = value
        if missing:
            get_metrics().counter("runstate.restore.missing_artifact").inc(
                missing
            )
        return restored

    # -- Record --------------------------------------------------------------
    def on_complete(self, stage: str) -> Callable[["TaskRecord", Any], None]:
        """Executor callback persisting each attempt as it lands."""

        def callback(record: "TaskRecord", value: Any) -> None:
            if not record.ok:
                self.ledger.record(
                    stage,
                    record.key,
                    attempt=record.attempt,
                    ok=False,
                    error=record.error,
                )
                return
            blob = encode_record(stage, record.key, value)
            crc32 = zlib.crc32(blob)
            with self._lock:
                # Artifact before ledger: the ledger entry is the commit.
                offset = self.pack.append(blob)
                self.ledger.record(
                    stage,
                    record.key,
                    attempt=record.attempt,
                    offset=offset,
                    length=len(blob),
                    crc32=crc32,
                )

        return callback

    # -- Introspection / lifecycle -------------------------------------------
    def summary(self) -> dict[str, dict[str, int]]:
        """Per-stage ledger attempt counts (CLI status line)."""
        return self.ledger.counts()

    def close(self) -> None:
        with self._lock:
            self.ledger.close()
            self.pack.close()

    def __enter__(self) -> "RunState":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
