"""Write-ahead completion ledger: the campaign's durable task log.

The paper's proteome campaigns survived node failures by re-submitting
batch jobs and *skipping already-produced outputs* (§3.3).  The ledger
is the generalisation of that filesystem convention: an append-only
JSONL file with one record per task attempt —

``{"stage": ..., "key": ..., "attempt": n, "ok": true, "offset": o,
"length": n, "crc32": c}``

— where the last three locate the attempt's artifact in the state dir's
pack (:mod:`repro.runstate.store`).  Fields that are empty are left
out: a failed attempt has no artifact but an ``"error"``.  Each append
is written and flushed before :meth:`record` returns, which is what
makes it survive a SIGKILL at any later instruction: the bytes are in
the kernel.  The fsync that follows is for a power loss or an OS crash.
A stage consults :meth:`completed` before submitting work; anything
already ledgered ``ok`` is skipped and restored from the pack instead
of recomputed.

Crash tolerance of the ledger *itself*: a kill mid-append leaves a
truncated final line.  Replay parses the valid prefix, drops the torn
tail, and truncates the file back to the last complete record before
reopening for append — so one crash never poisons the next resume.
Torn writes can only ever be the final line (appends are serialized by
an in-process lock and each record is a single ``write`` call); an
unparsable line *followed by valid data* means real corruption and
raises instead of guessing.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path

__all__ = ["LEDGER_SCHEMA", "LedgerEntry", "CompletionLedger"]

LEDGER_SCHEMA = "repro.runstate.ledger/2"


@dataclass(frozen=True)
class LedgerEntry:
    """One ledgered task attempt."""

    stage: str
    key: str
    attempt: int = 1
    ok: bool = True
    error: str = ""
    offset: int | None = None
    length: int | None = None
    crc32: int | None = None


class CompletionLedger:
    """Append-only, fsync'd, replayable JSONL task-completion log.

    ``fsync=False`` gives up surviving a power loss (a SIGKILL is
    survived either way) for speed; tests and purely exploratory runs
    may want it, campaigns do not.  All methods are thread-safe —
    executor worker threads append concurrently.
    """

    def __init__(self, path: str | Path, fsync: bool = True) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._lock = threading.Lock()
        self._entries: list[LedgerEntry] = []
        self._completed: dict[str, dict[str, LedgerEntry]] = {}
        if self.path.exists() and self.path.stat().st_size > 0:
            valid_end = self._replay()
            if valid_end < self.path.stat().st_size:
                # Crash mid-append: drop the torn tail so this session's
                # appends start on a clean line boundary.
                with open(self.path, "r+b") as fh:
                    fh.truncate(valid_end)
        self._n_replayed = len(self._entries)
        self._fh = open(self.path, "ab")
        if self.path.stat().st_size == 0:
            self._append({"schema": LEDGER_SCHEMA})

    # -- Replay --------------------------------------------------------------
    def _replay(self) -> int:
        """Parse the existing file; returns the valid-prefix byte length."""
        raw = self.path.read_bytes()
        pos = 0
        valid_end = 0
        index = 0
        while pos < len(raw):
            nl = raw.find(b"\n", pos)
            line = raw[pos : len(raw) if nl == -1 else nl]
            payload: dict | None = None
            if nl != -1:
                try:
                    decoded = json.loads(line.decode("utf-8"))
                    if isinstance(decoded, dict):
                        payload = decoded
                except (UnicodeDecodeError, ValueError):
                    payload = None
            if payload is None:
                if nl != -1 and raw.find(b"\n", nl + 1) != -1:
                    raise ValueError(
                        f"corrupt ledger entry at byte {pos} of {self.path}"
                    )
                break  # torn final append — replay the prefix
            if index == 0:
                if payload.get("schema") != LEDGER_SCHEMA:
                    raise ValueError(
                        f"{self.path} is not a {LEDGER_SCHEMA} ledger: its "
                        f"header declares schema {payload.get('schema')!r}; "
                        "resume it with the build that wrote it, or start "
                        "a fresh state dir"
                    )
            else:
                self._add(
                    LedgerEntry(
                        stage=str(payload["stage"]),
                        key=str(payload["key"]),
                        attempt=int(payload["attempt"]),
                        ok=bool(payload["ok"]),
                        error=str(payload.get("error", "")),
                        **{
                            name: int(payload[name])
                            for name in ("offset", "length", "crc32")
                            if name in payload
                        },
                    )
                )
            index += 1
            pos = nl + 1
            valid_end = pos
        return valid_end

    def _add(self, entry: LedgerEntry) -> None:
        self._entries.append(entry)
        if entry.ok:
            self._completed.setdefault(entry.stage, {})[entry.key] = entry

    # -- Append --------------------------------------------------------------
    def _append(self, payload: dict) -> None:
        data = (
            json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
            + b"\n"
        )
        self._fh.write(data)
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())

    def record(
        self,
        stage: str,
        key: str,
        attempt: int = 1,
        ok: bool = True,
        error: str = "",
        offset: int | None = None,
        length: int | None = None,
        crc32: int | None = None,
    ) -> LedgerEntry:
        """Durably append one attempt record (write-ahead: fsync'd).

        ``offset``/``length``/``crc32`` locate the attempt's artifact in
        the pack; a record without them has no artifact.
        """
        entry = LedgerEntry(
            stage=stage,
            key=key,
            attempt=int(attempt),
            ok=bool(ok),
            error=error,
            offset=offset,
            length=length,
            crc32=crc32,
        )
        with self._lock:
            self._append(
                {k: v for k, v in vars(entry).items() if v is not None and v != ""}
            )
            self._add(entry)
        return entry

    # -- Queries -------------------------------------------------------------
    @property
    def entries(self) -> list[LedgerEntry]:
        with self._lock:
            return list(self._entries)

    @property
    def n_replayed(self) -> int:
        """Entries inherited from a previous session at open time."""
        return self._n_replayed

    def completed(self, stage: str) -> set[str]:
        """Task keys with at least one ``ok`` attempt in ``stage``."""
        with self._lock:
            return set(self._completed.get(stage, ()))

    def latest_ok(self, stage: str) -> dict[str, LedgerEntry]:
        """Each completed key's most recent ``ok`` record in ``stage``."""
        with self._lock:
            return dict(self._completed.get(stage, {}))

    def is_complete(self, stage: str, key: str) -> bool:
        with self._lock:
            return key in self._completed.get(stage, ())

    def stages(self) -> list[str]:
        with self._lock:
            seen = dict.fromkeys(e.stage for e in self._entries)
        return list(seen)

    def counts(self) -> dict[str, dict[str, int]]:
        """Per-stage ``{"ok": n, "failed": m}`` attempt totals."""
        out: dict[str, dict[str, int]] = {}
        with self._lock:
            for entry in self._entries:
                bucket = out.setdefault(entry.stage, {"ok": 0, "failed": 0})
                bucket["ok" if entry.ok else "failed"] += 1
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- Lifecycle -----------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "CompletionLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
