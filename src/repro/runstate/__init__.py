"""Durable campaign state: checkpoint/resume for the three-stage pipeline.

The paper's restartability story (§3.3) — re-submit the job, skip
already-produced outputs — promoted from a filesystem convention to a
subsystem: a write-ahead completion ledger plus an append-only artifact
pack, opened together as a :class:`RunState` and wired
through the pipeline via ``ProteomePipeline(run_state=...)`` or
``repro campaign --state-dir ... [--resume]``.
"""

from .ledger import LEDGER_SCHEMA, CompletionLedger, LedgerEntry
from .state import RunState
from .store import ArtifactPack

__all__ = [
    "LEDGER_SCHEMA",
    "CompletionLedger",
    "LedgerEntry",
    "ArtifactPack",
    "RunState",
]
