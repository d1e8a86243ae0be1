"""Workflow reporting: task CSVs, Gantt extraction, utilization stats.

Reproduces the observability the paper built around its Dask runs: the
per-task statistics CSV (§3.3 step 3e) and the worker-lane Gantt view of
Fig. 2 — rendered here as data (and ASCII) rather than matplotlib, so
benches can assert on it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .scheduler import TaskRecord

__all__ = [
    "GanttLane",
    "TASK_CSV_COLUMNS",
    "extract_gantt",
    "render_ascii_gantt",
    "format_task_row",
    "write_task_csv",
    "load_task_csv",
    "lost_keys",
    "summarize_records",
]

#: The one statistics-CSV row format shared by every writer (threaded
#: and process executors, simulated executor).  ``duration`` is
#: derived from start/end but written out so the CSV is self-contained
#: for downstream analysis, as the paper's per-task CSVs were.
TASK_CSV_COLUMNS: tuple[str, ...] = (
    "key",
    "worker_id",
    "attempt",
    "start",
    "end",
    "duration",
    "ok",
    "error",
)


def format_task_row(record: TaskRecord) -> list[str]:
    """One CSV row in the shared :data:`TASK_CSV_COLUMNS` format."""
    return [
        record.key,
        record.worker_id,
        str(record.attempt),
        f"{record.start:.6f}",
        f"{record.end:.6f}",
        f"{record.duration:.6f}",
        "true" if record.ok else "false",
        record.error,
    ]


def write_task_csv(records: list[TaskRecord], path: str | Path) -> None:
    """Write the per-task statistics CSV (§3.3 step 3e)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TASK_CSV_COLUMNS)
        for record in records:
            writer.writerow(format_task_row(record))


@dataclass(frozen=True)
class GanttLane:
    """One worker's processing timeline (a row of Fig. 2)."""

    short_id: str
    intervals: tuple[tuple[float, float], ...]

    @property
    def busy_seconds(self) -> float:
        return sum(e - s for s, e in self.intervals)

    @property
    def finish(self) -> float:
        return self.intervals[-1][1] if self.intervals else 0.0

    @property
    def n_tasks(self) -> int:
        return len(self.intervals)


def extract_gantt(
    records: list[TaskRecord], max_workers: int | None = None, rng=None
) -> list[GanttLane]:
    """Per-worker lanes; optionally a random sample (Fig. 2 shows 10 of 1200)."""
    by_worker: dict[str, list[TaskRecord]] = {}
    for r in records:
        by_worker.setdefault(r.worker_id, []).append(r)
    worker_ids = sorted(by_worker)
    if max_workers is not None and len(worker_ids) > max_workers:
        if rng is None:
            rng = np.random.default_rng(0)
        worker_ids = sorted(
            rng.choice(worker_ids, size=max_workers, replace=False).tolist()
        )
    lanes = []
    for wid in worker_ids:
        recs = sorted(by_worker[wid], key=lambda r: r.start)
        lanes.append(
            GanttLane(
                short_id=wid[-6:],
                intervals=tuple((r.start, r.end) for r in recs),
            )
        )
    return lanes


def render_ascii_gantt(lanes: list[GanttLane], width: int = 100) -> str:
    """ASCII Fig. 2: '#' = processing, '.' = idle/overhead."""
    if not lanes:
        return "(no lanes)"
    t_max = max(lane.finish for lane in lanes)
    if t_max <= 0:
        return "(empty timeline)"
    out_lines = []
    scale = width / t_max
    for lane in lanes:
        row = np.full(width, ".", dtype="<U1")
        for s, e in lane.intervals:
            a = int(s * scale)
            b = max(a + 1, int(e * scale))
            row[a : min(b, width)] = "#"
        out_lines.append(f"{lane.short_id} |{''.join(row)}|")
    return "\n".join(out_lines)


def load_task_csv(path: str | Path) -> list[TaskRecord]:
    """Read back a statistics CSV written by the executors.

    Accepts the shared schema plus older files without the
    ``attempt``/``duration`` columns or with ``True``-cased booleans.
    """
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(
                TaskRecord(
                    key=row["key"],
                    worker_id=row["worker_id"],
                    start=float(row["start"]),
                    end=float(row["end"]),
                    ok=row["ok"].lower() in ("true", "1"),
                    error=row.get("error", ""),
                    attempt=int(row.get("attempt") or 1),
                )
            )
    return records


def lost_keys(records: list[TaskRecord]) -> list[str]:
    """Task keys with no successful attempt — work the run lost.

    The zero-lost-targets criterion of a fault-tolerant run: with
    retries enabled every injected OOM should recover on a high-memory
    worker and this list should be empty.
    """
    succeeded = {r.key for r in records if r.ok}
    return sorted({r.key for r in records} - succeeded)


def _latency_stats(durations: np.ndarray) -> dict[str, float]:
    return {
        "n": int(durations.size),
        "mean": float(durations.mean()),
        "p50": float(np.percentile(durations, 50)),
        "p95": float(np.percentile(durations, 95)),
        "max": float(durations.max()),
    }


def summarize_records(records: list[TaskRecord]) -> dict:
    """Headline stats of a workflow run.

    Beyond the aggregate counts, the summary separates latency by
    attempt number (``attempt_latency``, keyed ``"1"``, ``"2"``, ... so
    the dict is JSON-ready): retried attempts run on different workers
    — often the high-memory pool — and folding their durations into one
    percentile hides exactly the tail the retry policy creates.  The
    keys that never succeeded are surfaced verbatim in ``lost_keys``
    (``n_lost`` is their count), because "which targets did we lose" is
    the first question after any faulted run.
    """
    if not records:
        return {
            "n_tasks": 0,
            "n_failed": 0,
            "n_failed_keys": 0,
            "n_retried": 0,
            "n_lost": 0,
            "lost_keys": [],
            "makespan": 0.0,
            "mean_duration": 0.0,
            "p95_duration": 0.0,
            "attempt_latency": {},
        }
    durations = np.array([r.duration for r in records])
    by_attempt: dict[int, list[float]] = {}
    for r in records:
        by_attempt.setdefault(r.attempt, []).append(r.duration)
    lost = lost_keys(records)
    return {
        "n_tasks": len(records),
        # Per-attempt failure count; ``n_failed_keys`` is the distinct
        # per-task view the executors' ``n_failed`` properties report.
        "n_failed": sum(1 for r in records if not r.ok),
        "n_failed_keys": len({r.key for r in records if not r.ok}),
        "n_retried": sum(1 for r in records if r.attempt > 1),
        "n_lost": len(lost),
        "lost_keys": lost,
        "makespan": float(max(r.end for r in records)),
        "mean_duration": float(durations.mean()),
        "p95_duration": float(np.percentile(durations, 95)),
        "attempt_latency": {
            str(attempt): _latency_stats(np.array(by_attempt[attempt]))
            for attempt in sorted(by_attempt)
        },
    }
