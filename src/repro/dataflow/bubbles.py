"""Pipeline-bubble accounting: worker-idle-while-eligible-work-exists.

The PR 4 Gantt traces show the cost of stage barriers as long idle
tails — most workers parked behind a few stragglers while the *next*
stage's work is already ready but not yet dispatchable.  This module
turns that picture into one number, ``pipeline.bubble_seconds``: the
total worker-seconds during which a worker sat idle while at least one
task it was *eligible* to run (same pool, satisfiable memory class) had
all its dependencies resolved but had not started.

The computation is schedule-agnostic — it only needs the task record
stream, the worker set, and the dependency-annotated specs — so the
same function scores a barrier composite and a streaming run, which is
how ``benchmarks/bench_streaming.py`` shows the barrier bubbles
collapsing.

Definitions (all times in the record stream's clock, usually simulated
seconds from makespan start):

* a task's *ready time* is the latest terminal-completion time of its
  dependencies (zero for root tasks): the end of a dependency's
  successful attempt, or of its final failed attempt for
  ``dep_mode="resolved"`` tasks that run on partial results;
* its *waiting interval* is ``[ready, first real start)`` — poisoned /
  unscheduled tasks that never ran contribute nothing;
* a worker's *idle intervals* are the complement of its busy records
  within ``[0, makespan]``;
* the bubble is the sum over workers of the overlap between the
  worker's idle intervals and the union of waiting intervals of task
  classes (pool, requires_highmem) that worker is eligible for.
"""

from __future__ import annotations

from .core import UNSCHEDULED_WORKER_ID
from .scheduler import TaskRecord, TaskSpec, WorkerInfo, eligible

__all__ = ["bubble_seconds"]

Interval = tuple[float, float]


def _merge(intervals: list[Interval]) -> list[Interval]:
    """Union of intervals as a sorted, disjoint list."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def _overlap(a: list[Interval], b: list[Interval]) -> float:
    """Total length of the intersection of two disjoint sorted lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _complement(busy: list[Interval], horizon: float) -> list[Interval]:
    """Idle intervals: [0, horizon] minus the (merged) busy intervals."""
    idle: list[Interval] = []
    cursor = 0.0
    for start, end in busy:
        if start > cursor:
            idle.append((cursor, min(start, horizon)))
        cursor = max(cursor, end)
        if cursor >= horizon:
            return idle
    if cursor < horizon:
        idle.append((cursor, horizon))
    return idle


def bubble_seconds(
    records: list[TaskRecord],
    workers: list[WorkerInfo],
    specs: list[TaskSpec],
) -> float:
    """Worker-seconds idle while eligible, dependency-ready work waited.

    ``records`` may contain multiple attempts per key and synthetic
    (``unscheduled``) entries; ``specs`` supplies each key's
    ``depends_on``/``pool``/``requires_highmem``.  Records whose keys
    have no spec are treated as dependency-free root tasks of their
    own (pool-less) class only if present in ``specs`` — unknown keys
    are ignored, so callers can pass a spec subset to scope the
    question ("how long did *inference* work wait?").
    """
    real = [r for r in records if r.worker_id != UNSCHEDULED_WORKER_ID]
    if not real or not workers:
        return 0.0
    makespan = max(r.end for r in real)

    # Per-key timeline facts from the record stream.
    first_start: dict[str, float] = {}
    ok_end: dict[str, float] = {}
    last_end: dict[str, float] = {}
    for r in real:
        if r.key not in first_start or r.start < first_start[r.key]:
            first_start[r.key] = r.start
        if r.ok and (r.key not in ok_end or r.end < ok_end[r.key]):
            ok_end[r.key] = r.end
        if r.key not in last_end or r.end > last_end[r.key]:
            last_end[r.key] = r.end

    # Waiting intervals, grouped by eligibility class.
    waiting: dict[tuple[str, bool], list[Interval]] = {}
    for spec in specs:
        start = first_start.get(spec.key)
        if start is None:
            continue  # never ran (poisoned / unscheduled / restored)
        ready = 0.0
        resolvable = True
        for dep in spec.depends_on:
            done_at = ok_end.get(dep)
            if done_at is None:
                # Failed dependency: a resolved-mode task still ran once
                # the dep was *terminal* — its last attempt's end.
                done_at = last_end.get(dep)
            if done_at is None:
                resolvable = False
                break
            ready = max(ready, done_at)
        if not resolvable or start <= ready:
            continue
        waiting.setdefault((spec.pool, spec.requires_highmem), []).append(
            (ready, min(start, makespan))
        )
    if not waiting:
        return 0.0
    merged_waiting = {cls: _merge(ivs) for cls, ivs in waiting.items()}

    busy_by_worker: dict[str, list[Interval]] = {w.worker_id: [] for w in workers}
    for r in real:
        if r.worker_id in busy_by_worker and r.end > r.start:
            busy_by_worker[r.worker_id].append((r.start, r.end))

    total = 0.0
    for worker in workers:
        waits = [
            ivs
            for (pool, highmem), ivs in merged_waiting.items()
            if eligible(worker, pool, highmem)
        ]
        if not waits:
            continue
        work_exists = _merge([iv for ivs in waits for iv in ivs])
        idle = _complement(
            _merge(busy_by_worker[worker.worker_id]), makespan
        )
        total += _overlap(idle, work_exists)
    return total
