"""Simulated-time dataflow execution.

Replays the Dask dataflow model against the discrete-event clock: every
worker pulls the next queued task as soon as it frees up, each task
costs ``duration_fn(task)`` simulated seconds plus the per-task dispatch
overhead, and the run ends when the queue drains and all workers idle.

This is the engine behind every walltime/node-hour number the
benchmarks report (Table 1 wall times, Fig. 2 worker Gantt, §4.3/§4.5
workflow costs, the 1000-node scaling study).
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Callable

from ..cluster.costmodel import (
    DASK_TASK_OVERHEAD_SECONDS,
    SCHEDULER_STARTUP_SECONDS,
)
from ..cluster.simclock import SimClock
from ..telemetry.metrics import get_metrics
from .faults import RetryPolicy
from .reporting import lost_keys as _lost_keys
from .scheduler import TaskQueue, TaskRecord, TaskSpec, WorkerInfo

__all__ = ["SimulationResult", "simulate_dataflow"]

#: Worker id recorded for tasks no registered worker could ever run
#: (e.g. ``requires_highmem`` with no high-memory workers provisioned).
UNSCHEDULED_WORKER_ID = "unscheduled"


@dataclass
class SimulationResult:
    """Everything a simulated workflow run produced.

    Per-worker analytics (:meth:`worker_records`,
    :meth:`worker_finish_times`) share a lazily built one-pass index
    over the record stream, so extracting a W-row Gantt chart is
    O(R + W) instead of O(W * R) rescans.  The index assumes ``records``
    is not mutated after the first analytics call.
    """

    records: list[TaskRecord]
    workers: list[WorkerInfo]
    makespan_seconds: float
    startup_seconds: float

    def _index(self) -> dict[str, list[TaskRecord]]:
        by_worker = getattr(self, "_by_worker", None)
        if by_worker is None:
            by_worker = {}
            for r in self.records:
                by_worker.setdefault(r.worker_id, []).append(r)
            self._by_worker = by_worker
        return by_worker

    @property
    def walltime_seconds(self) -> float:
        """Job wall time: startup + processing makespan."""
        return self.startup_seconds + self.makespan_seconds

    @property
    def n_failed(self) -> int:
        """Distinct task keys with at least one failed attempt.

        A retried-then-recovered task counts once, however many
        attempts it burned; per-attempt failure counts live in
        :func:`~repro.dataflow.reporting.summarize_records`.
        """
        return len({r.key for r in self.records if not r.ok})

    def lost_keys(self) -> list[str]:
        """Task keys with no successful attempt — lost targets."""
        return _lost_keys(self.records)

    @property
    def walltime_minutes(self) -> float:
        return self.walltime_seconds / 60.0

    def worker_records(self, worker_id: str) -> list[TaskRecord]:
        return list(self._index().get(worker_id, []))

    def worker_finish_times(self) -> dict[str, float]:
        """Last task end per worker — Fig. 2's ragged right edge."""
        return {
            worker_id: max(r.end for r in recs)
            for worker_id, recs in self._index().items()
        }

    def finish_spread_seconds(self) -> float:
        """Max - min of per-worker finish times (load-balance quality)."""
        times = list(self.worker_finish_times().values())
        if not times:
            return 0.0
        return max(times) - min(times)

    def utilization(self) -> float:
        """Busy fraction of worker-time within the makespan."""
        if not self.records or self.makespan_seconds <= 0:
            return 0.0
        busy = sum(r.duration for r in self.records)
        return busy / (len(self.workers) * self.makespan_seconds)

    def node_hours(self, n_nodes: int) -> float:
        return n_nodes * self.walltime_seconds / 3600.0

    def busy_node_hours(self, workers_per_node: int) -> float:
        """Work-conserving node-hours: total busy worker-time only.

        Unlike :meth:`node_hours` this excludes startup and idle-tail
        time, so it extrapolates cleanly from scaled-down runs (a
        20-task run on 96 workers is mostly idle; its *work* is not).
        """
        busy = sum(r.duration for r in self.records)
        return busy / workers_per_node / 3600.0


def simulate_dataflow(
    tasks: list[TaskSpec],
    workers: list[WorkerInfo],
    duration_fn: Callable[[TaskSpec], float],
    sort_descending: bool = True,
    rng=None,
    task_overhead: float = DASK_TASK_OVERHEAD_SECONDS,
    startup: float = SCHEDULER_STARTUP_SECONDS,
    failure_fn: Callable[[TaskSpec, WorkerInfo], str | None] | None = None,
    retry_policy: RetryPolicy | None = None,
) -> SimulationResult:
    """Run the dataflow model to completion in simulated time.

    ``duration_fn`` maps a task to its modelled runtime (seconds).
    ``sort_descending=True`` applies the paper's greedy length sort;
    ``False`` with an ``rng`` shuffles (the baseline).  ``failure_fn``
    may return an error string for (task, worker) pairs that fail —
    e.g. out-of-memory tasks on standard-memory workers — which are
    recorded as failed with a short abort duration.

    Dispatch is memory-aware: ``requires_highmem`` tasks only ever run
    on ``highmem=True`` workers (§3.3's oversized-protein routing).
    With a ``retry_policy``, each failed attempt is recorded and a
    successor resubmitted after the policy's backoff — escalated to a
    high-memory worker on OOM-class errors — until it succeeds or the
    attempt budget is exhausted.  Tasks no registered worker can run
    are drained as failed ``NoEligibleWorker`` records rather than
    stalling the run.
    """
    if not workers:
        raise ValueError("need at least one worker")
    queue = TaskQueue()
    queue.submit_many(list(tasks))
    if sort_descending:
        queue.sort_descending()
    elif rng is not None:
        queue.shuffle(rng)

    # Simulated-run counters, resolved once per run (the per-event cost
    # inside the loop is a plain method call on a bound counter).
    metrics = get_metrics()
    sim_failures = metrics.counter("sim.dataflow.task.failures")
    sim_retries = metrics.counter("sim.dataflow.task.retries")
    sim_escalations = metrics.counter("sim.dataflow.task.oom_escalations")
    sim_unschedulable = metrics.counter("sim.dataflow.task.unschedulable")
    sim_skipped = metrics.counter("sim.dataflow.task.skipped_dependency")

    clock = SimClock()
    records: list[TaskRecord] = []
    idle: list[WorkerInfo] = []

    def wake_idle() -> None:
        """Re-offer the queue to workers parked with nothing eligible."""
        waiting, idle[:] = idle[:], []
        for worker in waiting:
            pull(worker)

    def skip_poisoned(at: float) -> None:
        """Record dependency-poisoned tasks as zero-duration failures."""
        for spec, failed_deps in queue.reap_poisoned():
            sim_skipped.inc()
            sim_failures.inc()
            records.append(
                TaskRecord(
                    key=spec.key,
                    worker_id=UNSCHEDULED_WORKER_ID,
                    start=at,
                    end=at,
                    ok=False,
                    error=(
                        "SkippedDependency: upstream task(s) failed: "
                        + ", ".join(failed_deps)
                    ),
                    attempt=spec.attempt,
                )
            )

    def pull(worker: WorkerInfo) -> None:
        task = queue.pop(worker)
        if task is None:
            idle.append(worker)
            return
        error = failure_fn(task, worker) if failure_fn is not None else None
        start = clock.now + task_overhead
        if error is not None:
            # Failed tasks abort quickly (e.g. OOM on startup).
            duration = min(30.0, duration_fn(task) * 0.1)
        else:
            duration = duration_fn(task)
        end = start + duration

        def finish() -> None:
            records.append(
                TaskRecord(
                    key=task.key,
                    worker_id=worker.worker_id,
                    start=start,
                    end=end,
                    ok=error is None,
                    error=error or "",
                    attempt=task.attempt,
                )
            )
            if error is not None:
                sim_failures.inc()
            if task.attempt > 1:
                sim_retries.inc()
            if error is None:
                # Completing a task may unblock queued dependents that
                # only *other* (idle) workers are eligible for.
                if queue.mark_complete(task.key, worker):
                    wake_idle()
            elif (
                retry_policy is not None
                and retry_policy.should_retry(task.attempt)
            ):
                respawn = retry_policy.next_task(task, error)
                if respawn.requires_highmem and not task.requires_highmem:
                    sim_escalations.inc()

                def resubmit() -> None:
                    queue.submit(respawn)
                    wake_idle()

                clock.schedule(retry_policy.backoff_for(task.attempt), resubmit)
            else:
                # Terminal failure: poison only the downstream chain;
                # a resolved-mode dependent may *promote* instead
                # (relax runs on whichever models survived).
                promoted = queue.mark_failed(task.key)
                skip_poisoned(clock.now)
                if promoted:
                    wake_idle()
            pull(worker)

        clock.schedule(end - clock.now, finish)

    for worker in workers:
        pull(worker)
    makespan = clock.run()
    # Anything still queued could not be placed on any worker (e.g.
    # highmem-only tasks with no highmem workers): fail, don't lose.
    while True:
        task = queue.pop()
        if task is None:
            break
        sim_unschedulable.inc()
        sim_failures.inc()
        records.append(
            TaskRecord(
                key=task.key,
                worker_id=UNSCHEDULED_WORKER_ID,
                start=makespan,
                end=makespan,
                ok=False,
                error="NoEligibleWorker: no worker matches this task's "
                f"placement (pool={task.pool or 'any'!r}, "
                f"highmem={task.requires_highmem})",
                attempt=task.attempt,
            )
        )
        queue.mark_failed(task.key)
    skip_poisoned(makespan)
    for spec, missing in queue.drain_blocked():
        sim_skipped.inc()
        sim_failures.inc()
        records.append(
            TaskRecord(
                key=spec.key,
                worker_id=UNSCHEDULED_WORKER_ID,
                start=makespan,
                end=makespan,
                ok=False,
                error="SkippedDependency: dependency never completed: "
                + ", ".join(missing),
                attempt=spec.attempt,
            )
        )
    return SimulationResult(
        records=records,
        workers=list(workers),
        makespan_seconds=makespan,
        startup_seconds=startup,
    )
