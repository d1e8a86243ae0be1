"""Simulated-time dataflow execution.

Replays the Dask dataflow model against the discrete-event clock: every
worker pulls the next queued task as soon as it frees up, each task
costs ``duration_fn(task)`` simulated seconds plus the per-task dispatch
overhead, and the run ends when the queue drains and all workers idle.
:func:`run_simulated` is the :class:`~repro.dataflow.core.SchedulerCore`
driver that owns that clock.

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
from ..telemetry.tracer import NULL_TRACER
from .core import UNSCHEDULED_WORKER_ID, RecordStats, SchedulerCore
from .faults import RetryPolicy
from .scheduler import TaskQueue, TaskRecord, TaskSpec, WorkerInfo

__all__ = [
    "UNSCHEDULED_WORKER_ID",
    "SimulationResult",
    "run_simulated",
    "simulate_dataflow",
]


@dataclass
class SimulationResult(RecordStats):
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


def run_simulated(
    core: SchedulerCore,
    duration_fn: Callable[[TaskSpec], float],
    task_overhead: float = DASK_TASK_OVERHEAD_SECONDS,
) -> float:
    """Drive ``core`` on a discrete-event clock; return the makespan.

    This driver owns the :class:`SimClock`, the modelled durations and
    the list of workers parked with nothing eligible.  Every attempt
    costs ``task_overhead`` plus ``duration_fn(task)`` simulated
    seconds; a failed one aborts quickly (e.g. OOM on startup).
    """
    clock = SimClock()
    idle: list[WorkerInfo] = []

    def wake_idle() -> None:
        """Re-offer the queue to workers parked with nothing eligible."""
        waiting, idle[:] = idle[:], []
        for worker in waiting:
            pull(worker)

    def resubmit() -> None:
        core.promote(clock.now)
        wake_idle()

    def pull(worker: WorkerInfo) -> None:
        dispatch = core.pull(worker, clock.now)
        if dispatch is None:
            idle.append(worker)
            return
        task, _, error = dispatch
        start = clock.now + task_overhead
        if error is not None:
            duration = min(30.0, duration_fn(task) * 0.1)
        else:
            duration = duration_fn(task)
        end = start + duration

        def finish() -> None:
            promoted, retry_at = core.finish(
                task, worker, start, end, error is None, error or "",
                now=clock.now,
            )
            if retry_at is not None:
                clock.schedule_at(retry_at, resubmit)
            elif promoted:
                # Completing (or terminally failing) a task may unblock
                # queued dependents that only *other* (idle) workers
                # are eligible for.
                wake_idle()
            pull(worker)

        clock.schedule(end - clock.now, finish)

    for worker in core.workers:
        pull(worker)
    return clock.run()


def simulate_dataflow(
    tasks: list[TaskSpec],
    workers: list[WorkerInfo],
    duration_fn: Callable[[TaskSpec], float],
    sort_descending: bool = True,
    task_overhead: float = DASK_TASK_OVERHEAD_SECONDS,
    startup: float = SCHEDULER_STARTUP_SECONDS,
    failure_fn: Callable[[TaskSpec, WorkerInfo], str | None] | None = None,
    retry_policy: RetryPolicy | None = None,
) -> SimulationResult:
    """Run the dataflow model to completion in simulated time.

    ``duration_fn`` maps a task to its modelled runtime (seconds).
    ``sort_descending=True`` applies the paper's greedy length sort;
    ``False`` keeps ``tasks`` in the given order (order them first with
    :func:`repro.core.scheduling.order_tasks` for a baseline).
    ``failure_fn`` may return an error string for (task, worker) pairs
    that fail — e.g. out-of-memory tasks on standard-memory workers —
    which are recorded as failed with a short abort duration.

    Scheduling policy — memory-aware dispatch, retries with backoff and
    OOM escalation, poisoned chains, the ``NoEligibleWorker`` drain —
    is the :class:`~repro.dataflow.core.SchedulerCore`'s, shared with
    the real executors; counts land on ``sim.dataflow.task.*``.  A
    simulated run emits no spans and no queue-pressure samples: its
    timestamps are not wall seconds.
    """
    core = SchedulerCore(
        workers,
        tasks,
        queue=TaskQueue(),
        tracer=NULL_TRACER,
        sort_descending=sort_descending,
        retry_policy=retry_policy,
        failure_fn=failure_fn,
        stage="sim.dataflow",
    )
    makespan = run_simulated(core, duration_fn, task_overhead)
    core.drain(makespan)
    return SimulationResult(
        records=core.records,
        workers=list(workers),
        makespan_seconds=makespan,
        startup_seconds=startup,
    )
