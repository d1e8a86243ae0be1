"""The scheduling core: one policy, interchangeable worker pools.

The paper's deployment (§3.3) is *one* Dask scheduler that every worker
pulls from.  :class:`SchedulerCore` is that scheduler as a clock- and
transport-agnostic state machine around the
:class:`~repro.dataflow.scheduler.TaskQueue`: a *driver* — threads
(:func:`~repro.dataflow.engine.run_threaded`), worker processes
(:func:`~repro.dataflow.process.run_processes`) or the discrete-event
clock (:func:`~repro.dataflow.simulated.run_simulated`) — feeds it
events and acts on what it answers (DESIGN §11 tabulates them).

Everything a driver must not get wrong lives here and exists once:
per-attempt :class:`TaskRecord`\\ s and ``<stage>.task.*`` metrics,
``on_complete`` *before* publish, retry/backoff with OOM→highmem
escalation, ``SkippedDependency`` records for a poisoned chain,
``preresolved``/``inject_deps``/finalize-at-promotion, the rule that
every submitted key ends in exactly one terminal record, and — under
``inject_deps`` — the rule that a value lives until its last consumer
is terminal, so a run holds the values of the chains in flight, not of
every chain it ran.  A driver
owns only what differs: how ``func`` runs, what its clock is, and how
it sleeps until something changes.
"""

from __future__ import annotations

import heapq
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterable, Iterator

from ..telemetry.metrics import get_metrics
from ..telemetry.tracer import NullTracer, Tracer, get_tracer
from .faults import RetryPolicy
from .reporting import lost_keys as _lost_keys
from .reporting import write_task_csv
from .scheduler import TaskQueue, TaskRecord, TaskSpec, WorkerInfo

__all__ = [
    "UNSCHEDULED_WORKER_ID",
    "ExecutionResult",
    "RecordStats",
    "SchedulerCore",
    "skipped_dependency_error",
    "submit_items",
]

#: Worker id recorded for tasks that never ran: no registered worker
#: could take them, a dependency failed, or their finalize hook raised.
UNSCHEDULED_WORKER_ID = "unscheduled"

class RecordStats:
    """Failure accounting shared by every result with a ``records`` list."""

    records: list[TaskRecord]

    @property
    def n_failed(self) -> int:
        """Distinct task keys with at least one failed attempt.

        A retried-then-recovered task counts once, however many
        attempts it burned; per-attempt failure counts live on the
        ``<stage>.task.failures`` metric and in
        :func:`~repro.dataflow.reporting.summarize_records`.
        """
        return len({r.key for r in self.records if not r.ok})

    def lost_keys(self) -> list[str]:
        """Task keys with no successful attempt — lost targets."""
        return _lost_keys(self.records)


@dataclass
class ExecutionResult(RecordStats):
    """Completed run: per-task records + results keyed by task key.

    Under ``inject_deps`` ``results`` holds the map's sinks only — the
    values no spec of the map consumes; a consumed value went to
    ``on_complete`` and to its consumers, and was dropped once the last
    of them was terminal.  Without it every result is kept.
    """

    records: list[TaskRecord]
    results: dict[str, Any]
    walltime_seconds: float
    workers: list[WorkerInfo] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> None:
        """Write the per-task statistics CSV (§3.3 step 3e)."""
        write_task_csv(self.records, path)


class _StageHandles:
    """Per-stage metric handles, resolved once per stage per run."""

    __slots__ = (
        "stage", "latency", "failures", "retries", "escalations",
        "unschedulable", "skipped_dependency",
    )

    def __init__(self, metrics, stage: str) -> None:
        self.stage = stage
        self.latency = metrics.histogram(f"{stage}.task.latency_seconds")
        self.failures = metrics.counter(f"{stage}.task.failures")
        self.retries = metrics.counter(f"{stage}.task.retries")
        self.escalations = metrics.counter(f"{stage}.task.oom_escalations")
        self.unschedulable = metrics.counter(f"{stage}.task.unschedulable")
        self.skipped_dependency = metrics.counter(
            f"{stage}.task.skipped_dependency"
        )


def submit_items(
    queue: TaskQueue, items: Iterable[tuple[str, Any, float] | TaskSpec]
) -> None:
    """Shared item-intake: tuples become plain specs, specs pass through."""
    for item in items:
        if isinstance(item, TaskSpec):
            queue.submit(item)
        else:
            try:
                key, payload, size_hint = item
            except (TypeError, ValueError):
                raise ValueError(
                    "items must be TaskSpec or (key, payload, size_hint) "
                    f"tuples, got {item!r}"
                ) from None
            queue.submit(
                TaskSpec(key=key, payload=payload, size_hint=size_hint)
            )


def skipped_dependency_error(failed_deps: tuple[str, ...]) -> str:
    """The failure string recorded for a dependency-poisoned task."""
    return (
        "SkippedDependency: upstream task(s) failed: "
        + ", ".join(failed_deps)
    )


class SchedulerCore:
    """One run's scheduling state; see the module docstring for the API.

    The policy arguments are those of
    :meth:`~repro.dataflow.engine.Executor.map`, which documents them.
    ``queue`` is the empty :class:`TaskQueue` to schedule through
    (default: one that samples queue pressure) and ``tracer`` the
    tracer task spans and escalation events go to (default: the active
    one) — the simulated driver passes a plain queue and the null
    tracer, because its timestamps are not wall seconds.

    The core is not thread-safe by itself.  A driver with concurrent
    callers installs its lock as :attr:`lock` and holds it around
    :meth:`promote`, :meth:`pull`, :meth:`finished` and
    :meth:`wake_at`; :meth:`finish` takes it only to publish, so
    ``on_complete`` (a ledger fsync) runs on the finishing worker's
    thread without stalling dispatch to the others.
    """

    def __init__(
        self,
        workers: list[WorkerInfo],
        items: Iterable[tuple[str, Any, float] | TaskSpec],
        *,
        queue: TaskQueue | None = None,
        tracer: NullTracer | Tracer | None = None,
        sort_descending: bool = True,
        retry_policy: RetryPolicy | None = None,
        failure_fn: Callable[[TaskSpec, WorkerInfo], str | None] | None = None,
        stage: str = "dataflow",
        on_complete: Callable[[TaskRecord, Any], None] | None = None,
        stage_of: Callable[[TaskSpec], str] | None = None,
        stage_spans: dict[str, Any] | None = None,
        finalize_fn: Callable[[TaskSpec, dict[str, Any]], TaskSpec] | None = None,
        inject_deps: bool = False,
        preresolved: dict[str, Any] | None = None,
    ) -> None:
        if not workers:
            raise ValueError("need at least one worker")
        self.workers = list(workers)
        #: Workers not reported lost — who ``finished`` asks about.
        self.live = list(workers)
        self.queue = TaskQueue(observe_pressure=True) if queue is None else queue
        self.stage = stage
        self.tracer = get_tracer() if tracer is None else tracer
        self.retry_policy = retry_policy
        self.failure_fn = failure_fn
        self.on_complete = on_complete
        self.stage_spans = stage_spans
        self.finalize_fn = finalize_fn
        self.inject_deps = inject_deps
        self.lock: ContextManager = nullcontext()
        #: Record each attempt's task span post hoc in :meth:`finish`.
        #: A driver that runs attempts under an ambient span of its own
        #: turns this off.
        self.posthoc_spans = True
        self.records: list[TaskRecord] = []
        self.results: dict[str, Any] = {}
        #: Under ``inject_deps``: consumed key -> how many of the specs
        #: that consume it are not yet terminal.  A key the map consumes
        #: has an entry (zero once its last consumer is terminal); a
        #: sink has none.
        self._consumers: dict[str, int] = {}
        self.resolved: dict[str, Any] = dict(preresolved or {})
        if inject_deps:
            items = list(items)
            for item in items:
                for dep in getattr(item, "depends_on", ()):
                    self._consumers[dep] = self._consumers.get(dep, 0) + 1
            # A seeded value no spec consumes is nobody's input.
            self.resolved = {
                k: v for k, v in self.resolved.items() if k in self._consumers
            }
        self.callback_errors: list[str] = []
        self.in_flight = 0
        # Respawned tasks waiting out a retry backoff: (ready_at, seq,
        # task) min-heap.  Parking them here instead of sleeping on a
        # worker keeps every slot draining other tasks for the whole
        # backoff window.
        self.deferred: list[tuple[float, int, TaskSpec]] = []
        self._defer_seq = 0
        self._finalize_errors: dict[str, str] = {}
        self._stage_of = stage_of
        self._handles: dict[str, _StageHandles] = {}
        self._trace_base = 0.0

        if finalize_fn is not None:
            self.queue.finalize = self._finalize
        if preresolved:
            self.queue.satisfy_many(preresolved)
        submit_items(self.queue, items)
        if sort_descending:
            self.queue.sort_descending()

    def start_clock(self) -> Callable[[], float]:
        """Start the run's wall clock: seconds since this call.

        Real-time drivers stamp every ``now``/``start``/``end`` with it;
        post-hoc task spans are placed on the tracer's timeline from
        the same origin.
        """
        t0 = time.perf_counter()
        self._trace_base = self.tracer.now() if self.tracer.enabled else 0.0
        return lambda: time.perf_counter() - t0

    def _handles_for(self, task: TaskSpec) -> _StageHandles:
        """``task``'s stage metrics: the run's stage, or ``stage_of(task)``."""
        name = self.stage if self._stage_of is None else self._stage_of(task)
        handles = self._handles.get(name)
        if handles is None:
            handles = self._handles[name] = _StageHandles(get_metrics(), name)
        return handles

    # -- dispatch ------------------------------------------------------------
    def _finalize(self, spec: TaskSpec) -> TaskSpec:
        """``finalize_fn`` with per-task isolation, like any task error.

        The queue calls this as ``spec`` enters a lane.  A spec whose
        hook raised still enters its lane; :meth:`pull` (or the
        end-of-run drain) turns it into a terminal ``FinalizeError``
        record instead of dispatching it.
        """
        try:
            return self.finalize_fn(spec, self.resolved)
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            self._finalize_errors[spec.key] = (
                f"FinalizeError: {type(exc).__name__}: {exc}"
            )
            return spec

    def promote(self, now: float) -> bool:
        """Move backoff-expired respawns onto the queue.

        True when any moved: one may only be eligible for *another*
        worker (highmem escalation), so the driver wakes everyone.
        """
        promoted = False
        while self.deferred and self.deferred[0][0] <= now:
            self.queue.submit(heapq.heappop(self.deferred)[2])
            promoted = True
        return promoted

    def pull(
        self, worker: WorkerInfo, now: float
    ) -> tuple[TaskSpec, TaskSpec, str | None] | None:
        """The next attempt ``worker`` should run, or ``None``.

        ``(task, exec_task, injected)``: the task as queued — what
        :meth:`finish` takes back — the task to execute (its payload
        wrapped with dependency results under ``inject_deps``), and the
        injected failure that replaces running it, if any.  ``now``
        stamps the records of specs whose finalize hook raised.
        """
        while True:
            task = self.queue.pop(worker)
            if task is None:
                return None
            error = self._finalize_errors.pop(task.key, None)
            if error is None:
                break
            self._skip(task, error, now)
            self.queue.mark_failed(task.key)
            self._skip_poisoned(now)
        exec_task = task
        if self.inject_deps:
            deps = {
                k: self.resolved[k] for k in task.depends_on if k in self.resolved
            }
            exec_task = replace(task, payload=(task.payload, deps))
        injected = (
            self.failure_fn(task, worker) if self.failure_fn is not None else None
        )
        self.in_flight += 1
        return task, exec_task, injected

    def wake_at(self) -> float | None:
        """When the earliest deferred respawn is due, if any is waiting."""
        return self.deferred[0][0] if self.deferred else None

    def worker_lost(self, worker: WorkerInfo) -> None:
        """``worker`` is gone; an attempt it held is finished separately."""
        self.live.remove(worker)

    def finished(self) -> bool:
        """Is the run over for every live worker?

        No live worker; or nothing running that could requeue or
        promote a task, nothing waiting out a backoff, and no queued
        task *any* live worker could take.  Tasks no worker fits — and
        chains blocked on them — are drained by :meth:`result`.
        """
        return not self.live or (
            self.in_flight == 0
            and not self.deferred
            and not self.queue.schedulable_for(self.live)
        )

    # -- completion ----------------------------------------------------------
    def span_attrs(self, task: TaskSpec, worker: WorkerInfo) -> dict[str, Any]:
        """Attributes of the ``task`` span of one attempt."""
        return {
            "worker": worker.worker_id,
            "lane": worker.short_id,
            "attempt": task.attempt,
            "highmem": worker.highmem,
            "stage": self._handles_for(task).stage,
        }

    def finish(
        self,
        task: TaskSpec,
        worker: WorkerInfo,
        start: float,
        end: float,
        ok: bool = True,
        error: str = "",
        value: Any = None,
        now: float | None = None,
    ) -> tuple[int, float | None]:
        """One attempt of ``task`` ended on ``worker``.

        ``now`` is the driver's clock at this call when that is not
        ``end`` (a simulated event time can differ from ``start +
        duration`` in the last bit).  Returns ``(promoted, retry_at)``:
        how many dependents entered a lane, and when the deferred
        respawn is due if this attempt earned a retry.
        """
        if now is None:
            now = end
        handles = self._handles_for(task)
        handles.latency.observe(end - start)
        if not ok:
            handles.failures.inc()
        if task.attempt > 1:
            handles.retries.inc()
        if self.posthoc_spans and self.tracer.enabled:
            parent = (
                self.stage_spans.get(handles.stage)
                if self.stage_spans is not None
                else None
            )
            self.tracer.complete(
                "task",
                task.key,
                self._trace_base + start,
                self._trace_base + end,
                attrs={**self.span_attrs(task, worker), "ok": ok, "error": error},
                parent_id=parent.span_id if parent is not None else None,
                thread=worker.worker_id,
            )
        record = TaskRecord(
            key=task.key,
            worker_id=worker.worker_id,
            start=start,
            end=end,
            ok=ok,
            error=error,
            attempt=task.attempt,
        )
        policy = self.retry_policy
        respawn = None
        if not ok and policy is not None and policy.should_retry(task.attempt):
            respawn = policy.next_task(task, error)
            if respawn.requires_highmem and not task.requires_highmem:
                handles.escalations.inc()
                self.tracer.event(
                    f"{handles.stage}.task.oom_escalation",
                    category="dataflow",
                    attrs={"key": task.key, "attempt": task.attempt},
                )
        self._notify(record, value)
        promoted, retry_at = 0, None
        with self.lock:
            self.records.append(record)
            self.in_flight -= 1
            if respawn is None:
                self._retire(task)
            if ok:
                self._publish(task.key, value)
                promoted = self.queue.mark_complete(task.key, worker)
            elif respawn is not None:
                # Always through the heap, even with no backoff: the
                # respawn joins the queue at the next ``promote``, after
                # whatever this attempt's completion already promoted.
                retry_at = now + policy.backoff_for(task.attempt)
                self._defer_seq += 1
                heapq.heappush(
                    self.deferred, (retry_at, self._defer_seq, respawn)
                )
            else:
                # Terminal failure: poison the downstream chain (and
                # only it) instead of stranding dependents; a
                # resolved-mode dependent may *promote* instead.
                promoted = self.queue.mark_failed(task.key)
        if not ok and respawn is None:
            self._skip_poisoned(now)
        return promoted, retry_at

    def _publish(self, key: str, value: Any) -> None:
        """Keep a completed value: for its consumers, or as a result.

        Without ``inject_deps`` every value is both.  With it a value
        is kept for the consumers still to run, or — if no spec of the
        map consumes it — as a sink; a consumed value whose consumers
        are all terminal already is kept as neither.
        """
        if not self.inject_deps:
            self.results[key] = self.resolved[key] = value
        elif key not in self._consumers:
            self.results[key] = value
        elif self._consumers[key]:
            self.resolved[key] = value

    def _retire(self, task: TaskSpec) -> None:
        """``task`` is terminal: drop each input it was the last to need.

        Called once per key — on its last attempt, never on one a retry
        follows, so a deferred retry still finds its inputs.
        """
        if not self.inject_deps:
            return
        for dep in task.depends_on:
            left = self._consumers[dep] - 1
            self._consumers[dep] = left
            if not left:
                self.resolved.pop(dep, None)

    def _notify(self, record: TaskRecord, value: Any) -> None:
        if self.on_complete is None:
            return
        try:
            self.on_complete(record, value if record.ok else None)
        except Exception as exc:  # noqa: BLE001 - surfaced after drain
            with self.lock:
                self.callback_errors.append(
                    f"{record.key}: {type(exc).__name__}: {exc}"
                )

    def _skip(
        self, spec: TaskSpec, error: str, at: float, reason: str = ""
    ) -> None:
        """Record a task that never ran, as a zero-duration failure.

        ``reason`` names the stage counter that says why
        (``unschedulable`` or ``skipped_dependency``).
        """
        handles = self._handles_for(spec)
        handles.failures.inc()
        if reason:
            getattr(handles, reason).inc()
        record = TaskRecord(
            key=spec.key,
            worker_id=UNSCHEDULED_WORKER_ID,
            start=at,
            end=at,
            ok=False,
            error=error,
            attempt=spec.attempt,
        )
        self._notify(record, None)
        with self.lock:
            self.records.append(record)
            self._retire(spec)

    def _skip_poisoned(self, at: float) -> None:
        with self.lock:
            poisoned = self.queue.reap_poisoned()
        for spec, failed_deps in poisoned:
            error = skipped_dependency_error(failed_deps)
            self._skip(spec, error, at, "skipped_dependency")

    # -- end of run ----------------------------------------------------------
    def _leftovers(self) -> Iterator[TaskSpec]:
        """Respawns still deferred, then every queued task, oldest first.

        Lazy, so tasks that failing one leftover promotes are seen too.
        """
        while self.deferred:
            yield heapq.heappop(self.deferred)[2]
        while (task := self.queue.pop()) is not None:
            yield task

    def drain(self, now: float) -> None:
        """Fail, don't lose, everything that never ran.

        Tasks no live worker could take (wrong pool, highmem-only with
        no highmem worker, anything left once every worker is lost),
        the chains poisoned with them, and tasks whose dependencies
        were never submitted each get a failure record.  Then callback
        errors surface as one ``RuntimeError``: losing durable state
        must be loud.
        """
        for task in self._leftovers():
            error, reason = self._finalize_errors.pop(task.key, None), ""
            if error is None:
                reason = "unschedulable"
                error = (
                    "NoEligibleWorker: no worker matches this task's "
                    f"placement (pool={task.pool or 'any'!r}, "
                    f"highmem={task.requires_highmem})"
                    if self.live
                    else "WorkerLost: no live worker processes remain"
                )
            self._skip(task, error, now, reason)
            self.queue.mark_failed(task.key)
        self._skip_poisoned(now)
        for spec, missing in self.queue.drain_blocked():
            error = "SkippedDependency: dependency never completed: "
            self._skip(spec, error + ", ".join(missing), now, "skipped_dependency")
        if self.callback_errors:
            raise RuntimeError(
                f"on_complete callback failed for {len(self.callback_errors)} "
                "record(s): " + "; ".join(self.callback_errors[:3])
            )

    def result(self, walltime: float) -> ExecutionResult:
        """Drain, then the finished run with records sorted by start."""
        self.drain(walltime)
        self.records.sort(key=lambda r: r.start)
        return ExecutionResult(
            records=self.records,
            results=self.results,
            walltime_seconds=walltime,
            workers=list(self.workers),
        )
