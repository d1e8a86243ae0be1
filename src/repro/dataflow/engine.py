"""Real (threaded) dataflow execution.

The same scheduler/queue semantics as the simulated engine, but tasks
are actual Python callables run on a thread pool — one "worker" per
thread.  Used by the examples and integration tests to run the full
pipeline for real.  Threads share every object by reference and cost
nothing to start, but the science is GIL-bound: on a multi-core machine
a second thread *lowers* campaign throughput (DESIGN §11 has the
numbers), so multi-core runs belong on
:class:`~repro.dataflow.process.ProcessExecutor`.

Fault tolerance matches the simulated executor: memory-aware dispatch
(``requires_highmem`` tasks only run on highmem workers), per-attempt
records, and optional :class:`~repro.dataflow.faults.RetryPolicy`
retries with escalate-to-highmem on OOM-class failures.

Dependency-driven execution (the streaming campaign scheduler) rides
the same loop: tasks with ``depends_on`` edges are held by the
:class:`~repro.dataflow.scheduler.TaskQueue` until their predecessors
complete and then run, by preference, on the worker that produced their
inputs (the queue's local lanes; idle workers steal), optional
heterogeneous ``pools`` confine feature/relax vs inference work to
disjoint worker sets, and a terminally failed predecessor poisons only
its own downstream chain — dependents surface as ``SkippedDependency``
failure records, never a hang.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable

from ..telemetry.metrics import get_metrics
from ..telemetry.tracer import get_tracer
from .faults import RetryPolicy
from .reporting import lost_keys as _lost_keys
from .reporting import write_task_csv
from .scheduler import TaskQueue, TaskRecord, TaskSpec, WorkerInfo, make_workers
from .simulated import UNSCHEDULED_WORKER_ID

__all__ = ["ExecutionResult", "ThreadedExecutor", "auto_worker_count"]


@dataclass
class ExecutionResult:
    """Completed run: per-task records + results keyed by task key."""

    records: list[TaskRecord]
    results: dict[str, Any]
    walltime_seconds: float
    workers: list[WorkerInfo] = field(default_factory=list)

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


def _stage_handles(
    metrics, stage: str, stage_of: Callable[[TaskSpec], str] | None
) -> Callable[[TaskSpec], _StageHandles]:
    """Metric-handle resolver: fixed stage, or per-task via ``stage_of``."""
    cache: dict[str, _StageHandles] = {stage: _StageHandles(metrics, stage)}
    if stage_of is None:
        fixed = cache[stage]
        return lambda task: fixed

    def resolve(task: TaskSpec) -> _StageHandles:
        name = stage_of(task)
        handles = cache.get(name)
        if handles is None:
            handles = cache[name] = _StageHandles(metrics, name)
        return handles

    return resolve


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


def auto_worker_count() -> int:
    """Workers for "auto": one per CPU this process may run on, at most 8.

    Counts the scheduler affinity mask where the platform has one — a
    cpuset or ``taskset`` leaves ``os.cpu_count()`` at the machine's
    total, and workers beyond the usable cores only fight each other
    (for the GIL, on the threaded backend).
    """
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        usable = os.cpu_count() or 1
    return max(1, min(8, usable))


def pooled_workers(
    pools: dict[str, int] | None,
    n_workers: int,
    highmem_workers: int,
) -> list[WorkerInfo]:
    """Worker descriptors for one machine, optionally split into pools.

    Without ``pools``: ``n_workers`` pool-less workers.  With pools,
    workers are created per pool in dict order and the total replaces
    ``n_workers``.  Either way the *last* ``highmem_workers`` workers
    are flagged high-memory — callers putting the GPU pool last in the
    dict therefore land highmem slots on GPU workers, matching the
    paper's 2 TB inference nodes.
    """
    if pools:
        workers: list[WorkerInfo] = []
        for pool, count in pools.items():
            if count < 0:
                raise ValueError(f"pool {pool!r} has negative size")
            workers.extend(
                make_workers(n_nodes=1, workers_per_node=count, pool=pool)
            )
        if not workers:
            raise ValueError("pools must provide at least one worker")
    else:
        workers = make_workers(n_nodes=1, workers_per_node=n_workers)
    n = len(workers)
    if not 0 <= highmem_workers <= n:
        raise ValueError("highmem_workers must be in [0, n_workers]")
    return [
        replace(w, highmem=i >= n - highmem_workers)
        for i, w in enumerate(workers)
    ]


def skipped_dependency_error(failed_deps: tuple[str, ...]) -> str:
    """The failure string recorded for a dependency-poisoned task."""
    return (
        "SkippedDependency: upstream task(s) failed: "
        + ", ".join(failed_deps)
    )


class ThreadedExecutor:
    """Run a task list on ``n_workers`` threads, dataflow style.

    Mirrors the paper's deployment in miniature: a shared queue, greedy
    descending-size submission order, workers pulling as they free up,
    and a task-record stream identical in shape to the simulated one.
    The last ``highmem_workers`` threads play the 2 TB high-memory
    nodes' role: only they may run ``requires_highmem`` tasks.

    ``pools`` optionally splits the workers into named pools (e.g.
    ``{"cpu": 4, "gpu": 4}``): tasks carrying a matching
    ``TaskSpec.pool`` only dispatch to workers of that pool — a hard
    constraint, for workers that really differ (the ParaFold-shaped
    CPU/GPU split).  When given, the pool sizes define the worker count.
    """

    def __init__(
        self,
        n_workers: int = 4,
        highmem_workers: int = 0,
        pools: dict[str, int] | None = None,
    ) -> None:
        if pools is None and n_workers < 1:
            raise ValueError("need at least one worker")
        self.workers = pooled_workers(pools, n_workers, highmem_workers)
        self.n_workers = len(self.workers)

    def map(
        self,
        func: Callable[[Any], Any],
        items: Iterable[tuple[str, Any, float] | TaskSpec],
        sort_descending: bool = True,
        retry_policy: RetryPolicy | None = None,
        failure_fn: Callable[[TaskSpec, WorkerInfo], str | None] | None = None,
        pass_spec: bool = False,
        stage: str = "dataflow",
        on_complete: Callable[[TaskRecord, Any], None] | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        stage_of: Callable[[TaskSpec], str] | None = None,
        stage_spans: dict[str, Any] | None = None,
        finalize_fn: Callable[[TaskSpec, dict[str, Any]], TaskSpec] | None = None,
        inject_deps: bool = False,
        preresolved: dict[str, Any] | None = None,
    ) -> ExecutionResult:
        """Apply ``func`` to items given as (key, payload, size_hint).

        Items may also be full :class:`TaskSpec` objects (to set
        ``requires_highmem``, ``pool`` or ``depends_on``).  Exceptions
        inside tasks are captured per task, not raised: a proteome run
        must survive individual OOM-style failures, as the paper's did.
        ``failure_fn`` injects placement-dependent failures before
        ``func`` runs (the testable stand-in for a real per-worker
        memory wall); with a ``retry_policy``, failed attempts respawn —
        escalated to a highmem worker on OOM-class errors — until the
        attempt budget runs out.  With ``pass_spec``, ``func`` receives
        the full :class:`TaskSpec` of the *current attempt* instead of
        just the payload — attempt-dependent behaviour (e.g. a memory
        budget that grows when a retry escalates to highmem) needs the
        live spec.

        ``stage`` labels the telemetry this run emits: every attempt
        becomes a ``task`` span (worker/lane/attempt attributes) under
        the caller's open stage span, and latency/failure/retry counts
        land on dotted ``<stage>.task.*`` metrics.  With the default
        no-op tracer the per-task cost is one branch.

        ``on_complete`` is the per-record completion callback the
        durable run state hangs off: it runs on the worker thread once
        per :class:`TaskRecord` — every attempt, including failed ones,
        dependency-skipped descendants and the end-of-run unschedulable
        drain — with the task's result (``None`` when the attempt
        failed), *before* the record is published to the shared result
        set.  A write-ahead ledger can therefore fsync the completion
        before anyone observes it.  Callback exceptions don't poison
        task accounting; they are collected and re-raised as one
        ``RuntimeError`` after the run drains, since losing durable
        state must be loud.

        ``initializer(*initargs)`` runs once before any task — the
        same hook :class:`~repro.dataflow.process.ProcessExecutor` runs
        once *per worker process*, so stage code that sets up a shared
        context (library suite, model bank) works identically on both
        backends.

        Streaming extensions (all optional, default off):

        * ``stage_of`` maps a task to its stage name so one map call
          spanning several stages still lands metrics on per-stage
          ``<stage>.task.*`` names;
        * ``stage_spans`` maps stage names to open telemetry spans —
          task spans are then recorded post-hoc with that explicit
          parent, so three interleaved stages nest task→stage correctly
          (ambient parenting would tangle them);
        * ``finalize_fn(spec, resolved)`` rewrites a task as it becomes
          ready, with the resolved results of its dependencies
          available (the highmem-routing decision that needs the
          feature result's MSA depth);
        * ``inject_deps`` wraps each dispatched payload as
          ``(payload, {dep_key: result})`` so chain tasks receive their
          predecessors' outputs;
        * ``preresolved`` seeds dependency keys already satisfied (the
          ``--resume`` path) together with their restored values.
        """
        if initializer is not None:
            initializer(*initargs)
        queue = TaskQueue()
        queue.observe_pressure = True
        resolved: dict[str, Any] = dict(preresolved or {})
        if finalize_fn is not None:
            queue.finalize = lambda spec: finalize_fn(spec, resolved)
        if preresolved:
            queue.satisfy_many(preresolved)
        submit_items(queue, items)
        if sort_descending:
            queue.sort_descending()

        cond = threading.Condition()
        records: list[TaskRecord] = []
        results: dict[str, Any] = {}
        callback_errors: list[str] = []
        in_flight = 0
        # Respawned tasks waiting out a retry backoff: (ready_at, seq,
        # task) min-heap.  Parking them here instead of sleeping on the
        # worker thread keeps every worker slot draining other tasks
        # for the whole backoff window.
        deferred: list[tuple[float, int, TaskSpec]] = []
        defer_seq = 0
        tracer = get_tracer()
        metrics = get_metrics()
        handles_for = _stage_handles(metrics, stage, stage_of)
        all_workers = self.workers
        t0 = time.perf_counter()
        trace_base = tracer.now() if tracer.enabled else 0.0

        def notify_complete(record: TaskRecord, value: Any) -> None:
            if on_complete is None:
                return
            try:
                on_complete(record, value if record.ok else None)
            except Exception as exc:  # noqa: BLE001 - surfaced after drain
                with cond:
                    callback_errors.append(
                        f"{record.key}: {type(exc).__name__}: {exc}"
                    )

        def skip_record(
            spec: TaskSpec, error: str, at: float, handles: _StageHandles
        ) -> None:
            """Record a task that never ran (poisoned or unschedulable)."""
            handles.failures.inc()
            record = TaskRecord(
                key=spec.key,
                worker_id=UNSCHEDULED_WORKER_ID,
                start=at,
                end=at,
                ok=False,
                error=error,
                attempt=spec.attempt,
            )
            notify_complete(record, None)
            with cond:
                records.append(record)

        def skip_poisoned(
            poisoned: list[tuple[TaskSpec, tuple[str, ...]]]
        ) -> None:
            at = time.perf_counter() - t0
            for spec, failed_deps in poisoned:
                handles = handles_for(spec)
                handles.skipped_dependency.inc()
                skip_record(
                    spec, skipped_dependency_error(failed_deps), at, handles
                )

        def promote_ready(now: float) -> None:
            """Move backoff-expired respawns onto the queue (holds cond)."""
            promoted = False
            while deferred and deferred[0][0] <= now:
                _, _, respawned = heapq.heappop(deferred)
                queue.submit(respawned)
                promoted = True
            if promoted:
                # A promoted task may only be eligible for *another*
                # worker (highmem escalation) — wake everyone.
                cond.notify_all()

        def run_worker(worker: WorkerInfo) -> None:
            nonlocal in_flight, defer_seq
            while True:
                with cond:
                    while True:
                        promote_ready(time.perf_counter() - t0)
                        task = queue.pop(worker)
                        if task is not None:
                            if inject_deps:
                                deps = {
                                    k: resolved[k]
                                    for k in task.depends_on
                                    if k in resolved
                                }
                            break
                        # No eligible task, nothing running that could
                        # requeue or promote one, nothing waiting out a
                        # backoff, and no queued task *any* worker could
                        # take: the run is over for everyone (tasks no
                        # worker fits — and chains blocked on them — are
                        # drained after join).
                        if (
                            in_flight == 0
                            and not deferred
                            and not queue.schedulable_for(all_workers)
                        ):
                            return
                        # Untimed unless a deferred respawn needs a
                        # wake-up at its ready time: completion/requeue
                        # notifies the condition, so idle workers never
                        # poll.
                        timeout = None
                        if deferred:
                            timeout = max(
                                deferred[0][0]
                                - (time.perf_counter() - t0),
                                0.0,
                            )
                        cond.wait(timeout)
                    in_flight += 1
                handles = handles_for(task)
                exec_task = (
                    replace(task, payload=(task.payload, deps))
                    if inject_deps
                    else task
                )
                start = time.perf_counter() - t0
                ok, error, value = True, "", None
                span_attrs = {
                    "worker": worker.worker_id,
                    "lane": worker.short_id,
                    "attempt": task.attempt,
                    "highmem": worker.highmem,
                    "stage": handles.stage,
                }
                span_cm = (
                    tracer.span("task", task.key, attrs=span_attrs)
                    if stage_spans is None
                    else None
                )
                with span_cm if span_cm is not None else _NULL_CM as span:
                    injected = (
                        failure_fn(task, worker) if failure_fn is not None else None
                    )
                    if injected is not None:
                        ok, error = False, injected
                    else:
                        try:
                            value = (
                                func(exec_task)
                                if pass_spec
                                else func(exec_task.payload)
                            )
                        except Exception as exc:  # noqa: BLE001 - per-task isolation
                            ok, error = False, f"{type(exc).__name__}: {exc}"
                    if span is not None:
                        span.set_attr("ok", ok)
                end = time.perf_counter() - t0
                if stage_spans is not None and tracer.enabled:
                    parent = stage_spans.get(handles.stage)
                    tracer.complete(
                        "task",
                        task.key,
                        trace_base + start,
                        trace_base + end,
                        attrs={**span_attrs, "ok": ok, "error": error},
                        parent_id=(
                            parent.span_id if parent is not None else None
                        ),
                        thread=worker.worker_id,
                    )
                handles.latency.observe(end - start)
                if not ok:
                    handles.failures.inc()
                if task.attempt > 1:
                    handles.retries.inc()
                record = TaskRecord(
                    key=task.key,
                    worker_id=worker.worker_id,
                    start=start,
                    end=end,
                    ok=ok,
                    error=error,
                    result=None,
                    attempt=task.attempt,
                )
                respawn = None
                if (
                    not ok
                    and retry_policy is not None
                    and retry_policy.should_retry(task.attempt)
                ):
                    respawn = retry_policy.next_task(task, error)
                    if respawn.requires_highmem and not task.requires_highmem:
                        handles.escalations.inc()
                        tracer.event(
                            f"{handles.stage}.task.oom_escalation",
                            category="dataflow",
                            attrs={"key": task.key, "attempt": task.attempt},
                        )
                notify_complete(record, value)
                poisoned: list[tuple[TaskSpec, tuple[str, ...]]] = []
                with cond:
                    records.append(record)
                    if ok:
                        results[task.key] = value
                        resolved[task.key] = value
                        queue.mark_complete(task.key, worker)
                    if respawn is not None:
                        backoff = retry_policy.backoff_for(task.attempt)
                        if backoff > 0:
                            # Defer instead of sleeping on this thread:
                            # the slot keeps draining other tasks and
                            # the run stays live via the non-empty heap.
                            defer_seq += 1
                            heapq.heappush(
                                deferred,
                                (
                                    time.perf_counter() - t0 + backoff,
                                    defer_seq,
                                    respawn,
                                ),
                            )
                        else:
                            queue.submit(respawn)
                    elif not ok:
                        # Terminal failure: poison the downstream chain
                        # (and only it) instead of stranding dependents.
                        queue.mark_failed(task.key)
                        poisoned = queue.reap_poisoned()
                    in_flight -= 1
                    cond.notify_all()
                if poisoned:
                    skip_poisoned(poisoned)

        threads = [
            threading.Thread(target=run_worker, args=(w,), daemon=True)
            for w in self.workers
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        walltime = time.perf_counter() - t0
        # Tasks no worker could take (wrong pool, highmem-only with no
        # highmem workers) are failed, not silently dropped — and their
        # dependents are poisoned with them.
        while True:
            task = queue.pop()
            if task is None:
                break
            handles = handles_for(task)
            handles.unschedulable.inc()
            skip_record(
                task,
                "NoEligibleWorker: no worker matches this task's placement "
                f"(pool={task.pool or 'any'!r}, "
                f"highmem={task.requires_highmem})",
                walltime,
                handles,
            )
            queue.mark_failed(task.key)
        skip_poisoned(queue.reap_poisoned())
        for spec, missing in queue.drain_blocked():
            handles = handles_for(spec)
            handles.skipped_dependency.inc()
            skip_record(
                spec,
                "SkippedDependency: dependency never completed: "
                + ", ".join(missing),
                walltime,
                handles,
            )
        if callback_errors:
            raise RuntimeError(
                f"on_complete callback failed for {len(callback_errors)} "
                "record(s): " + "; ".join(callback_errors[:3])
            )
        records.sort(key=lambda r: r.start)
        return ExecutionResult(
            records=records,
            results=results,
            walltime_seconds=walltime,
            workers=list(self.workers),
        )


class _NullCM:
    """No-op span context for the streaming (post-hoc span) path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CM = _NullCM()
