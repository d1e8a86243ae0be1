"""Process-backed dataflow execution: escape the GIL.

The paper's deployment (§3) is one Dask scheduler process driving N
worker *processes* across Summit nodes; :class:`ProcessExecutor` is
that shape on one machine.  The parent owns the scheduler state — the
same :class:`~repro.dataflow.scheduler.TaskQueue` /
:class:`~repro.dataflow.scheduler.TaskRecord` /
:class:`~repro.dataflow.faults.RetryPolicy` semantics as
:class:`~repro.dataflow.engine.ThreadedExecutor` — and each worker is a
separate OS process pulling :class:`TaskSpec` messages over a duplex
pipe, so numpy kernels that hold the GIL (and everything else) scale
across cores and memory buses.

Transport: large arrays inside payloads and results move through
``multiprocessing.shared_memory`` segments (see
:mod:`repro.dataflow.shm`) instead of being pickled through the pipe;
only a small skeleton message crosses the connection.

Fault tolerance matches the threaded engine — per-attempt records,
highmem gating, OOM escalation, non-blocking backoff via a deferral
heap — plus the failure class only process isolation can survive: a
worker that *dies* (kill -9, hard crash, exitcode != 0) is detected by
the parent through pipe EOF, its in-flight task is requeued through the
retry policy, and its orphaned payload segment is reclaimed.  All
bookkeeping callbacks (``on_complete`` — the durable ledger — and the
telemetry spans/metrics derived from records) run in the parent, so
``--state-dir``/``--resume`` and the task observer work unchanged.

Workers run ``initializer(*initargs)`` once at startup before their
first task — the hook stage code uses to rehydrate a shared context
(library suite with its frozen k-mer index, model bank) exactly once
per process instead of once per task.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
from dataclasses import replace
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable, Iterable

from ..telemetry.metrics import MetricsRegistry, get_metrics, set_metrics
from ..telemetry.tracer import get_tracer, set_tracer
from .engine import (
    ExecutionResult,
    _stage_handles,
    pooled_workers,
    skipped_dependency_error,
    submit_items,
)
from .faults import RetryPolicy
from .scheduler import TaskQueue, TaskRecord, TaskSpec, WorkerInfo
from .shm import decode_payload, encode_payload, unlink_segment
from .simulated import UNSCHEDULED_WORKER_ID

__all__ = ["ProcessExecutor"]

#: Safety-net poll interval: worker death is event-driven (pipe EOF),
#: so this only bounds how stale the parent's view can get if an OS
#: swallows a wakeup.
_LIVENESS_POLL_SECONDS = 1.0


def _worker_main(
    conn: Connection,
    func: Callable[[Any], Any],
    pass_spec: bool,
    initializer: Callable[..., None] | None,
    initargs: tuple,
) -> None:
    """Worker process body: pull tasks, run, push results.

    Telemetry is re-rooted first: a forked child inherits the parent's
    registries *and their lock state*, so a fresh registry/null tracer
    both avoids inheriting a mid-acquire lock and gives per-task
    counter deltas a clean zero baseline.  Deltas ride each result
    message back; the parent merges them, which is how worker-side
    instrumentation (cache hits, Verlet rebuilds) still lands on the
    campaign's metrics.
    """
    registry = set_metrics(MetricsRegistry())
    set_tracer(None)
    if initializer is not None:
        initializer(*initargs)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent went away; nothing useful left to do
        if message[0] == "stop":
            break
        spec: TaskSpec = message[1]
        spec = replace(spec, payload=decode_payload(spec.payload))
        before = registry.counter_values()
        started = time.perf_counter()
        ok, error, value = True, "", None
        try:
            value = func(spec) if pass_spec else func(spec.payload)
        except BaseException as exc:  # noqa: BLE001 - per-task isolation
            ok, error = False, f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, Exception):
                # KeyboardInterrupt/SystemExit: report, then die so the
                # parent sees a worker loss rather than a hung pipe.
                conn.send(
                    ("done", spec.key, spec.attempt, False, error, None, {},
                     time.perf_counter() - started)
                )
                raise
        delta = registry.delta(before, registry.counter_values())
        encoded = encode_payload(value) if ok else None
        conn.send(
            (
                "done",
                spec.key,
                spec.attempt,
                ok,
                error,
                encoded,
                delta,
                time.perf_counter() - started,
            )
        )
    conn.close()


class _WorkerSlot:
    """Parent-side view of one worker process."""

    __slots__ = ("info", "process", "conn", "current", "dispatched_at",
                 "payload_segment")

    def __init__(self, info: WorkerInfo, process, conn: Connection) -> None:
        self.info = info
        self.process = process
        self.conn = conn
        self.current: TaskSpec | None = None
        self.dispatched_at = 0.0
        self.payload_segment: str | None = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ProcessExecutor:
    """Run a task list on ``n_workers`` processes, dataflow style.

    Drop-in sibling of :class:`~repro.dataflow.engine.ThreadedExecutor`
    — same constructor shape, same :meth:`map` contract, same
    :class:`ExecutionResult` — but each worker is an OS process, so CPU
    work scales past the GIL.  The last ``highmem_workers`` processes
    play the 2 TB high-memory nodes' role: only they are handed
    ``requires_highmem`` tasks.

    ``pools`` optionally splits workers into named pools (see
    :class:`~repro.dataflow.engine.ThreadedExecutor`): tasks carrying a
    matching ``TaskSpec.pool`` only dispatch to that pool's processes.

    ``start_method`` defaults to ``fork`` where available (workers
    inherit the parent's heap copy-on-write, so spawning is cheap even
    with a multi-GB library suite loaded) and falls back to ``spawn``;
    either way ``func``/``initializer``/``initargs`` must be picklable
    module-level callables — closures that work on the threaded backend
    will not cross a process boundary.
    """

    def __init__(
        self,
        n_workers: int = 4,
        highmem_workers: int = 0,
        start_method: str | None = None,
        shm_min_bytes: int | None = None,
        pools: dict[str, int] | None = None,
    ) -> None:
        if pools is None and n_workers < 1:
            raise ValueError("need at least one worker")
        self.workers = pooled_workers(pools, n_workers, highmem_workers)
        self.n_workers = len(self.workers)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
        self.shm_min_bytes = shm_min_bytes

    # -- internals -----------------------------------------------------------
    def _encode(self, payload: Any):
        if self.shm_min_bytes is None:
            return encode_payload(payload)
        return encode_payload(payload, min_bytes=self.shm_min_bytes)

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
        """Apply ``func`` to items on the worker-process pool.

        The contract is :meth:`ThreadedExecutor.map`'s — per-task
        exception isolation, injected failures via ``failure_fn``
        (evaluated parent-side against the chosen worker, before
        dispatch), retry/escalation via ``retry_policy``, per-record
        ``on_complete`` — with two process-specific additions:

        * ``initializer(*initargs)`` runs once in every worker before
          its first task;
        * a worker process that dies mid-task surfaces as a failed
          attempt with a ``WorkerLost:`` error, requeued through the
          retry policy like any other failure (counted on
          ``<stage>.worker.lost``).  Losing *every* worker fails the
          remaining tasks loudly instead of hanging.

        ``on_complete`` and the task observer always run in the parent
        process — the write-ahead ledger keeps its single-writer,
        fsync-before-publish ordering without any cross-process
        coordination.

        The streaming extensions (``stage_of``/``stage_spans``/
        ``finalize_fn``/``inject_deps``/``preresolved``) carry the
        :meth:`ThreadedExecutor.map` contract verbatim; dependency
        injection and finalization happen parent-side at dispatch, so
        worker processes see ordinary ``(payload, deps)`` payloads over
        the usual shared-memory transport.
        """
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

        records: list[TaskRecord] = []
        results: dict[str, Any] = {}
        callback_errors: list[str] = []
        deferred: list[tuple[float, int, TaskSpec]] = []
        defer_seq = 0
        tracer = get_tracer()
        metrics = get_metrics()
        handles_for = _stage_handles(metrics, stage, stage_of)
        lost_workers = metrics.counter(f"{stage}.worker.lost")

        ctx = multiprocessing.get_context(self.start_method)
        if self.start_method == "fork":
            # Start the resource tracker *before* forking: children then
            # inherit the one tracker process, so a segment registered
            # by its creator and unregistered by its consumer (always a
            # different process here) balances in a single cache instead
            # of warning at shutdown from two.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        slots: list[_WorkerSlot] = []
        for info in self.workers:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, func, pass_spec, initializer, initargs),
                daemon=True,
                name=f"repro-{stage}-{info.short_id}",
            )
            process.start()
            child_conn.close()
            slots.append(_WorkerSlot(info, process, parent_conn))
        by_conn = {slot.conn: slot for slot in slots}

        t0 = time.perf_counter()
        trace_base = tracer.now() if tracer.enabled else 0.0

        def now() -> float:
            return time.perf_counter() - t0

        def notify_complete(record: TaskRecord, value: Any) -> None:
            if on_complete is None:
                return
            try:
                on_complete(record, value if record.ok else None)
            except Exception as exc:  # noqa: BLE001 - surfaced after drain
                callback_errors.append(
                    f"{record.key}: {type(exc).__name__}: {exc}"
                )

        def skip_record(
            spec: TaskSpec, error: str, at: float, handles
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
            records.append(record)

        def skip_poisoned(
            poisoned: list[tuple[TaskSpec, tuple[str, ...]]]
        ) -> None:
            at = now()
            for spec, failed_deps in poisoned:
                handles = handles_for(spec)
                handles.skipped_dependency.inc()
                skip_record(
                    spec, skipped_dependency_error(failed_deps), at, handles
                )

        def complete(
            task: TaskSpec,
            worker: WorkerInfo,
            start: float,
            end: float,
            ok: bool,
            error: str,
            value: Any,
        ) -> None:
            """Record one finished attempt; schedule its retry if due."""
            nonlocal defer_seq
            handles = handles_for(task)
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
            if tracer.enabled:
                parent = (
                    stage_spans.get(handles.stage)
                    if stage_spans is not None
                    else None
                )
                tracer.complete(
                    "task",
                    task.key,
                    trace_base + start,
                    trace_base + end,
                    attrs={
                        "worker": worker.worker_id,
                        "lane": worker.short_id,
                        "attempt": task.attempt,
                        "highmem": worker.highmem,
                        "stage": handles.stage,
                        "ok": ok,
                        "error": error,
                    },
                    parent_id=parent.span_id if parent is not None else None,
                    thread=worker.worker_id,
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
            records.append(record)
            if ok:
                results[task.key] = value
                resolved[task.key] = value
                queue.mark_complete(task.key, worker)
            if respawn is not None:
                backoff = retry_policy.backoff_for(task.attempt)
                if backoff > 0:
                    defer_seq += 1
                    heapq.heappush(
                        deferred, (now() + backoff, defer_seq, respawn)
                    )
                else:
                    queue.submit(respawn)
            elif not ok:
                # Terminal failure: poison the downstream chain (and
                # only it) — dependents become SkippedDependency
                # records instead of stranding in the blocked set.
                queue.mark_failed(task.key)
                skip_poisoned(queue.reap_poisoned())

        def handle_worker_loss(slot: _WorkerSlot) -> None:
            """A worker died: reclaim its segment, requeue its task."""
            slot.process.join(timeout=0.5)
            exitcode = slot.process.exitcode
            try:
                slot.conn.close()
            except OSError:
                pass
            del by_conn[slot.conn]
            task = slot.current
            slot.current = None
            unlink_segment(slot.payload_segment)
            slot.payload_segment = None
            slot.process = None  # marks the slot dead
            if task is None:
                return
            lost_workers.inc()
            tracer.event(
                f"{stage}.worker.lost",
                category="dataflow",
                attrs={
                    "worker": slot.info.worker_id,
                    "key": task.key,
                    "exitcode": exitcode,
                },
            )
            complete(
                task,
                slot.info,
                slot.dispatched_at,
                now(),
                ok=False,
                error=(
                    f"WorkerLost: worker process {slot.info.short_id} "
                    f"exited with code {exitcode} mid-task"
                ),
                value=None,
            )

        try:
            while True:
                t = now()
                while deferred and deferred[0][0] <= t:
                    _, _, respawned = heapq.heappop(deferred)
                    queue.submit(respawned)
                # Dispatch to every idle live worker (injected failures
                # complete synchronously, freeing the slot for the next
                # eligible task in the same pass).
                progressed = True
                while progressed:
                    progressed = False
                    for slot in slots:
                        if not slot.alive or slot.current is not None:
                            continue
                        task = queue.pop(slot.info)
                        if task is None:
                            continue
                        progressed = True
                        injected = (
                            failure_fn(task, slot.info)
                            if failure_fn is not None
                            else None
                        )
                        if injected is not None:
                            t = now()
                            complete(
                                task, slot.info, t, t,
                                ok=False, error=injected, value=None,
                            )
                            continue
                        payload = task.payload
                        if inject_deps:
                            # Predecessor results ride the payload as
                            # ``(payload, {dep_key: result})`` — the
                            # spec kept on ``slot.current`` stays the
                            # original so retries re-inject fresh.
                            payload = (
                                payload,
                                {
                                    k: resolved[k]
                                    for k in task.depends_on
                                    if k in resolved
                                },
                            )
                        encoded = self._encode(payload)
                        try:
                            slot.conn.send(
                                ("task", replace(
                                    task, payload=encoded, func=None
                                ))
                            )
                        except (BrokenPipeError, OSError):
                            slot.current = task
                            slot.payload_segment = encoded.segment
                            slot.dispatched_at = now()
                            handle_worker_loss(slot)
                            continue
                        slot.current = task
                        slot.payload_segment = encoded.segment
                        slot.dispatched_at = now()
                # "Active" = not yet collected by handle_worker_loss.
                # Deliberately NOT is_alive(): a worker killed mid-task
                # must stay in ``busy`` until its pipe EOF is consumed,
                # or the loop could break with its task still in flight.
                active = [s for s in slots if s.process is not None]
                busy = [s for s in active if s.current is not None]
                if not busy and not deferred:
                    # Nothing running, nothing waiting out a backoff and
                    # the dispatch pass found nothing eligible: only
                    # unschedulable tasks (or none) remain.
                    break
                if not active:
                    break
                timeout = _LIVENESS_POLL_SECONDS
                if deferred:
                    timeout = min(timeout, max(deferred[0][0] - now(), 0.0))
                ready = connection_wait(
                    [s.conn for s in active], timeout=timeout
                )
                for conn in ready:
                    slot = by_conn.get(conn)
                    if slot is None:
                        continue
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        handle_worker_loss(slot)
                        continue
                    if message[0] != "done":  # pragma: no cover - protocol
                        continue
                    (_, key, attempt, ok, error, encoded_value, delta,
                     _worker_seconds) = message
                    task = slot.current
                    slot.current = None
                    slot.payload_segment = None
                    if task is None or task.key != key:  # pragma: no cover
                        continue
                    value = (
                        decode_payload(encoded_value) if ok else None
                    )
                    for name, moved in (delta or {}).items():
                        if moved:
                            metrics.counter(name).inc(moved)
                    complete(
                        task, slot.info, slot.dispatched_at, now(),
                        ok=ok, error=error, value=value,
                    )
        finally:
            for slot in slots:
                if not slot.alive:
                    continue
                try:
                    slot.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for slot in slots:
                if slot.process is None:
                    continue
                slot.process.join(timeout=5.0)
                if slot.process.is_alive():  # pragma: no cover - hung worker
                    slot.process.terminate()
                    slot.process.join(timeout=1.0)
                try:
                    slot.conn.close()
                except OSError:
                    pass

        walltime = now()
        # Drain: tasks no surviving worker could take — wrong pool,
        # highmem-only without a live highmem worker, or anything left
        # after every worker process died — are failed, not silently
        # dropped, and their dependents are poisoned with them.
        leftovers = [task for _, _, task in sorted(deferred)]
        while True:
            task = queue.pop()
            if task is None:
                break
            leftovers.append(task)
        any_alive = any(s.process is not None for s in slots)
        for task in leftovers:
            handles = handles_for(task)
            handles.unschedulable.inc()
            error = (
                "NoEligibleWorker: no worker matches this task's placement "
                f"(pool={task.pool or 'any'!r}, "
                f"highmem={task.requires_highmem})"
                if any_alive
                else "WorkerLost: no live worker processes remain"
            )
            skip_record(task, error, walltime, handles)
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
