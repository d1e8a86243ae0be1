"""Executors, and the threaded driver of the scheduling core.

:class:`Executor` is the one ``map`` every real backend shares: it
builds a :class:`~repro.dataflow.core.SchedulerCore` from the policy
arguments and hands it to the backend's driver.  This module's driver,
:func:`run_threaded`, runs tasks as Python callables on one thread per
worker.  Threads share every object by reference and cost nothing to
start, but the science is GIL-bound: on a multi-core machine a second
thread *lowers* campaign throughput (DESIGN §11 has the numbers), so
multi-core runs belong on
:class:`~repro.dataflow.process.ProcessExecutor`.
"""

from __future__ import annotations

import os
import threading
from contextlib import nullcontext
from dataclasses import replace
from typing import Any, Callable, Iterable

from .core import ExecutionResult, SchedulerCore
from .faults import RetryPolicy
from .scheduler import TaskRecord, TaskSpec, WorkerInfo, make_workers

__all__ = [
    "ExecutionResult",
    "Executor",
    "ThreadedExecutor",
    "auto_worker_count",
    "run_threaded",
]


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


class _Doorbell:
    """The driver's condition, as the core's lock.

    Whatever the core changes under its lock — a completion published,
    a chain promoted, the last attempt in flight ending — may be what
    an idle worker waits for, so leaving the lock notifies the
    condition: publishing and waking cost one acquisition, not two.
    """

    def __init__(self, cond: threading.Condition) -> None:
        self.cond = cond

    def __enter__(self) -> None:
        self.cond.acquire()

    def __exit__(self, *exc: object) -> None:
        self.cond.notify_all()
        self.cond.release()


def run_threaded(
    core: SchedulerCore, func: Callable[[Any], Any], pass_spec: bool = False
) -> ExecutionResult:
    """Drive ``core`` with one thread per worker; return the run.

    This driver owns a :class:`threading.Condition` — the core's lock
    and the idle workers' :class:`_Doorbell` — the threads, and the ambient
    ``task`` span around ``func``.  With ``stage_spans`` the core
    records task spans post hoc under explicit parents instead: ambient
    parenting would tangle interleaved stages.
    """
    cond = threading.Condition()
    core.lock = _Doorbell(cond)
    ambient = core.stage_spans is None
    core.posthoc_spans = not ambient
    tracer = core.tracer
    now = core.start_clock()

    def run_worker(worker: WorkerInfo) -> None:
        while True:
            with cond:
                while True:
                    if core.promote(now()):
                        cond.notify_all()
                    dispatch = core.pull(worker, now())
                    if dispatch is not None:
                        break
                    if core.finished():
                        return
                    # Untimed unless a deferred respawn needs a wake-up
                    # at its ready time: completion notifies the
                    # condition, so idle workers never poll.
                    wake = core.wake_at()
                    cond.wait(None if wake is None else max(wake - now(), 0.0))
            task, exec_task, error = dispatch
            ok, value = error is None, None
            start = now()
            span_cm = (
                tracer.span("task", task.key, attrs=core.span_attrs(task, worker))
                if ambient
                else nullcontext()
            )
            with span_cm as span:
                if ok:
                    try:
                        value = (
                            func(exec_task) if pass_spec else func(exec_task.payload)
                        )
                    except Exception as exc:  # noqa: BLE001 - per-task isolation
                        ok, error = False, f"{type(exc).__name__}: {exc}"
                if span is not None:
                    span.set_attr("ok", ok)
            core.finish(task, worker, start, now(), ok, error or "", value)

    threads = [
        threading.Thread(target=run_worker, args=(w,), daemon=True)
        for w in core.workers
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return core.result(now())


class Executor:
    """A pool of workers on one machine that maps task lists, dataflow style.

    Mirrors the paper's deployment in miniature: a shared queue, greedy
    descending-size submission order, workers pulling as they free up,
    and a task-record stream identical in shape to the simulated one.
    The last ``highmem_workers`` workers play the 2 TB high-memory
    nodes' role: only they may run ``requires_highmem`` tasks.  The
    workers are pool-less — they are alike, so every one runs every
    stage (DESIGN §13).

    Subclasses supply the workers' bodies through :meth:`_drive`.
    """

    def __init__(self, n_workers: int = 4, highmem_workers: int = 0) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if not 0 <= highmem_workers <= n_workers:
            raise ValueError("highmem_workers must be in [0, n_workers]")
        self.workers = [
            replace(w, highmem=i >= n_workers - highmem_workers)
            for i, w in enumerate(make_workers(1, n_workers))
        ]
        self.n_workers = n_workers

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
        ``failure_fn`` injects placement-dependent failures against the
        chosen worker before ``func`` runs (the testable stand-in for a
        real per-worker memory wall); with a ``retry_policy``, failed
        attempts respawn — escalated to a highmem worker on OOM-class
        errors — until the attempt budget runs out.  With
        ``pass_spec``, ``func`` receives the full :class:`TaskSpec` of
        the *current attempt* instead of just the payload —
        attempt-dependent behaviour (e.g. a memory budget that grows
        when a retry escalates to highmem) needs the live spec.

        ``stage`` labels the telemetry this run emits: every attempt
        becomes a ``task`` span (worker/lane/attempt attributes) under
        the caller's open stage span, and latency/failure/retry counts
        land on dotted ``<stage>.task.*`` metrics.  With the default
        no-op tracer the per-task cost is one branch.

        ``on_complete`` is the per-record completion callback the
        durable run state hangs off: it runs in the scheduling process
        (on the worker's thread, on the threaded backend) once per
        :class:`TaskRecord` — every attempt, including failed ones,
        dependency-skipped descendants and the end-of-run unschedulable
        drain — with the task's result (``None`` when the attempt
        failed), *before* the record is published to the shared result
        set.  A write-ahead ledger can therefore fsync the completion
        before anyone observes it.  Callback exceptions don't poison
        task accounting; they are collected and re-raised as one
        ``RuntimeError`` after the run drains, since losing durable
        state must be loud.

        ``initializer(*initargs)`` runs before any task — once on the
        threaded backend, once *per worker process* on the process
        backend — so stage code that sets up a shared context (library
        suite, model bank) works identically on both.

        On the process backend a worker that dies mid-task surfaces as
        a failed attempt with a ``WorkerLost:`` error, requeued through
        the retry policy like any other failure (counted on
        ``<stage>.worker.lost``); losing *every* worker fails the
        remaining tasks loudly instead of hanging.

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
          feature result's MSA depth).  A spec whose hook raises gets a
          terminal ``FinalizeError:`` record and its dependents are
          poisoned, like any terminal failure;
        * ``inject_deps`` wraps each dispatched payload as
          ``(payload, {dep_key: result})`` so chain tasks receive their
          predecessors' outputs (retries re-inject fresh);
        * ``preresolved`` seeds dependency keys already satisfied (the
          ``--resume`` path) together with their restored values.
        """
        core = SchedulerCore(
            self.workers,
            items,
            sort_descending=sort_descending,
            retry_policy=retry_policy,
            failure_fn=failure_fn,
            stage=stage,
            on_complete=on_complete,
            stage_of=stage_of,
            stage_spans=stage_spans,
            finalize_fn=finalize_fn,
            inject_deps=inject_deps,
            preresolved=preresolved,
        )
        return self._drive(core, func, pass_spec, initializer, initargs)

    def _drive(
        self,
        core: SchedulerCore,
        func: Callable[[Any], Any],
        pass_spec: bool,
        initializer: Callable[..., None] | None,
        initargs: tuple,
    ) -> ExecutionResult:
        raise NotImplementedError


class ThreadedExecutor(Executor):
    """:class:`Executor` whose workers are threads of this process."""

    def _drive(self, core, func, pass_spec, initializer, initargs):
        if initializer is not None:
            initializer(*initargs)
        return run_threaded(core, func, pass_spec)
