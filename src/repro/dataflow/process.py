"""Process-backed dataflow execution: escape the GIL.

The paper's deployment (§3) is one Dask scheduler process driving N
worker *processes* across Summit nodes; :func:`run_processes` is that
shape on one machine.  The parent drives the
:class:`~repro.dataflow.core.SchedulerCore` and each worker is a
separate OS process pulling :class:`TaskSpec` messages over a duplex
pipe, so numpy kernels that hold the GIL (and everything else) scale
across cores and memory buses.

Transport: one pickle each way through the pipe — the task (payload
included) out, the result back — as the paper's Dask workers move
features and predictions (§3.3).  :func:`encode_payload` /
:func:`decode_payload` wrap both send points and pass the value through
untouched, so a run leaves nothing behind outside its own processes.

This driver adds the failure class only process isolation can survive:
a worker that *dies* (kill -9, hard crash, exitcode != 0) is detected
by the parent through pipe EOF and its in-flight task is requeued
through the retry policy.  The core runs in the parent, so all
bookkeeping callbacks (``on_complete`` — the durable ledger — and the
telemetry spans/metrics derived from records) do too, and
``--state-dir``/``--resume`` and the task observer work unchanged.

Workers run ``initializer(*initargs)`` once at startup before their
first task — the hook stage code uses to rehydrate a shared context
(library suite with its frozen k-mer index, model bank) exactly once
per process instead of once per task.

Workers run BLAS on one thread.  A forked worker inherits OpenBLAS pools
sized to the whole machine, so N workers would each start one BLAS
thread per core and oversubscribe it; the pool size is read when the
library loads, so an environment variable set later does nothing.  The
worker therefore resizes every loaded OpenBLAS pool through the
library's own entry point before its initializer runs.
"""

from __future__ import annotations

import ctypes
import multiprocessing
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable

from ..telemetry.metrics import MetricsRegistry, get_metrics, set_metrics
from ..telemetry.tracer import set_tracer
from .core import ExecutionResult, SchedulerCore
from .engine import Executor
from .scheduler import TaskSpec, WorkerInfo

__all__ = [
    "EncodedPayload",
    "ProcessExecutor",
    "decode_payload",
    "encode_payload",
    "openblas_threads",
    "run_processes",
]

#: Safety-net poll interval: worker death is event-driven (pipe EOF),
#: so this only bounds how stale the parent's view can get if an OS
#: swallows a wakeup.
_LIVENESS_POLL_SECONDS = 1.0

#: ``fork`` where available — workers inherit the parent's heap
#: copy-on-write, so spawning is cheap even with a multi-GB library
#: suite loaded — else ``spawn``.
DEFAULT_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


@dataclass(frozen=True)
class EncodedPayload:
    """One message body as it crosses the pipe.

    ``skeleton`` is the value itself; ``segment`` is always ``None`` and
    ``nbytes`` always 0 — nothing travels beside the pipe.
    """

    skeleton: Any
    segment: None = None
    nbytes: int = 0


def encode_payload(obj: Any) -> EncodedPayload:
    """Wrap ``obj`` for the pipe; the pickle of the send does the work."""
    return EncodedPayload(skeleton=obj)


def decode_payload(payload: EncodedPayload) -> Any:
    """The value :func:`encode_payload` wrapped."""
    return payload.skeleton


#: ``{}_num_threads`` entry points of the OpenBLAS builds numpy and
#: scipy wheels ship: numpy >= 2 (``scipy_openblas64_``), scipy
#: (``scipy_openblas``), and older numpy wheels (``openblas64_``).
_OPENBLAS_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


def _openblas_pools() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """``(get, set)`` thread-count functions of every OpenBLAS library
    this process has loaded; empty where none is found (or ``/proc`` is
    absent)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {
                line.split(maxsplit=5)[5].strip()
                for line in maps
                if "openblas" in line
            }
    except OSError:
        return []
    pools = []
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for template in _OPENBLAS_SYMBOLS:
            try:
                get = getattr(library, template.format("get"))
                set_ = getattr(library, template.format("set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            pools.append((get, set_))
            break
    return pools


def openblas_threads() -> list[int]:
    """Thread count of every OpenBLAS pool loaded in this process."""
    return [get() for get, _set in _openblas_pools()]


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
    campaign's metrics.  Then BLAS is pinned to one thread (see the
    module docstring) before the initializer runs.
    """
    registry = set_metrics(MetricsRegistry())
    set_tracer(None)
    for _get, set_threads in _openblas_pools():
        set_threads(1)
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
        ok, error, value, fatal = True, "", None, None
        try:
            value = func(spec) if pass_spec else func(spec.payload)
        except BaseException as exc:  # noqa: BLE001 - per-task isolation
            ok, error = False, f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, Exception):
                # KeyboardInterrupt/SystemExit: report, then die so the
                # parent sees a worker loss rather than a hung pipe.
                fatal = exc
        delta = registry.delta(before, registry.counter_values())
        encoded = encode_payload(value) if ok else None
        conn.send(("done", spec.key, ok, error, encoded, delta))
        if fatal is not None:
            raise fatal
    conn.close()


class _WorkerSlot:
    """Parent-side view of one worker process."""

    __slots__ = ("info", "process", "conn", "current", "dispatched_at")

    def __init__(self, info: WorkerInfo, process, conn: Connection) -> None:
        self.info = info
        self.process = process
        self.conn = conn
        self.current: TaskSpec | None = None
        self.dispatched_at = 0.0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


def run_processes(
    core: SchedulerCore,
    func: Callable[[Any], Any],
    pass_spec: bool = False,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    start_method: str = DEFAULT_START_METHOD,
) -> ExecutionResult:
    """Drive ``core`` with one OS process per worker; return the run.

    This driver owns the worker processes and their pipes (one pickle
    each way per task), worker-loss detection and process shutdown.
    ``func``/``initializer``/``initargs`` must be picklable
    module-level callables — closures that work on the threaded driver
    will not cross a process boundary.
    """
    metrics = get_metrics()
    stage = core.stage
    lost_workers = metrics.counter(f"{stage}.worker.lost")

    ctx = multiprocessing.get_context(start_method)
    slots: list[_WorkerSlot] = []
    for info in core.workers:
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
    now = core.start_clock()

    def handle_worker_loss(slot: _WorkerSlot) -> None:
        """A worker died: requeue its task."""
        slot.process.join(timeout=0.5)
        exitcode = slot.process.exitcode
        try:
            slot.conn.close()
        except OSError:
            pass
        del by_conn[slot.conn]
        task = slot.current
        slot.current = None
        slot.process = None  # marks the slot dead
        core.worker_lost(slot.info)
        if task is None:
            return
        lost_workers.inc()
        core.tracer.event(
            f"{stage}.worker.lost",
            category="dataflow",
            attrs={
                "worker": slot.info.worker_id,
                "key": task.key,
                "exitcode": exitcode,
            },
        )
        core.finish(
            task,
            slot.info,
            slot.dispatched_at,
            now(),
            ok=False,
            error=(
                f"WorkerLost: worker process {slot.info.short_id} "
                f"exited with code {exitcode} mid-task"
            ),
        )

    try:
        while True:
            core.promote(now())
            # Dispatch to every idle live worker (injected failures
            # complete synchronously, freeing the slot for the next
            # eligible task in the same pass).
            progressed = True
            while progressed:
                progressed = False
                for slot in slots:
                    if not slot.alive or slot.current is not None:
                        continue
                    dispatch = core.pull(slot.info, now())
                    if dispatch is None:
                        continue
                    progressed = True
                    task, exec_task, injected = dispatch
                    if injected is not None:
                        t = now()
                        core.finish(
                            task, slot.info, t, t, ok=False, error=injected
                        )
                        continue
                    encoded = encode_payload(exec_task.payload)
                    slot.current = task
                    slot.dispatched_at = now()
                    try:
                        slot.conn.send(
                            ("task", replace(exec_task, payload=encoded))
                        )
                    except (BrokenPipeError, OSError):
                        handle_worker_loss(slot)
            # A worker killed mid-task stays live to the core until its
            # pipe EOF is consumed below, so the run cannot end with its
            # task still in flight.
            if core.finished():
                break
            wake = core.wake_at()
            timeout = _LIVENESS_POLL_SECONDS
            if wake is not None:
                timeout = min(timeout, max(wake - now(), 0.0))
            ready = connection_wait(list(by_conn), timeout=timeout)
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
                _, key, ok, error, encoded_value, delta = message
                task = slot.current
                slot.current = None
                if task is None or task.key != key:  # pragma: no cover
                    continue
                value = decode_payload(encoded_value) if ok else None
                for name, moved in delta.items():
                    metrics.counter(name).inc(moved)
                core.finish(
                    task, slot.info, slot.dispatched_at, now(), ok, error, value
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
    return core.result(now())


class ProcessExecutor(Executor):
    """:class:`~repro.dataflow.engine.Executor` whose workers are processes.

    Drop-in sibling of :class:`~repro.dataflow.engine.ThreadedExecutor`
    — same :meth:`map`, same :class:`ExecutionResult` — but each worker
    is an OS process, so CPU work scales past the GIL.
    ``start_method`` defaults to :data:`DEFAULT_START_METHOD`; either
    way ``func``/``initializer``/``initargs`` must be picklable
    module-level callables.
    """

    def __init__(
        self,
        n_workers: int = 4,
        highmem_workers: int = 0,
        start_method: str | None = None,
    ) -> None:
        super().__init__(n_workers, highmem_workers)
        self.start_method = start_method or DEFAULT_START_METHOD

    def _drive(self, core, func, pass_spec, initializer, initargs):
        return run_processes(
            core, func, pass_spec, initializer, initargs, self.start_method
        )
