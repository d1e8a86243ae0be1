"""Client/futures front-end with scheduler-file registration.

Mirrors the Dask deployment mechanics of §3.3 step by step:

1. a :class:`SchedulerService` starts and writes a JSON *scheduler
   file* describing its address;
2. workers read that file and register with the scheduler (one per
   GPU in the paper's layout);
3. the driving script creates a :class:`Client` against the same
   scheduler file, ``map``s the task list (sorted descending by size),
   receives :class:`Future` objects, and appends per-task statistics to
   a CSV as tasks complete.

Execution is the threaded driver of the shared scheduling core (the
substitute for Summit's node fabric), so the client inherits its
placement gating and failure accounting; the *protocol* — registration
file, client/scheduler separation, futures, completion callbacks — is
the paper's.
"""

from __future__ import annotations

import csv
import json
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .core import SchedulerCore
from .engine import run_threaded
from .reporting import TASK_CSV_COLUMNS, format_task_row
from .scheduler import TaskQueue, TaskRecord, TaskSpec, WorkerInfo, make_workers

__all__ = ["SchedulerService", "Future", "Client"]


class SchedulerService:
    """The scheduler process: owns the queue and the worker registry."""

    def __init__(self, scheduler_file: str | Path) -> None:
        self.scheduler_file = Path(scheduler_file)
        self.address = f"inproc://scheduler-{id(self):x}"
        self.workers: list[WorkerInfo] = []
        self.queue = TaskQueue()
        self._lock = threading.Lock()
        self.scheduler_file.write_text(
            json.dumps({"address": self.address, "type": "repro-scheduler"}),
            encoding="utf-8",
        )

    def register_worker(self, worker: WorkerInfo) -> None:
        """Workers call this after reading the scheduler file (§3.3-2)."""
        with self._lock:
            self.workers.append(worker)

    def spawn_workers(self, n_nodes: int, workers_per_node: int) -> None:
        """Convenience: start one worker per GPU across the allocation."""
        for worker in make_workers(n_nodes, workers_per_node):
            self.register_worker(worker)

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    def close(self) -> None:
        if self.scheduler_file.exists():
            self.scheduler_file.unlink()


@dataclass
class Future:
    """Handle to one submitted task."""

    key: str
    _event: threading.Event
    _result: list  # single-slot box
    _error: list

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> Any:
        if not self._event.wait(timeout):
            raise TimeoutError(f"task {self.key} not finished")
        if self._error:
            raise RuntimeError(self._error[0])
        return self._result[0]

    def exception(self) -> str | None:
        self._event.wait()
        return self._error[0] if self._error else None


class Client:
    """The driving script's connection to a scheduler (§3.3 step 3a)."""

    def __init__(self, scheduler_file: str | Path) -> None:
        path = Path(scheduler_file)
        if not path.exists():
            raise FileNotFoundError(
                f"scheduler file {path} not found — start the scheduler first"
            )
        info = json.loads(path.read_text(encoding="utf-8"))
        if info.get("type") != "repro-scheduler":
            raise ValueError(f"{path} is not a repro scheduler file")
        self.scheduler_address = info["address"]
        self._service: SchedulerService | None = None

    def connect(self, service: SchedulerService) -> "Client":
        """Bind to the in-process scheduler service (transport stand-in)."""
        if service.address != self.scheduler_address:
            raise ValueError("scheduler file does not match this service")
        self._service = service
        return self

    def map(
        self,
        func: Callable[[Any], Any],
        items: Iterable[tuple[str, Any, float]],
        sort_descending: bool = True,
        stats_csv: str | Path | None = None,
    ) -> list[Future]:
        """Submit all tasks; returns futures in submission order.

        ``stats_csv`` streams per-task statistics as they complete
        (§3.3 step 3e).  The scheduler's registered workers pull from
        its queue under the shared scheduling core; futures resolve and
        CSV rows stream from the core's completion callback.
        """
        if self._service is None:
            raise RuntimeError("client not connected; call connect() first")
        service = self._service
        if service.n_workers == 0:
            raise RuntimeError("no workers registered with the scheduler")
        futures: dict[str, Future] = {}
        specs = []
        for key, payload, size_hint in items:
            if key in futures:
                raise ValueError(f"duplicate task key {key!r}")
            futures[key] = Future(
                key=key, _event=threading.Event(), _result=[], _error=[]
            )
            specs.append(TaskSpec(key=key, payload=payload, size_hint=size_hint))

        csv_lock = threading.Lock()
        csv_fh = csv_writer = None
        if stats_csv:
            csv_fh = open(stats_csv, "w", encoding="utf-8", newline="")
            csv_writer = csv.writer(csv_fh)
            csv_writer.writerow(TASK_CSV_COLUMNS)

        def on_complete(record: TaskRecord, value: Any) -> None:
            if csv_writer is not None:
                with csv_lock:
                    csv_writer.writerow(format_task_row(record))
            future = futures[record.key]
            if record.ok:
                future._result.append(value)
            else:
                future._error.append(record.error)
            future._event.set()

        try:
            core = SchedulerCore(
                service.workers,
                specs,
                queue=service.queue,
                sort_descending=sort_descending,
                on_complete=on_complete,
            )
            self.last_run = run_threaded(core, func)
        finally:
            if csv_fh:
                csv_fh.close()
        return list(futures.values())

    @staticmethod
    def gather(futures: list[Future]) -> list[Any]:
        """Block until all futures resolve; raises on the first failure."""
        return [f.result() for f in futures]
