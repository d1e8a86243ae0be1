"""Dataflow substrate: Dask-like queue, one scheduling core, three drivers, reporting."""

from .bubbles import bubble_seconds
from .core import ExecutionResult, SchedulerCore
from .engine import ThreadedExecutor
from .process import EncodedPayload, ProcessExecutor, decode_payload, encode_payload
from .faults import (
    FaultInjector,
    RetryPolicy,
    is_oom_error,
    straggler_duration_fn,
)
from .reporting import (
    TASK_CSV_COLUMNS,
    GanttLane,
    extract_gantt,
    load_task_csv,
    lost_keys,
    render_ascii_gantt,
    summarize_records,
    write_task_csv,
)
from .scheduler import TaskQueue, TaskRecord, TaskSpec, WorkerInfo, make_workers
from .simulated import SimulationResult, simulate_dataflow

__all__ = [
    "ExecutionResult",
    "SchedulerCore",
    "ThreadedExecutor",
    "ProcessExecutor",
    "bubble_seconds",
    "EncodedPayload",
    "encode_payload",
    "decode_payload",
    "FaultInjector",
    "RetryPolicy",
    "is_oom_error",
    "straggler_duration_fn",
    "GanttLane",
    "TASK_CSV_COLUMNS",
    "extract_gantt",
    "load_task_csv",
    "lost_keys",
    "render_ascii_gantt",
    "summarize_records",
    "write_task_csv",
    "TaskQueue",
    "TaskRecord",
    "TaskSpec",
    "WorkerInfo",
    "make_workers",
    "SimulationResult",
    "simulate_dataflow",
]
