"""ThreadedExecutor completion callbacks and idle-wait discipline."""

from __future__ import annotations

import csv
import threading
import time

import pytest

from repro.dataflow import (
    TASK_CSV_COLUMNS,
    RetryPolicy,
    SchedulerCore,
    TaskQueue,
    ThreadedExecutor,
    load_task_csv,
    make_workers,
)
from repro.dataflow.engine import run_threaded
from repro.dataflow.reporting import format_task_row
from repro.dataflow.scheduler import TaskSpec
from repro.dataflow.simulated import UNSCHEDULED_WORKER_ID


def oom_on_first_attempt(task, worker):
    return "OutOfMemoryError: injected" if task.attempt == 1 else None


class TestOnComplete:
    def test_every_attempt_reported(self):
        """The callback sees failed attempts (value None) and retries."""
        seen = []
        lock = threading.Lock()

        def on_complete(record, value):
            with lock:
                seen.append((record.key, record.attempt, record.ok, value))

        ex = ThreadedExecutor(n_workers=2, highmem_workers=1)
        result = ex.map(
            lambda p: p * 10,
            [("a", 1, 1.0), ("b", 2, 1.0)],
            retry_policy=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
            failure_fn=oom_on_first_attempt,
            on_complete=on_complete,
        )
        assert result.results == {"a": 10, "b": 20}
        assert sorted(seen) == [
            ("a", 1, False, None),
            ("a", 2, True, 10),
            ("b", 1, False, None),
            ("b", 2, True, 20),
        ]

    def test_unschedulable_drain_reported(self):
        """Tasks no worker can take still reach the ledger callback."""
        seen = []
        ex = ThreadedExecutor(n_workers=2, highmem_workers=0)
        result = ex.map(
            lambda p: p,
            [
                TaskSpec(key="std", payload=1, size_hint=1.0),
                TaskSpec(
                    key="hm", payload=2, size_hint=1.0, requires_highmem=True
                ),
            ],
            on_complete=lambda r, v: seen.append((r.key, r.worker_id, r.ok, v)),
        )
        assert result.results == {"std": 1}
        assert ("hm", UNSCHEDULED_WORKER_ID, False, None) in seen
        assert [s for s in seen if s[0] == "std" and s[2] and s[3] == 1]

    def test_callback_failure_is_loud_after_drain(self):
        """A throwing callback surfaces as one error once the run drains."""
        completed = []

        def flaky(record, value):
            completed.append(record.key)
            if record.key == "bad":
                raise OSError("disk full")

        ex = ThreadedExecutor(n_workers=2)
        with pytest.raises(RuntimeError, match="bad: OSError: disk full"):
            ex.map(
                lambda p: p,
                [("good", 1, 1.0), ("bad", 2, 1.0), ("also-good", 3, 1.0)],
                on_complete=flaky,
            )
        # The run drained first: every task still executed and reported.
        assert sorted(completed) == ["also-good", "bad", "good"]


class TestRunThreaded:
    """``run_threaded`` over a caller-owned worker registry and queue.

    The §3.3 deployment shape without a client front end: workers are
    registered up front, the task list is sorted descending into a shared
    queue, and per-task results and statistics stream out of the core's
    completion callback as tasks finish.
    """

    def test_map_and_gather(self):
        keys = [f"k{i}" for i in range(12)]
        core = SchedulerCore(
            make_workers(n_nodes=1, workers_per_node=3),
            [(key, i, float(i)) for i, key in enumerate(keys)],
            queue=TaskQueue(),
        )
        result = run_threaded(core, lambda x: x * x)
        assert [result.results[key] for key in keys] == [i * i for i in range(12)]
        assert all(r.ok for r in result.records)

    def test_worker_registration_required(self):
        with pytest.raises(ValueError, match="at least one worker"):
            SchedulerCore([], [("k", 1, 1.0)])

    def test_failures_surface_in_futures(self):
        """A task's exception reaches its own completion, no one else's."""
        done: dict[str, tuple] = {}
        lock = threading.Lock()

        def on_complete(record, value):
            with lock:
                done[record.key] = (record.ok, value, record.error)

        def work(x):
            if x == 2:
                raise ValueError("bad input")
            return x

        core = SchedulerCore(
            make_workers(n_nodes=1, workers_per_node=3),
            [(f"k{i}", i, 1.0) for i in range(4)],
            on_complete=on_complete,
        )
        result = run_threaded(core, work)
        assert done["k1"] == (True, 1, "")
        ok, value, error = done["k2"]
        assert not ok and value is None
        assert "ValueError: bad input" in error
        assert "k2" not in result.results and result.n_failed == 1

    def test_stats_csv_streaming(self, tmp_path):
        """Rows written from the callback read back as the shared schema."""
        csv_path = tmp_path / "stats.csv"
        lock = threading.Lock()
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TASK_CSV_COLUMNS)

            def on_complete(record, value):
                with lock:
                    writer.writerow(format_task_row(record))

            core = SchedulerCore(
                make_workers(n_nodes=1, workers_per_node=3),
                [(f"k{i}", i, 1.0) for i in range(6)],
                on_complete=on_complete,
            )
            run_threaded(core, lambda x: x)
        records = load_task_csv(csv_path)
        assert sorted(r.key for r in records) == [f"k{i}" for i in range(6)]
        assert all(r.ok for r in records)


class TestIdleWait:
    def test_idle_workers_block_untimed(self, monkeypatch):
        """Idle workers must wait on the condition with no timeout.

        Regression: the worker loop used ``cond.wait(timeout=0.05)`` —
        a 20 Hz poll per idle worker.  Completion/requeue already
        notifies the condition, so an escalated straggler is picked up
        purely by notification; this pins that no wait carries a
        timeout while such a straggler resolves.
        """
        timeouts = []
        original_wait = threading.Condition.wait

        def spying_wait(self, timeout=None):
            timeouts.append(timeout)
            return original_wait(self, timeout)

        monkeypatch.setattr(threading.Condition, "wait", spying_wait)

        def slow_double(payload):
            time.sleep(0.2)
            return payload * 2

        ex = ThreadedExecutor(n_workers=2, highmem_workers=1)
        result = ex.map(
            slow_double,
            [("straggler", 21, 1.0)],
            retry_policy=RetryPolicy(
                max_attempts=2, backoff_seconds=0.0, escalate_on_oom=True
            ),
            failure_fn=oom_on_first_attempt,
        )
        # The retry escalated to the single highmem worker; the other
        # worker had nothing left and idled on the condition meanwhile.
        assert result.results == {"straggler": 42}
        assert [r.ok for r in result.records] == [False, True]
        assert result.records[-1].attempt == 2
        assert timeouts, "expected at least one idle wait"
        assert all(t is None for t in timeouts)
