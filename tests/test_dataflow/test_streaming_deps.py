"""Dependency-driven scheduling: TaskQueue edges, pools, and chains.

The streaming scheduler's substrate: tasks held until predecessors
complete, promotion/poisoning on completion/failure, pool routing to
heterogeneous workers, enqueue-time finalization, and the executor-level
chain semantics both backends must share — dependency injection, the
SkippedDependency cascade when an upstream task exhausts its retries,
and the queue-pressure metrics.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.dataflow import (
    ProcessExecutor,
    RetryPolicy,
    TaskQueue,
    ThreadedExecutor,
)
from repro.dataflow.scheduler import TaskSpec, WorkerInfo, make_workers
from repro.dataflow.simulated import UNSCHEDULED_WORKER_ID, simulate_dataflow
from repro.telemetry import MetricsRegistry, use_metrics

#: Generous wall-clock guard for the no-deadlock assertions: a hung
#: executor fails the test instead of hanging the suite.
DEADLOCK_TIMEOUT_S = 120.0


def worker(pool: str = "", highmem: bool = False) -> WorkerInfo:
    return WorkerInfo(
        worker_id=f"w-{pool or 'any'}-{highmem}",
        node_id=0,
        gpu_id=0,
        highmem=highmem,
        pool=pool,
    )


def spec(key: str, **kw) -> TaskSpec:
    return TaskSpec(key=key, payload=key, size_hint=1.0, **kw)


class TestTaskQueueDependencies:
    def test_task_held_until_dependency_completes(self):
        q = TaskQueue()
        q.submit_many([spec("a"), spec("b", depends_on=("a",))])
        assert q.pop().key == "a"
        assert q.pop() is None  # b is blocked, not schedulable
        assert q.mark_complete("a") == 1  # promotes b
        assert q.pop().key == "b"

    def test_diamond_promotes_only_when_all_edges_resolve(self):
        q = TaskQueue()
        q.submit_many(
            [
                spec("root"),
                spec("left", depends_on=("root",)),
                spec("right", depends_on=("root",)),
                spec("join", depends_on=("left", "right")),
            ]
        )
        q.pop()
        q.mark_complete("root")
        assert {q.pop().key, q.pop().key} == {"left", "right"}
        q.mark_complete("left")
        assert q.pop() is None
        q.mark_complete("right")
        assert q.pop().key == "join"

    def test_failed_dependency_poisons_all_mode_descendants(self):
        q = TaskQueue()
        q.submit_many(
            [
                spec("a"),
                spec("b", depends_on=("a",)),
                spec("c", depends_on=("b",)),
            ]
        )
        q.pop()
        q.mark_failed("a")
        poisoned = q.reap_poisoned()
        assert {s.key for s, _ in poisoned} == {"b", "c"}
        assert all(failed == ("a",) or failed == ("b",) for _, failed in poisoned)
        assert q.pop() is None

    def test_resolved_mode_runs_on_partial_failure(self):
        q = TaskQueue()
        q.submit_many(
            [
                spec("m1"),
                spec("m2"),
                spec("pick", depends_on=("m1", "m2"), dep_mode="resolved"),
            ]
        )
        q.pop(), q.pop()
        q.mark_complete("m1")
        assert q.pop() is None  # m2 still pending: not yet terminal
        q.mark_failed("m2")
        assert q.reap_poisoned() == []  # one edge survived
        assert q.pop().key == "pick"

    def test_resolved_mode_poisoned_only_when_every_edge_fails(self):
        q = TaskQueue()
        q.submit_many(
            [
                spec("m1"),
                spec("m2"),
                spec("pick", depends_on=("m1", "m2"), dep_mode="resolved"),
            ]
        )
        q.pop(), q.pop()
        q.mark_failed("m1")
        assert q.reap_poisoned() == []
        q.mark_failed("m2")
        [(poisoned, failed)] = q.reap_poisoned()
        assert poisoned.key == "pick"
        assert failed == ("m1", "m2")

    def test_satisfy_preresolves_dependencies(self):
        q = TaskQueue()
        q.satisfy("a")
        q.submit(spec("b", depends_on=("a",)))
        assert q.pop().key == "b"

    def test_drain_blocked_reports_missing_edges(self):
        q = TaskQueue()
        q.submit(spec("b", depends_on=("never",)))
        [(blocked, missing)] = q.drain_blocked()
        assert blocked.key == "b"
        assert missing == ("never",)

    def test_pool_routing(self):
        q = TaskQueue()
        q.submit_many([spec("c", pool="cpu"), spec("g", pool="gpu")])
        assert q.pop(worker("gpu")).key == "g"
        assert q.pop(worker("gpu")) is None  # cpu task never leaks to gpu
        assert q.pop(worker("cpu")).key == "c"
        q.submit(spec("c2", pool="cpu"))
        assert q.pop(worker("")).key == "c2"  # pool-less takes anything

    def test_finalize_runs_at_promotion_with_resolved_results(self):
        resolved: dict[str, object] = {}

        def finalize(task: TaskSpec) -> TaskSpec:
            if resolved.get(task.depends_on[0] if task.depends_on else None):
                return TaskSpec(
                    key=task.key,
                    payload=task.payload,
                    size_hint=task.size_hint,
                    depends_on=task.depends_on,
                    requires_highmem=True,
                )
            return task

        q = TaskQueue(finalize=finalize)
        q.submit_many([spec("a"), spec("b", depends_on=("a",))])
        q.pop()
        resolved["a"] = "big-bundle"
        q.mark_complete("a")
        assert q.pop(worker()) is None  # escalated: needs a highmem worker
        promoted = q.pop(worker(highmem=True))
        assert promoted.key == "b" and promoted.requires_highmem


# -- Executor chains (module-level functions: picklable for process) ---------
def chain_task(task_spec):
    """feature/x doubles its payload; sink/x sums its dependency + payload."""
    payload, deps = task_spec.payload
    if task_spec.key.startswith("feature/"):
        if payload == "boom":
            raise RuntimeError("injected feature failure")
        return payload * 2
    return deps[task_spec.depends_on[0]] + payload


def chain_specs(n: int = 3) -> list[TaskSpec]:
    out = []
    for i in range(n):
        out.append(TaskSpec(key=f"feature/{i}", payload=i, size_hint=1.0))
        out.append(
            TaskSpec(
                key=f"sink/{i}",
                payload=100,
                size_hint=1.0,
                depends_on=(f"feature/{i}",),
            )
        )
    return out


BACKENDS = {
    "threaded": lambda **kw: ThreadedExecutor(**kw),
    "process": lambda **kw: ProcessExecutor(**kw),
}


def run_guarded(fn):
    """Run ``fn`` under a deadlock guard; a hang fails, never blocks."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=DEADLOCK_TIMEOUT_S)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestExecutorChains:
    def test_dependency_injection_and_ordering(self, backend):
        ex = BACKENDS[backend](n_workers=2)
        seen: dict[str, int] = {}
        result = run_guarded(
            lambda: ex.map(
                chain_task,
                chain_specs(3),
                pass_spec=True,
                inject_deps=True,
                on_complete=lambda record, value: seen.update({record.key: value}),
            )
        )
        # Every value — the consumed features too — reached on_complete;
        # the results are the sinks.
        assert seen == {
            "feature/0": 0, "sink/0": 100,
            "feature/1": 2, "sink/1": 102,
            "feature/2": 4, "sink/2": 104,
        }
        assert result.results == {"sink/0": 100, "sink/1": 102, "sink/2": 104}
        end_of = {r.key: r.end for r in result.records}
        for i in range(3):
            assert end_of[f"feature/{i}"] <= end_of[f"sink/{i}"]

    def test_retry_exhausted_feature_skips_descendants(self, backend):
        """Satellite: a feature that exhausts retries poisons exactly its
        own chain with SkippedDependency records — no deadlock, and the
        other chains complete untouched."""
        specs = chain_specs(2) + [
            TaskSpec(key="feature/bad", payload="boom", size_hint=1.0),
            TaskSpec(
                key="sink/bad",
                payload=100,
                size_hint=1.0,
                depends_on=("feature/bad",),
            ),
            TaskSpec(
                key="grandchild/bad",
                payload=1,
                size_hint=1.0,
                depends_on=("sink/bad",),
            ),
        ]
        ex = BACKENDS[backend](n_workers=2)
        result = run_guarded(
            lambda: ex.map(
                chain_task,
                specs,
                pass_spec=True,
                inject_deps=True,
                retry_policy=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
            )
        )
        # Healthy chains are untouched.
        for i in range(2):
            assert result.results[f"sink/{i}"] == 100 + 2 * i
        # The bad feature really ran (and retried); its descendants never
        # did — they carry synthetic SkippedDependency records.
        bad_attempts = [r for r in result.records if r.key == "feature/bad"]
        assert len(bad_attempts) == 2 and not any(r.ok for r in bad_attempts)
        for key, upstream in (
            ("sink/bad", "feature/bad"),
            ("grandchild/bad", "sink/bad"),
        ):
            [skipped] = [r for r in result.records if r.key == key]
            assert not skipped.ok
            assert skipped.worker_id == UNSCHEDULED_WORKER_ID
            assert skipped.error.startswith("SkippedDependency")
            assert upstream in skipped.error
            assert key not in result.results

    def test_queue_pressure_metrics_observed(self, backend):
        reg = MetricsRegistry()
        ex = BACKENDS[backend](n_workers=2)
        with use_metrics(reg):
            run_guarded(
                lambda: ex.map(
                    chain_task,
                    chain_specs(3),
                    pass_spec=True,
                    inject_deps=True,
                )
            )
        snapshot = reg.snapshot()
        assert "dataflow.queue.depth" in snapshot["gauges"]
        wait = snapshot["histograms"]["dataflow.task.wait_seconds"]
        assert wait["count"] == 6  # one dispatch-wait sample per task
        assert wait["min"] >= 0.0


class TestPooledWorkers:
    def test_pools_route_tasks(self):
        workers = make_workers(1, 1, pool="cpu") + make_workers(1, 1, pool="gpu")
        specs = [
            TaskSpec(key=f"{pool}/{i}", payload=i, size_hint=1.0, pool=pool)
            for pool in ("cpu", "gpu")
            for i in range(3)
        ]
        sim = simulate_dataflow(specs, workers, lambda t: 1.0)
        assert len(sim.records) == 6 and sim.n_failed == 0
        pool_of = {w.worker_id: w.pool for w in workers}
        for r in sim.records:
            assert pool_of[r.worker_id] == r.key.partition("/")[0]

    def test_highmem_slot_lands_in_last_pool(self):
        """A high-memory node flagged in the GPU pool serves the GPU
        pool's oversized tasks, and only those."""
        workers = make_workers(2, 1, pool="cpu") + make_workers(
            2, 1, highmem_nodes=1, pool="gpu"
        )
        highmem = [w for w in workers if w.highmem]
        assert len(highmem) == 1 and highmem[0].pool == "gpu"
        specs = [
            TaskSpec(key=f"gpu/big{i}", size_hint=1.0, pool="gpu",
                     requires_highmem=True)
            for i in range(2)
        ] + [
            TaskSpec(key=f"cpu/{i}", size_hint=1.0, pool="cpu") for i in range(2)
        ]
        sim = simulate_dataflow(specs, workers, lambda t: 1.0)
        assert sim.n_failed == 0
        ran_on = {r.key: r.worker_id for r in sim.records}
        assert ran_on["gpu/big0"] == ran_on["gpu/big1"] == highmem[0].worker_id
