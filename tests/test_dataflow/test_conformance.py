"""One scheduling policy, three drivers: the conformance suite.

Each scenario is scripted once — specs, workers, injected failures —
and run through the threaded, process and simulated drivers of the
:class:`~repro.dataflow.core.SchedulerCore`.  The suite builds the core
itself and hands it to each driver's entry point (what ``map`` and
``simulate_dataflow`` wrap), so every scenario is expressible on every
driver.  All three must yield the same ``(key, attempt, ok, error
class, ran on an eligible worker)`` stream, report each record to
``on_complete`` exactly once, and — with one worker — run the attempts
in the same order on the simulated and the threaded driver.

Failures are injected through ``failure_fn`` so the simulated driver,
which runs no task function, sees exactly what the real ones do.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import pytest

from repro.dataflow import RetryPolicy, TaskSpec, WorkerInfo
from repro.dataflow.core import UNSCHEDULED_WORKER_ID, SchedulerCore
from repro.dataflow.engine import run_threaded
from repro.dataflow.process import run_processes
from repro.dataflow.simulated import run_simulated
from ..bounded import run_bounded

DRIVERS = ("threaded", "process", "simulated")


def worker(name: str, pool: str = "", highmem: bool = False) -> WorkerInfo:
    return WorkerInfo(
        worker_id=name, node_id=0, gpu_id=0, highmem=highmem, pool=pool
    )


def spec(key: str, payload: Any = 1, size: float = 1.0, **kw) -> TaskSpec:
    return TaskSpec(key=key, payload=payload, size_hint=size, **kw)


def eligible(w: WorkerInfo, task: TaskSpec) -> bool:
    if task.requires_highmem and not w.highmem:
        return False
    return not (task.pool and w.pool and task.pool != w.pool)


def add_up(task: TaskSpec):
    """The real drivers' task body: payload plus injected dependency values."""
    if isinstance(task.payload, tuple):
        payload, deps = task.payload
        return payload + sum(deps.values())
    return task.payload


@dataclass
class Scenario:
    workers: list[WorkerInfo]
    specs: list[TaskSpec]
    #: ``(key, attempt) -> error`` injected in place of running the task;
    #: attempt ``0`` matches every attempt.
    failures: dict[tuple[str, int], str] = field(default_factory=dict)
    core_kwargs: dict[str, Any] = field(default_factory=dict)
    #: The pool the one-worker differential shrinks ``workers`` to.
    solo: WorkerInfo = worker("solo", highmem=True)


@dataclass
class Outcome:
    records: list
    results: dict[str, Any]
    #: ``(key, attempt) -> dispatched worker was eligible`` per dispatch.
    placed: dict[tuple[str, int], bool]
    #: What the core still held for consumers when the run ended.
    resolved: dict[str, Any] = field(default_factory=dict)

    def order(self) -> list[tuple[str, int, bool, str]]:
        """Attempts in record order, timestamps dropped."""
        return [
            (r.key, r.attempt, r.ok, r.error.partition(":")[0])
            for r in self.records
        ]

    def stream(self) -> list[tuple[str, int, bool, str, bool | None]]:
        """The driver-independent record stream, as a sorted multiset."""
        return sorted(
            row + (self.placed.get(row[:2]),) for row in self.order()
        )


def run(
    driver: str,
    scenario: Scenario,
    on_complete: Callable | None = None,
) -> Outcome:
    placed: dict[tuple[str, int], bool] = {}
    callbacks: list[tuple[str, int, bool, Any]] = []

    def failure_fn(task: TaskSpec, w: WorkerInfo) -> str | None:
        placed[(task.key, task.attempt)] = eligible(w, task)
        return scenario.failures.get(
            (task.key, task.attempt), scenario.failures.get((task.key, 0))
        )

    def record_callback(record, value) -> None:
        callbacks.append((record.key, record.attempt, record.ok, value))
        if on_complete is not None:
            on_complete(record, value)

    core = SchedulerCore(
        scenario.workers,
        scenario.specs,
        failure_fn=failure_fn,
        on_complete=record_callback,
        **scenario.core_kwargs,
    )

    def drive() -> None:
        if driver == "threaded":
            run_threaded(core, add_up, pass_spec=True)
        elif driver == "process":
            run_processes(core, add_up, pass_spec=True)
        else:
            core.drain(run_simulated(core, lambda t: t.size_hint, 0.0))

    try:
        run_bounded([drive], timeout=60.0)
    finally:
        # Every record reached on_complete exactly once, failures with
        # no value — whichever driver, including the drains.
        assert Counter((k, a, ok) for k, a, ok, _ in callbacks) == Counter(
            (r.key, r.attempt, r.ok) for r in core.records
        )
        assert all(v is None for _, _, ok, v in callbacks if not ok)
    assert {r.key for r in core.records} == {s.key for s in scenario.specs}
    for r in core.records:
        ran = placed.get((r.key, r.attempt))
        assert (ran is None) == (r.worker_id == UNSCHEDULED_WORKER_ID)
        assert ran is not False, f"{r.key} ran on an ineligible worker"
    return Outcome(core.records, core.results, placed, core.resolved)


def std_and_highmem() -> list[WorkerInfo]:
    return [worker("std"), worker("hm", highmem=True)]


SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "plain_fifo": lambda: Scenario(
        std_and_highmem(), [spec(f"t{i}", i, size=i + 1.0) for i in range(6)]
    ),
    "oom_escalates_to_highmem": lambda: Scenario(
        std_and_highmem(),
        [spec("a"), spec("b"), spec("c")],
        failures={
            ("a", 1): "OutOfMemoryError: injected",
            ("b", 1): "OutOfMemoryError: injected",
        },
        core_kwargs={"retry_policy": RetryPolicy(max_attempts=2)},
    ),
    "retry_exhaustion_poisons_all_mode_chain": lambda: Scenario(
        std_and_highmem(),
        [
            spec("a"),
            spec("b", depends_on=("a",)),
            spec("c", depends_on=("b",)),
            spec("bystander"),
        ],
        failures={("a", 0): "RuntimeError: boom"},
        core_kwargs={"retry_policy": RetryPolicy(max_attempts=3)},
    ),
    "resolved_mode_runs_on_partial_failure": lambda: Scenario(
        std_and_highmem(),
        [
            spec("m0"),
            spec("m1"),
            spec("pick", depends_on=("m0", "m1"), dep_mode="resolved"),
            spec("f0"),
            spec("f1"),
            spec("lost", depends_on=("f0", "f1"), dep_mode="resolved"),
        ],
        failures={
            ("m1", 0): "RuntimeError: boom",
            ("f0", 0): "RuntimeError: boom",
            ("f1", 0): "RuntimeError: boom",
        },
    ),
    "unschedulable_drain_and_dependents": lambda: Scenario(
        [worker("c0", pool="cpu"), worker("c1", pool="cpu")],
        [
            spec("ok", pool="cpu"),
            spec("big", requires_highmem=True),
            spec("after_big", depends_on=("big",)),
            spec("gpu_only", pool="gpu"),
            spec("orphan", depends_on=("never_submitted",)),
        ],
        solo=worker("solo", pool="cpu"),
    ),
    "preresolved_and_inject_deps": lambda: Scenario(
        std_and_highmem(),
        [
            spec("inference/x", 1, depends_on=("feature/x",)),
            spec("relax/x", 5, depends_on=("inference/x",)),
        ],
        failures={("inference/x", 1): "RuntimeError: flaky"},
        core_kwargs={
            "preresolved": {"feature/x": 10},
            "inject_deps": True,
            "retry_policy": RetryPolicy(max_attempts=2),
        },
    ),
    # Three levels under inject_deps: root/0 feeds two mids, mid/1 two
    # leaves; mid/1's first attempt fails and its retry waits out a
    # backoff while root/0's other consumer finishes.  A seeded value
    # feeds mid/p; another is consumed by nothing.
    "inject_dag_lifetimes": lambda: Scenario(
        std_and_highmem(),
        [
            spec("root/0", 1),
            spec("root/1", 2),
            spec("mid/0", 10, size=0.2, depends_on=("root/0",)),
            spec("mid/1", 20, depends_on=("root/0", "root/1")),
            spec("mid/p", 5, depends_on=("feature/p",)),
            spec("leaf/0", 100, depends_on=("mid/0", "mid/1")),
            spec("leaf/1", 200, depends_on=("mid/1", "mid/p")),
            spec("lone", 7),
        ],
        failures={("mid/1", 1): "RuntimeError: flaky"},
        core_kwargs={
            "preresolved": {"feature/p": 1000, "unused": -1},
            "inject_deps": True,
            "retry_policy": RetryPolicy(
                max_attempts=2, backoff_seconds=0.3, backoff_factor=1.0
            ),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_same_record_stream_on_every_driver(name):
    streams = {d: run(d, SCENARIOS[name]()).stream() for d in DRIVERS}
    assert streams["threaded"] == streams["simulated"]
    assert streams["process"] == streams["simulated"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_one_worker_order_matches_between_simulated_and_threaded(name):
    """The sim-vs-real differential: same specs, same assignment order."""
    orders = {}
    for driver in ("simulated", "threaded"):
        scenario = SCENARIOS[name]()
        scenario.workers = [scenario.solo]
        orders[driver] = run(driver, scenario).order()
    assert orders["threaded"] == orders["simulated"]


@pytest.mark.parametrize("driver", DRIVERS)
class TestScenarioDetails:
    """What each scripted stream must contain, beyond agreeing."""

    def test_plain_fifo(self, driver):
        out = run(driver, SCENARIOS["plain_fifo"]())
        assert all(ok for _, _, ok, _ in out.order())
        if driver != "simulated":
            assert out.results == {f"t{i}": i for i in range(6)}

    def test_oom_escalates_to_highmem(self, driver):
        out = run(driver, SCENARIOS["oom_escalates_to_highmem"]())
        by_attempt = {(r.key, r.attempt): r for r in out.records}
        for key in ("a", "b"):
            assert by_attempt[(key, 1)].error.startswith("OutOfMemoryError")
            assert by_attempt[(key, 2)].ok
            assert by_attempt[(key, 2)].worker_id == "hm"
        assert ("c", 2) not in by_attempt

    def test_retry_exhaustion_poisons_all_mode_chain(self, driver):
        out = run(driver, SCENARIOS["retry_exhaustion_poisons_all_mode_chain"]())
        assert sorted(out.order()) == [
            ("a", 1, False, "RuntimeError"),
            ("a", 2, False, "RuntimeError"),
            ("a", 3, False, "RuntimeError"),
            ("b", 1, False, "SkippedDependency"),
            ("bystander", 1, True, ""),
            ("c", 1, False, "SkippedDependency"),
        ]

    def test_resolved_mode_runs_on_partial_failure(self, driver):
        out = run(driver, SCENARIOS["resolved_mode_runs_on_partial_failure"]())
        verdict = {key: (ok, cls) for key, _, ok, cls in out.order()}
        assert verdict["pick"] == (True, "")
        assert verdict["lost"] == (False, "SkippedDependency")

    def test_unschedulable_drain_and_dependents(self, driver):
        out = run(driver, SCENARIOS["unschedulable_drain_and_dependents"]())
        errors = {r.key: r.error for r in out.records if not r.ok}
        assert set(errors) == {"big", "after_big", "gpu_only", "orphan"}
        assert errors["big"].startswith("NoEligibleWorker")
        assert errors["gpu_only"].startswith("NoEligibleWorker")
        assert errors["after_big"].startswith("SkippedDependency: upstream")
        assert "never completed: never_submitted" in errors["orphan"]
        assert all(
            r.worker_id == UNSCHEDULED_WORKER_ID
            for r in out.records
            if not r.ok
        )

    def test_preresolved_and_inject_deps(self, driver):
        values: dict[str, Any] = {}

        def on_complete(record, value):
            if record.ok:
                values[record.key] = value

        out = run(
            driver, SCENARIOS["preresolved_and_inject_deps"](), on_complete
        )
        assert out.order() == [
            ("inference/x", 1, False, "RuntimeError"),
            ("inference/x", 2, True, ""),
            ("relax/x", 1, True, ""),
        ]
        # The consumed intermediate reached on_complete; the results are
        # the map's one sink.
        assert set(values) == {"inference/x", "relax/x"}
        assert set(out.results) == {"relax/x"}
        if driver != "simulated":
            # The seeded value rode into the chain; the retry re-injected.
            assert values == {"inference/x": 11, "relax/x": 16}
            assert out.results == {"relax/x": 16}

    def test_deferred_backoff_does_not_park_the_slot(self, driver):
        """One worker; ``slow`` backs off; the rest run in that window."""
        scenario = Scenario(
            [worker("solo")],
            [spec("slow", size=9.0)] + [spec(f"t{i}") for i in range(4)],
            failures={("slow", 1): "RuntimeError: injected"},
            core_kwargs={
                "retry_policy": RetryPolicy(
                    max_attempts=2, backoff_seconds=0.3, backoff_factor=1.0
                )
            },
        )
        out = run(driver, scenario)
        assert [row[:3] for row in out.order()] == [
            ("slow", 1, False),
            *((f"t{i}", 1, True) for i in range(4)),
            ("slow", 2, True),
        ]
        retry = out.records[-1]
        assert max(r.end for r in out.records[:-1]) <= retry.start
        assert retry.start >= out.records[0].end + 0.3

    def test_finalize_runs_at_promotion(self, driver):
        """``finalize_fn`` sees the dependency resolved and may raise
        ``requires_highmem``; a ready task is finalized at submission."""
        seen: dict[str, bool] = {}

        def finalize(task: TaskSpec, resolved: dict) -> TaskSpec:
            seen[task.key] = set(task.depends_on) <= set(resolved)
            return replace(
                task, requires_highmem=task.key.startswith("inference/")
            )

        scenario = Scenario(
            std_and_highmem(),
            [
                spec("feature/x"),
                spec("inference/x", depends_on=("feature/x",)),
                spec("relax/x", depends_on=("inference/x",)),
            ],
            core_kwargs={"finalize_fn": finalize},
        )
        out = run(driver, scenario)
        assert seen == {"feature/x": True, "inference/x": True, "relax/x": True}
        ran_on = {r.key: r.worker_id for r in out.records}
        assert ran_on["inference/x"] == "hm"
        assert all(ok for _, _, ok, _ in out.order())

    def test_raising_finalize_fails_its_task_not_the_run(self, driver):
        """A hook that raises is a terminal failure of that one spec."""

        def finalize(task: TaskSpec, resolved: dict) -> TaskSpec:
            if task.key == "b":
                raise KeyError("no depth")
            return task

        scenario = Scenario(
            std_and_highmem(),
            [
                spec("a"),
                spec("b", depends_on=("a",)),
                spec("c", depends_on=("b",)),
                spec("bystander"),
            ],
            core_kwargs={
                "finalize_fn": finalize,
                "retry_policy": RetryPolicy(max_attempts=2),
            },
        )
        out = run(driver, scenario)
        assert sorted(out.order()) == [
            ("a", 1, True, ""),
            ("b", 1, False, "FinalizeError"),
            ("bystander", 1, True, ""),
            ("c", 1, False, "SkippedDependency"),
        ]
        [failed] = [r for r in out.records if r.key == "b"]
        assert failed.error == "FinalizeError: KeyError: 'no depth'"
        assert failed.worker_id == UNSCHEDULED_WORKER_ID

    def test_callback_error_is_loud_after_the_drain(self, driver):
        """A throwing callback surfaces as one error once the run drains."""

        completed: list[str] = []

        def on_complete(record, value):
            completed.append(record.key)
            if record.key == "bad":
                raise OSError("disk full")

        scenario = Scenario(
            [worker("c0", pool="cpu"), worker("c1", pool="cpu")],
            [spec("good"), spec("bad"), spec("gpu_only", pool="gpu")],
        )
        with pytest.raises(RuntimeError, match="bad: OSError: disk full"):
            run(driver, scenario, on_complete=on_complete)
        # The run drained first: every task still ran or was failed, and
        # every record — the unschedulable one too — was reported.
        assert sorted(completed) == ["bad", "good", "gpu_only"]


class Blob:
    """A task value a weak reference can watch."""

    def __init__(self, n: int) -> None:
        self.n = n


def add_up_blobs(task: TaskSpec) -> Blob:
    payload, deps = task.payload
    return Blob(payload + sum(d.n for d in deps.values()))


@pytest.mark.parametrize("driver", DRIVERS)
class TestValueLifetime:
    """Under ``inject_deps`` a value lives until its last consumer is
    terminal: ``on_complete`` sees every value, the results are the
    map's sinks, and nothing is left held when the run ends."""

    SINKS = {"leaf/0": 134, "leaf/1": 1228, "lone": 7}
    VALUES = {
        "root/0": 1, "root/1": 2, "mid/0": 11, "mid/1": 23, "mid/p": 1005,
        **SINKS,
    }  # fmt: skip

    def test_results_are_the_sinks(self, driver):
        values: dict[str, Any] = {}

        def on_complete(record, value):
            if record.ok:
                values[record.key] = value

        out = run(driver, SCENARIOS["inject_dag_lifetimes"](), on_complete)
        assert set(out.results) == set(self.SINKS)
        assert set(values) == set(self.VALUES)
        assert out.resolved == {}
        if driver != "simulated":
            # The simulated driver runs no task function: no values.
            assert out.results == self.SINKS
            assert values == self.VALUES

    def test_deferred_retry_still_receives_its_inputs(self, driver):
        out = run(driver, SCENARIOS["inject_dag_lifetimes"]())
        attempts = [(k, a, ok) for k, a, ok, _ in out.order() if k == "mid/1"]
        assert attempts == [("mid/1", 1, False), ("mid/1", 2, True)]
        # root/0's other consumer was terminal before the retry ran.
        start = {(r.key, r.attempt): r.start for r in out.records}
        end = {(r.key, r.attempt): r.end for r in out.records}
        assert end[("mid/0", 1)] <= start[("mid/1", 2)]
        if driver != "simulated":
            # 23 = 20 + root/0 + root/1: the retry was handed both.
            assert out.results["leaf/0"] == 134


def test_consumed_values_are_freed_on_threads():
    """The intermediates are unreachable once a threaded run ends (the
    one driver whose values are the task's own objects); only the sinks
    are still alive, through ``results``."""
    scenario = SCENARIOS["inject_dag_lifetimes"]()
    failures = scenario.failures
    seeded = {"feature/p": Blob(1000), "unused": Blob(-1)}
    refs = {key: weakref.ref(value) for key, value in seeded.items()}

    def on_complete(record, value):
        if record.ok:
            refs[record.key] = weakref.ref(value)

    core = SchedulerCore(
        scenario.workers,
        scenario.specs,
        failure_fn=lambda t, w: failures.get((t.key, t.attempt)),
        on_complete=on_complete,
        **{**scenario.core_kwargs, "preresolved": seeded},
    )
    del seeded
    (result,) = run_bounded(
        [lambda: run_threaded(core, add_up_blobs, pass_spec=True)]
    )
    gc.collect()
    alive = {key for key, ref in refs.items() if ref() is not None}
    assert alive == set(TestValueLifetime.SINKS)
    assert {k: v.n for k, v in result.results.items()} == TestValueLifetime.SINKS
