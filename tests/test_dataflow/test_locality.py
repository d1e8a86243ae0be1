"""Locality-aware, work-conserving dispatch: local lanes and stealing.

``TaskQueue.pop`` serves a worker from its own local lanes (tasks whose
inputs it produced), then the shared FIFO lanes, then — rather than
idle — from a peer's local lane.  Covered here:

* the queue-level rules and the bookkeeping that must see local lanes;
* invariance: maps without ``depends_on`` and hard-pooled workers
  dispatch exactly as the plain FIFO did (checked against a reference
  FIFO queue, and against numbers pinned at the commit before local
  lanes existed);
* a property over random DAGs, layouts and completion interleavings;
* worker loss: a killed process's local lane stays stealable.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    feature_task_seconds,
    inference_task_seconds,
    relax_task_seconds,
)
from repro.core import streaming
from repro.core.scheduling import order_tasks
from repro.dataflow import (
    ProcessExecutor,
    RetryPolicy,
    TaskQueue,
    ThreadedExecutor,
    make_workers,
    simulate_dataflow,
)
from repro.dataflow import simulated
from repro.dataflow.bubbles import bubble_seconds
from repro.dataflow.scheduler import TaskSpec, WorkerInfo
from repro.fold.model import MODEL_NAMES
from repro.telemetry import MetricsRegistry, use_metrics


def worker(name: str, pool: str = "", highmem: bool = False) -> WorkerInfo:
    return WorkerInfo(
        worker_id=name, node_id=0, gpu_id=0, highmem=highmem, pool=pool
    )


def spec(key: str, **kw) -> TaskSpec:
    return TaskSpec(key=key, payload=key, size_hint=1.0, **kw)


def chain(rid: str, n_mid: int = 2, **kw) -> list[TaskSpec]:
    """``root/<rid>`` → ``mid/<rid>/i`` × n → ``leaf/<rid>``."""
    mids = [f"mid/{rid}/{i}" for i in range(n_mid)]
    return (
        [spec(f"root/{rid}", **kw)]
        + [spec(m, depends_on=(f"root/{rid}",), **kw) for m in mids]
        + [spec(f"leaf/{rid}", depends_on=tuple(mids), **kw)]
    )


def eligible(w: WorkerInfo, task: TaskSpec) -> bool:
    if task.requires_highmem and not w.highmem:
        return False
    return not (task.pool and w.pool and task.pool != w.pool)


class TestLocalLanes:
    def test_worker_walks_its_chain_depth_first(self):
        a, b = worker("a"), worker("b")
        q = TaskQueue()
        q.submit_many(chain("x") + chain("y") + chain("z"))
        assert q.pop(a).key == "root/x"
        assert q.pop(b).key == "root/y"
        q.mark_complete("root/x", a)
        # a's promoted tasks beat the older shared root/z — for a only.
        assert q.pop(a).key == "mid/x/0"
        q.mark_complete("mid/x/0", a)
        assert q.pop(a).key == "mid/x/1"
        q.mark_complete("mid/x/1", a)
        assert q.pop(a).key == "leaf/x"
        assert q.pop(a).key == "root/z"
        assert q.pop(a) is None

    def test_peer_takes_shared_before_stealing(self):
        a, b = worker("a"), worker("b")
        q = TaskQueue()
        q.submit_many(chain("x") + [spec("solo")])
        q.pop(a)
        q.mark_complete("root/x", a)
        assert q.pop(b).key == "solo"  # shared first
        assert q.pop(b).key == "mid/x/0"  # then the oldest of a's lane
        assert q.pop(a).key == "mid/x/1"

    def test_join_follows_the_most_recent_eligible_producer(self):
        a, b = worker("a"), worker("b")
        q = TaskQueue()
        q.submit_many(chain("x") + [spec("solo")])
        q.pop(a)
        q.mark_complete("root/x", a)
        q.pop(a), q.pop(b), q.pop(b)  # a: mid0; b: solo, then steals mid1
        q.mark_complete("mid/x/0", a)
        q.mark_complete("mid/x/1", b)
        q.submit(spec("late"))
        # leaf/x sits in b's lane: a is offered shared work first.
        assert q.pop(a).key == "late"
        assert q.pop(b).key == "leaf/x"

    def test_ineligible_producer_means_shared_lane(self):
        cpu, gpu = worker("c", pool="cpu"), worker("g", pool="gpu")
        q = TaskQueue()
        q.submit_many(
            [
                spec("f", pool="cpu"),
                spec("i", pool="gpu", depends_on=("f",)),
            ]
        )
        reg = MetricsRegistry()
        with use_metrics(reg):
            q.pop(cpu)
            q.mark_complete("f", cpu)
            assert q.pop(cpu) is None  # pools stay a hard constraint
            assert q.pop(gpu).key == "i"
        counters = reg.counter_values("dataflow.dispatch.")
        assert counters["dataflow.dispatch.local"] == 0
        assert counters["dataflow.dispatch.stolen"] == 0

    def test_highmem_reroute_leaves_the_producer(self):
        std, big = worker("s"), worker("h", highmem=True)
        q = TaskQueue()
        q.finalize = lambda t: (
            replace(t, requires_highmem=True) if t.key == "i" else t
        )
        q.submit_many([spec("f"), spec("i", depends_on=("f",))])
        q.pop(std)
        q.mark_complete("f", std)
        assert q.pop(std) is None
        task = q.pop(big)
        assert task.key == "i" and task.requires_highmem
        q.mark_complete("i", big)

    def test_respawn_returns_to_the_producers_lane(self):
        a, b = worker("a"), worker("b")
        q = TaskQueue()
        q.submit_many(chain("x", n_mid=1) + [spec("solo")])
        q.pop(a)
        q.mark_complete("root/x", a)
        failed = q.pop(a)
        q.submit(replace(failed, attempt=2))
        assert q.pop(b).key == "solo"
        retry = q.pop(a)
        assert (retry.key, retry.attempt) == ("mid/x/0", 2)

    def test_dispatch_counters(self):
        a, b = worker("a"), worker("b")
        q = TaskQueue()
        q.submit_many(chain("x"))
        reg = MetricsRegistry()
        with use_metrics(reg):
            q.pop(a)
            q.mark_complete("root/x", a)
            q.pop(a)
            q.pop(b)
        counters = reg.counter_values("dataflow.dispatch.")
        assert counters["dataflow.dispatch.standard"] == 3
        assert counters["dataflow.dispatch.local"] == 1
        assert counters["dataflow.dispatch.stolen"] == 1


class TestBookkeepingSeesLocalLanes:
    def _queue_with_local_tasks(self):
        a = worker("a")
        q = TaskQueue()
        q.submit_many(
            [spec("root")]
            + [
                TaskSpec(key=f"kid{i}", size_hint=float(i), depends_on=("root",))
                for i in range(4)
            ]
            + [TaskSpec(key="solo", size_hint=2.5)]
        )
        q.pop(a)
        q.mark_complete("root", a)
        return q, a

    def test_len_tasks_and_truthiness(self):
        q, _ = self._queue_with_local_tasks()
        assert len(q) == 5 and q
        assert [t.key for t in q.tasks] == [
            "solo", "kid0", "kid1", "kid2", "kid3",
        ]

    def test_sort_descending_keeps_owners(self):
        q, a = self._queue_with_local_tasks()
        q.sort_descending()
        assert [t.key for t in q.tasks] == [
            "kid3", "solo", "kid2", "kid1", "kid0",
        ]
        # Still a's local lane: a is served its own kids before solo.
        assert [q.pop(a).key for _ in range(5)] == [
            "kid3", "kid2", "kid1", "kid0", "solo",
        ]

    def test_shuffle_keeps_owners(self):
        """Children submitted in a random order still land in the local
        lane of the worker that completed their parent."""
        a = worker("a")
        rest = order_tasks(
            [
                TaskSpec(key=f"kid{i}", size_hint=float(i), depends_on=("root",))
                for i in range(4)
            ]
            + [TaskSpec(key="solo", size_hint=2.5)],
            "random",
            np.random.default_rng(0),
        )
        q = TaskQueue()
        q.submit_many([spec("root")] + rest)
        assert q.pop(a).key == "root"
        q.mark_complete("root", a)
        assert sorted(t.key for t in q.tasks) == [
            "kid0", "kid1", "kid2", "kid3", "solo",
        ]
        popped = [q.pop(a).key for _ in range(5)]
        assert popped[-1] == "solo"

    def test_schedulable_for_counts_a_peers_local_lane(self):
        q, _ = self._queue_with_local_tasks()
        b = worker("b")
        assert q.pop(b).key == "solo"
        # Only a's local lane is left; b may steal it, so b must not exit.
        assert q.schedulable_for([b])
        pooled = TaskQueue()
        pooled.submit_many(
            [spec("f", pool="cpu"), spec("k", pool="cpu", depends_on=("f",))]
        )
        cpu = worker("c", pool="cpu")
        pooled.pop(cpu)
        pooled.mark_complete("f", cpu)
        assert not pooled.schedulable_for([worker("g", pool="gpu")])

    def test_end_of_run_drain_reaches_local_lanes(self):
        q, _ = self._queue_with_local_tasks()
        drained = []
        while (task := q.pop()) is not None:
            drained.append(task.key)
        assert drained == ["solo", "kid0", "kid1", "kid2", "kid3"]
        assert len(q) == 0 and not q


# -- (a) invariance ----------------------------------------------------------
class FifoQueue(TaskQueue):
    """The queue before local lanes: every ready task is shared FIFO."""

    def _home_of(self, task: TaskSpec) -> str:
        return ""


class _Target(NamedTuple):
    record_id: str
    length: int


def fig2_campaign(n_targets: int = 48):
    """The ``bench_streaming`` Fig-2 campaign at test size."""
    rng = np.random.default_rng(2022)
    lengths = np.clip(
        np.round(rng.lognormal(5.72, 0.62, size=n_targets)), 25, 2500
    ).astype(int)
    targets = [_Target(f"t{i:03d}", int(n)) for i, n in enumerate(lengths)]
    durations: dict[str, float] = {}
    for t in targets:
        durations[f"feature/{t.record_id}"] = feature_task_seconds(
            t.length, dataset_fraction=0.2
        )
        for name in MODEL_NAMES:
            durations[f"inference/{t.record_id}/{name}"] = (
                inference_task_seconds(t.length, int(rng.integers(3, 13)))
            )
        durations[f"relax/{t.record_id}"] = relax_task_seconds(
            8 * t.length, 1, device="gpu"
        )
    specs = streaming.build_campaign_specs(targets)
    return specs, durations


def record_rows(sim):
    return [
        (r.key, r.worker_id, r.start, r.end, r.ok, r.attempt)
        for r in sim.records
    ]


class TestFifoInvariance:
    def test_pooled_streaming_campaign_matches_fifo(self, monkeypatch):
        specs, durations = fig2_campaign()
        workers = make_workers(1, 2, pool="cpu") + make_workers(
            2, 2, highmem_nodes=1, pool="gpu"
        )
        specs = [
            replace(s, requires_highmem=True)
            if s.key.startswith("inference/t007/")
            else s
            for s in specs
        ]
        now = streaming.simulate_streaming_campaign(specs, workers, durations)
        monkeypatch.setattr(simulated, "TaskQueue", FifoQueue)
        ref = streaming.simulate_streaming_campaign(specs, workers, durations)
        assert record_rows(now) == record_rows(ref)
        assert len(now.records) == len(specs) and now.n_failed == 0

    def test_maps_without_dependencies_match_fifo(self, monkeypatch):
        rng = np.random.default_rng(5)
        tasks = [
            TaskSpec(
                key=f"t{i}",
                size_hint=float(rng.integers(1, 400)),
                requires_highmem=bool(i % 11 == 0),
            )
            for i in range(200)
        ]
        workers = make_workers(3, 4, highmem_nodes=1)
        shuffled = order_tasks(tasks, "random", np.random.default_rng(9))
        runs = {}
        for label, queue_cls in (("now", TaskQueue), ("ref", FifoQueue)):
            monkeypatch.setattr(simulated, "TaskQueue", queue_cls)
            runs[label] = (
                simulate_dataflow(tasks, workers, lambda t: t.size_hint),
                simulate_dataflow(
                    shuffled, workers, lambda t: t.size_hint, sort_descending=False
                ),
            )
        for now, ref in zip(runs["now"], runs["ref"]):
            assert record_rows(now) == record_rows(ref)

    def test_pinned_numbers(self):
        """Exact values taken at the commit before local lanes existed."""
        specs, durations = fig2_campaign()
        cpu, gpu = make_workers(1, 2, pool="cpu"), make_workers(1, 4, pool="gpu")
        sim = streaming.simulate_streaming_campaign(specs, cpu + gpu, durations)
        assert sim.makespan_seconds == PINNED["streaming_makespan"]
        assert (
            streaming.time_to_first_structure_seconds(
                sim.records, startup=sim.startup_seconds
            )
            == PINNED["streaming_ttfs"]
        )
        assert (
            bubble_seconds(sim.records, sim.workers, specs)
            == PINNED["streaming_bubble"]
        )
        # The barrier schedule's stage maps carry no dependencies.
        pool_of = {"feature": cpu, "inference": gpu, "relax": cpu}
        stage_sims = [
            (
                stage,
                simulate_dataflow(
                    [
                        TaskSpec(
                            key=s.key.partition("/")[2], size_hint=s.size_hint
                        )
                        for s in specs
                        if streaming.stage_of(s) == stage
                    ],
                    pool_of[stage],
                    lambda t, stage=stage: durations[f"{stage}/{t.key}"],
                ),
            )
            for stage in streaming.STREAM_STAGES
        ]
        assert [
            s.makespan_seconds for _, s in stage_sims
        ] == PINNED["barrier_stage_makespans"]
        records, workers, stage_specs = streaming.barrier_composite(
            stage_sims, specs
        )
        assert (
            streaming.time_to_first_structure_seconds(records)
            == PINNED["barrier_ttfs"]
        )
        assert (
            bubble_seconds(records, workers, stage_specs)
            == PINNED["barrier_bubble"]
        )


PINNED = {
    "streaming_makespan": 64008.58667896267,
    "streaming_ttfs": 29415.00551830223,
    "streaming_bubble": 3048.0,
    "barrier_stage_makespans": [
        29271.407573155244,
        60782.04083999999,
        719.0938139884065,
    ],
    "barrier_ttfs": 90382.14879490498,
    "barrier_bubble": 205528.5606417538,
}


# -- (b) property: random DAGs × layouts × interleavings ---------------------
@st.composite
def dag_and_layout(draw):
    n = draw(st.integers(1, 18))
    pools = ["", "cpu", "gpu"]
    specs = []
    for i in range(n):
        deps = (
            draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else set()
        )
        specs.append(
            TaskSpec(
                key=f"t{i}",
                size_hint=float(draw(st.integers(1, 5))),
                depends_on=tuple(f"t{d}" for d in sorted(deps)),
                pool=draw(st.sampled_from(pools)),
                requires_highmem=draw(st.integers(0, 3)) == 0,
                dep_mode=draw(st.sampled_from(["all", "resolved"])),
            )
        )
    workers = [
        worker(
            f"w{j}",
            pool=draw(st.sampled_from(pools)),
            highmem=draw(st.booleans()),
        )
        for j in range(draw(st.integers(1, 5)))
    ]
    return specs, workers


@given(case=dag_and_layout(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_random_dags_dispatch_once_within_constraints_locally_first(case, data):
    specs, workers = case
    q = TaskQueue()
    q.submit_many(specs)
    by_id = {w.worker_id: w for w in workers}
    running: dict[str, TaskSpec] = {}
    ran_on: dict[str, WorkerInfo] = {}  # insertion order = completion order
    dispatched: list[str] = []

    def home_of(task: TaskSpec) -> str:
        for dep in reversed(list(ran_on)):
            if dep in task.depends_on and eligible(ran_on[dep], task):
                return ran_on[dep].worker_id
        return ""

    while True:
        moves = [("done", by_id[wid]) for wid in sorted(running)]
        for w in workers:
            if w.worker_id in running:
                continue
            if any(eligible(w, t) for t in q.tasks):
                moves.append(("pop", w))
            else:
                assert q.pop(w) is None
        if not moves:
            break
        kind, w = data.draw(st.sampled_from(moves))
        if kind == "done":
            task = running.pop(w.worker_id)
            if data.draw(st.integers(0, 9)) == 0:
                q.mark_failed(task.key)
                q.reap_poisoned()
            else:
                ran_on[task.key] = w
                q.mark_complete(task.key, w)
            continue
        ready = {t.key: home_of(t) for t in q.tasks if eligible(w, t)}
        task = q.pop(w)
        assert task is not None and eligible(w, task)
        dispatched.append(task.key)
        running[w.worker_id] = task
        # Own lane before shared before a steal.
        got = ready[task.key]
        if got != w.worker_id:
            assert w.worker_id not in ready.values()
            if got:
                assert "" not in ready.values()
    assert len(dispatched) == len(set(dispatched))
    leftovers = []
    while (task := q.pop()) is not None:
        leftovers.append(task.key)
    assert not set(leftovers) & set(dispatched)


# -- executors ---------------------------------------------------------------
def _nap(spec_: TaskSpec):
    time.sleep(0.02)
    return spec_.key


def _kill_own_worker_once(spec_: TaskSpec):
    """``mid/x/0`` kills its process on the first attempt; ``root/y`` is
    slow enough that the peer is busy while ``x``'s lane fills."""
    if spec_.key == "mid/x/0" and spec_.attempt == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    if spec_.key == "root/y":
        time.sleep(0.5)
    return f"{spec_.key}@{spec_.attempt}"


class TestExecutors:
    def test_idle_thread_steals_instead_of_exiting(self):
        tasks = chain("x", n_mid=8)
        reg = MetricsRegistry()
        with use_metrics(reg):
            res = ThreadedExecutor(n_workers=2).map(
                _nap, tasks, pass_spec=True, sort_descending=False
            )
        assert res.lost_keys() == [] and len(res.records) == len(tasks)
        mids = {r.worker_id for r in res.records if r.key.startswith("mid/")}
        assert len(mids) == 2  # the peer of root/x's worker joined in
        counters = reg.counter_values("dataflow.dispatch.")
        assert counters["dataflow.dispatch.stolen"] >= 1
        assert counters["dataflow.dispatch.local"] >= 1

    def test_killed_workers_local_lane_is_stolen_not_lost(self):
        tasks = chain("x", n_mid=4) + chain("y", n_mid=1)
        reg = MetricsRegistry()
        with use_metrics(reg):
            res = ProcessExecutor(n_workers=2).map(
                _kill_own_worker_once,
                tasks,
                pass_spec=True,
                sort_descending=False,
                retry_policy=RetryPolicy(max_attempts=2),
            )
        assert res.lost_keys() == []
        ok = [r.key for r in res.records if r.ok]
        assert sorted(ok) == sorted(t.key for t in tasks)
        failed = [r for r in res.records if not r.ok]
        assert [(r.key, r.attempt) for r in failed] == [("mid/x/0", 1)]
        assert "WorkerLost" in failed[0].error
        # Everything after the kill ran on the survivor.
        survivor = {r.worker_id for r in res.records if r.key == "root/y"}
        after = {
            r.worker_id
            for r in res.records
            if r.ok and r.key.startswith(("mid/x/", "leaf/x"))
        }
        assert after == survivor
        assert reg.counter_values("dataflow.")["dataflow.worker.lost"] == 1
        stolen = reg.counter_values("dataflow.dispatch.")[
            "dataflow.dispatch.stolen"
        ]
        assert stolen >= 4  # the dead worker's whole lane, retry included
