"""Dataflow tests: queue ordering, simulated engine, threaded engine."""

import numpy as np
import pytest

from repro.core.scheduling import order_tasks
from repro.dataflow import (
    TaskQueue,
    TaskSpec,
    ThreadedExecutor,
    extract_gantt,
    load_task_csv,
    make_workers,
    render_ascii_gantt,
    simulate_dataflow,
    summarize_records,
)


def _tasks(sizes):
    return [TaskSpec(key=f"t{i}", size_hint=s) for i, s in enumerate(sizes)]


class TestTaskQueue:
    def test_fifo(self):
        q = TaskQueue()
        q.submit_many(_tasks([1, 2, 3]))
        assert [q.pop().key for _ in range(3)] == ["t0", "t1", "t2"]
        assert q.pop() is None

    def test_sort_descending(self):
        q = TaskQueue()
        q.submit_many(_tasks([5, 100, 20]))
        q.sort_descending()
        assert [t.size_hint for t in q.tasks] == [100, 20, 5]

    def test_sort_deterministic_on_ties(self):
        q = TaskQueue()
        q.submit_many([TaskSpec(key=k, size_hint=7) for k in "cba"])
        q.sort_descending()
        assert [t.key for t in q.tasks] == ["a", "b", "c"]

    def test_shuffle(self):
        """The random baseline is a reordering before submission: the
        queue keeps the shuffled order as given, and loses no task."""
        shuffled = order_tasks(_tasks(range(50)), "random", np.random.default_rng(0))
        q = TaskQueue()
        q.submit_many(shuffled)
        keys = [t.key for t in q.tasks]
        assert keys == [t.key for t in shuffled]
        assert keys != [f"t{i}" for i in range(50)]
        assert sorted(keys) == sorted(f"t{i}" for i in range(50))

    def test_skipped_highmem_task_served_next_in_order(self):
        """A highmem task skipped by a standard worker must still go to
        the *next* highmem worker, ahead of younger highmem tasks."""
        q = TaskQueue()
        q.submit_many(
            [
                TaskSpec(key="std-0"),
                TaskSpec(key="hm-0", requires_highmem=True),
                TaskSpec(key="std-1"),
                TaskSpec(key="hm-1", requires_highmem=True),
            ]
        )
        std, hm = make_workers(2, 1, highmem_nodes=1)
        assert not std.highmem and hm.highmem
        # Standard worker skips hm-0 without consuming it.
        assert q.pop(std).key == "std-0"
        assert q.pop(hm).key == "hm-0"  # oldest overall it can run
        assert q.pop(std).key == "std-1"
        assert q.pop(std) is None  # only hm-1 left; ineligible
        assert q.pop(hm).key == "hm-1"
        assert q.pop(hm) is None

    def test_highmem_worker_respects_global_fifo(self):
        """An unconstrained worker drains both lanes in submission order."""
        q = TaskQueue()
        keys = ["a", "b", "c", "d", "e"]
        q.submit_many(
            [
                TaskSpec(key=k, requires_highmem=(k in "bd"))
                for k in keys
            ]
        )
        hm = make_workers(1, 1, highmem_nodes=1)[0]
        assert [q.pop(hm).key for _ in range(5)] == keys

    def test_len_and_tasks_span_both_lanes(self):
        q = TaskQueue()
        q.submit_many(
            [TaskSpec(key="s"), TaskSpec(key="h", requires_highmem=True)]
        )
        assert len(q) == 2
        assert [t.key for t in q.tasks] == ["s", "h"]
        q.sort_descending()
        assert len(q) == 2


class TestWorkers:
    def test_one_per_gpu(self):
        workers = make_workers(n_nodes=3, workers_per_node=6)
        assert len(workers) == 18
        assert len({w.worker_id for w in workers}) == 18

    def test_highmem_flagging(self):
        workers = make_workers(4, 2, highmem_nodes=1)
        hm = [w for w in workers if w.highmem]
        assert len(hm) == 2
        assert all(w.node_id == 3 for w in hm)

    def test_short_id(self):
        w = make_workers(1, 1)[0]
        assert len(w.short_id) == 6

    def test_auto_worker_count_honours_the_affinity_mask(self, monkeypatch):
        """A cpuset leaves ``cpu_count`` at the machine total; "auto"
        must size to the cores this process may actually run on."""
        import os

        from repro.core import ProteomePipeline
        from repro.dataflow.engine import auto_worker_count

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False
        )
        assert auto_worker_count() == 3
        assert ProteomePipeline(compute_workers=0)._executor(100).n_workers == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)))
        assert auto_worker_count() == 8
        # Platforms without an affinity API fall back to the CPU count.
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert auto_worker_count() == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert auto_worker_count() == 1


class TestSimulatedDataflow:
    def test_work_conservation(self):
        tasks = _tasks([10, 20, 30, 40])
        workers = make_workers(1, 2)
        res = simulate_dataflow(
            tasks, workers, lambda t: t.size_hint, task_overhead=0.0, startup=0.0
        )
        assert len(res.records) == 4
        busy = sum(r.duration for r in res.records)
        assert busy == pytest.approx(100.0)

    def test_single_worker_serial(self):
        tasks = _tasks([5, 5, 5])
        res = simulate_dataflow(
            tasks, make_workers(1, 1), lambda t: 5.0, task_overhead=0.0, startup=0.0
        )
        assert res.makespan_seconds == pytest.approx(15.0)

    def test_sorted_beats_random_on_skewed_load(self):
        sizes = [1.0] * 200 + [120.0] * 5
        tasks = _tasks(sizes)
        workers = make_workers(2, 4)
        sorted_run = simulate_dataflow(
            tasks, workers, lambda t: t.size_hint, task_overhead=0.0, startup=0.0
        )
        random_runs = [
            simulate_dataflow(
                order_tasks(tasks, "random", np.random.default_rng(s)),
                workers,
                lambda t: t.size_hint,
                sort_descending=False,
                task_overhead=0.0,
                startup=0.0,
            )
            for s in range(5)
        ]
        mean_random = np.mean([r.makespan_seconds for r in random_runs])
        # Greedy longest-first should beat the average random order.
        assert sorted_run.makespan_seconds <= mean_random

    def test_finish_spread_small_when_sorted(self):
        rng = np.random.default_rng(2)
        sizes = rng.lognormal(3, 1, size=500)
        res = simulate_dataflow(
            _tasks(sizes), make_workers(4, 6), lambda t: t.size_hint,
            task_overhead=0.0, startup=0.0,
        )
        assert res.finish_spread_seconds() < 0.15 * res.makespan_seconds

    def test_failure_fn(self):
        tasks = _tasks([10, 10])
        res = simulate_dataflow(
            tasks,
            make_workers(1, 1),
            lambda t: t.size_hint,
            failure_fn=lambda t, w: "OOM" if t.key == "t0" else None,
            task_overhead=0.0,
            startup=0.0,
        )
        failed = [r for r in res.records if not r.ok]
        assert len(failed) == 1 and failed[0].error == "OOM"
        assert failed[0].duration < 10.0

    def test_requires_workers(self):
        with pytest.raises(ValueError):
            simulate_dataflow(_tasks([1]), [], lambda t: 1.0)

    def test_utilization_bounds(self):
        res = simulate_dataflow(
            _tasks([3] * 30), make_workers(1, 3), lambda t: 3.0,
            task_overhead=0.0, startup=0.0,
        )
        assert 0.9 < res.utilization() <= 1.0


class TestThreadedExecutor:
    def test_real_execution(self):
        ex = ThreadedExecutor(n_workers=4)
        result = ex.map(lambda x: x * 2, [(f"k{i}", i, float(i)) for i in range(20)])
        assert result.results == {f"k{i}": i * 2 for i in range(20)}
        assert result.n_failed == 0

    def test_exceptions_isolated(self):
        ex = ThreadedExecutor(n_workers=2)

        def work(x):
            if x == 3:
                raise RuntimeError("boom")
            return x

        result = ex.map(work, [(f"k{i}", i, 1.0) for i in range(6)])
        assert result.n_failed == 1
        assert "k3" not in result.results
        failed = [r for r in result.records if not r.ok][0]
        assert "boom" in failed.error

    def test_csv_roundtrip(self, tmp_path):
        ex = ThreadedExecutor(n_workers=2)
        result = ex.map(lambda x: x, [(f"k{i}", i, 1.0) for i in range(5)])
        path = tmp_path / "stats.csv"
        result.write_csv(path)
        back = load_task_csv(path)
        assert {r.key for r in back} == {f"k{i}" for i in range(5)}

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreadedExecutor(0)


class TestReporting:
    def _sim(self):
        return simulate_dataflow(
            _tasks([10, 5, 8, 2, 9, 4]), make_workers(1, 2),
            lambda t: t.size_hint, task_overhead=0.0, startup=0.0,
        )

    def test_gantt_lanes(self):
        res = self._sim()
        lanes = extract_gantt(res.records)
        assert len(lanes) == 2
        assert sum(lane.n_tasks for lane in lanes) == 6
        for lane in lanes:
            starts = [s for s, _ in lane.intervals]
            assert starts == sorted(starts)

    def test_gantt_sampling(self):
        res = simulate_dataflow(
            _tasks([1] * 100), make_workers(5, 6), lambda t: 1.0,
            task_overhead=0.0, startup=0.0,
        )
        lanes = extract_gantt(res.records, max_workers=10)
        assert len(lanes) == 10

    def test_ascii_gantt(self):
        res = self._sim()
        art = render_ascii_gantt(extract_gantt(res.records), width=40)
        assert "#" in art
        assert len(art.splitlines()) == 2

    def test_summary(self):
        res = self._sim()
        s = summarize_records(res.records)
        assert s["n_tasks"] == 6
        assert s["n_failed"] == 0
        assert s["makespan"] > 0
        assert summarize_records([])["n_tasks"] == 0

    def test_summary_attempt_latency_and_lost_keys(self):
        res = self._sim()
        s = summarize_records(res.records)
        assert s["lost_keys"] == []
        assert list(s["attempt_latency"]) == ["1"]
        first = s["attempt_latency"]["1"]
        assert first["n"] == 6
        assert first["p50"] <= first["p95"] <= first["max"]
        assert first["mean"] == pytest.approx(
            sum(r.duration for r in res.records) / 6
        )
        empty = summarize_records([])
        assert empty["lost_keys"] == [] and empty["attempt_latency"] == {}
