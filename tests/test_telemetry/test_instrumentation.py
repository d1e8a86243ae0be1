"""Instrumented call sites: executors, recycling, minimisation, cache."""

import numpy as np

from repro.cache import FeatureCache
from repro.dataflow import (
    FaultInjector,
    RetryPolicy,
    TaskSpec,
    ThreadedExecutor,
    make_workers,
    simulate_dataflow,
)
from repro.fold.recycling import RecycleController
from repro.telemetry import MetricsRegistry, Tracer, use_metrics, use_tracer


class TestEngineMetrics:
    def test_clean_run_counters_and_latency(self):
        reg = MetricsRegistry()
        with use_metrics(reg):
            ThreadedExecutor(2).map(
                lambda x: x, [(f"t{i}", i, 1.0) for i in range(10)],
                stage="feature",
            )
        counters = reg.counter_values("feature.")
        # eagerly created: zeroes still export
        assert counters == {
            "feature.task.failures": 0.0,
            "feature.task.retries": 0.0,
            "feature.task.oom_escalations": 0.0,
            "feature.task.unschedulable": 0.0,
            "feature.task.skipped_dependency": 0.0,
        }
        hist = reg.histogram("feature.task.latency_seconds")
        assert hist.count == 10

    def test_failures_and_retries_counted(self):
        reg = MetricsRegistry()
        with use_metrics(reg):
            res = ThreadedExecutor(4, highmem_workers=1).map(
                lambda x: x,
                [(f"t{i}", i, 1.0) for i in range(40)],
                failure_fn=FaultInjector(rate=0.15, seed=5),
                retry_policy=RetryPolicy(max_attempts=3),
            )
        counters = reg.counter_values("dataflow.")
        assert counters["dataflow.task.failures"] == res.n_failed > 0
        n_retries = sum(1 for r in res.records if r.attempt > 1)
        assert counters["dataflow.task.retries"] == n_retries > 0

    def test_oom_escalation_counter_and_event(self):
        reg = MetricsRegistry()
        tr = Tracer()

        def oom_on_standard(task, worker):
            if not worker.highmem:
                return "OutOfMemoryError: injected"
            return None

        with use_metrics(reg), use_tracer(tr):
            res = ThreadedExecutor(3, highmem_workers=1).map(
                lambda x: x,
                [(f"t{i}", i, 1.0) for i in range(6)],
                failure_fn=oom_on_standard,
                retry_policy=RetryPolicy(max_attempts=4),
            )
        assert res.lost_keys() == []
        counters = reg.counter_values("dataflow.")
        assert counters["dataflow.task.oom_escalations"] > 0
        escalation_events = [
            e for e in tr.events if e.name == "dataflow.task.oom_escalation"
        ]
        assert len(escalation_events) == counters["dataflow.task.oom_escalations"]
        assert all("key" in e.attrs for e in escalation_events)

    def test_unschedulable_counted(self):
        reg = MetricsRegistry()
        with use_metrics(reg):
            res = ThreadedExecutor(2).map(
                lambda x: x,
                [TaskSpec(key="big", payload=0, size_hint=1.0,
                          requires_highmem=True)],
            )
        assert res.lost_keys() == ["big"]
        counters = reg.counter_values("dataflow.")
        assert counters["dataflow.task.unschedulable"] == 1.0
        assert counters["dataflow.task.failures"] == 1.0


class TestSimulatedMetrics:
    def test_sim_counters(self):
        reg = MetricsRegistry()
        tasks = [TaskSpec(key=f"t{i}", size_hint=float(i % 7 + 1)) for i in range(50)]
        with use_metrics(reg):
            res = simulate_dataflow(
                tasks,
                make_workers(2, 2, highmem_nodes=1),
                lambda t: t.size_hint,
                failure_fn=FaultInjector(rate=0.2, seed=2),
                retry_policy=RetryPolicy(max_attempts=3),
                task_overhead=0.0,
                startup=0.0,
            )
        counters = reg.counter_values("sim.dataflow.")
        assert counters["sim.dataflow.task.failures"] == res.n_failed > 0
        n_retries = sum(1 for r in res.records if r.attempt > 1)
        assert counters["sim.dataflow.task.retries"] == n_retries

    def test_dispatch_counters_follow_routing(self):
        reg = MetricsRegistry()
        tasks = [
            TaskSpec(key=f"h{i}", size_hint=1.0, requires_highmem=True)
            for i in range(3)
        ] + [TaskSpec(key=f"s{i}", size_hint=1.0) for i in range(5)]
        with use_metrics(reg):
            simulate_dataflow(
                tasks, make_workers(2, 2, highmem_nodes=1), lambda t: 1.0
            )
        counters = reg.counter_values("dataflow.dispatch.")
        assert counters["dataflow.dispatch.highmem"] == 3.0
        assert counters["dataflow.dispatch.standard"] == 5.0


class TestRecycleMetrics:
    def _converging_controller(self, tolerance, cap=20):
        rng = np.random.default_rng(0)
        ca = rng.normal(size=(30, 3)) * 10
        ctrl = RecycleController(tolerance=tolerance, cap=cap)
        while not ctrl.update(ca):
            pass
        return ctrl

    def test_early_stop_metrics_and_event(self):
        reg = MetricsRegistry()
        tr = Tracer()
        with use_metrics(reg), use_tracer(tr):
            ctrl = self._converging_controller(tolerance=0.5)
        counters = reg.counter_values("fold.recycle.")
        assert counters["fold.recycle.early_stops"] == 1.0
        assert counters["fold.recycle.total"] == ctrl.n_recycles
        stops = [e for e in tr.events if e.name == "fold.recycle.stop"]
        assert len(stops) == 1
        assert stops[0].attrs["reason"] == "early"
        assert stops[0].attrs["recycles"] == ctrl.n_recycles

    def test_cap_stop_metrics(self):
        reg = MetricsRegistry()
        with use_metrics(reg):
            self._converging_controller(tolerance=None, cap=4)
        counters = reg.counter_values("fold.recycle.")
        assert counters["fold.recycle.cap_stops"] == 1.0
        assert counters["fold.recycle.total"] == 4.0
        hist = reg.histogram(
            "fold.recycle.count", buckets=tuple(float(i) for i in range(1, 21))
        )
        assert hist.count == 1

    def test_cap_one_stop_event_is_json_safe(self):
        reg = MetricsRegistry()
        tr = Tracer()
        with use_metrics(reg), use_tracer(tr):
            self._converging_controller(tolerance=None, cap=1)
        stop = [e for e in tr.events if e.name == "fold.recycle.stop"][0]
        # no second recycle ran: last_change is +inf internally, which is
        # not valid strict JSON, so the event must carry None
        assert stop.attrs["last_change"] is None


class TestCacheMetrics:
    def test_hits_and_misses_flow_to_registry(self):
        reg = MetricsRegistry()
        cache = FeatureCache()
        with use_metrics(reg):
            assert cache.get("k1") is None  # miss
            cache.put("k1", "bundle")
            assert cache.get("k1") == "bundle"  # hit
            assert cache.get("k2") is None  # miss
        counters = reg.counter_values("feature.cache.")
        assert counters["feature.cache.misses"] == 2.0
        assert counters["feature.cache.hits"] == 1.0
