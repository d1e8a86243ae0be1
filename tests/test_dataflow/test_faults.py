"""Fault-tolerance tests: retries, highmem escalation, injection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import (
    FaultInjector,
    RetryPolicy,
    TaskSpec,
    ThreadedExecutor,
    is_oom_error,
    load_task_csv,
    make_workers,
    simulate_dataflow,
    straggler_duration_fn,
    summarize_records,
    write_task_csv,
)


def _tasks(n, prefix="t", **kwargs):
    return [
        TaskSpec(key=f"{prefix}{i}", size_hint=float(i % 7 + 1), **kwargs)
        for i in range(n)
    ]


class TestOomClassifier:
    def test_exception_names(self):
        assert is_oom_error("OutOfMemoryError: t0 needs 91.2 GiB")
        assert is_oom_error("MemoryError: allocation failed")
        assert is_oom_error("OOM (injected): t3 exceeded worker memory")
        assert is_oom_error("worker killed: out of memory")

    def test_non_oom(self):
        assert not is_oom_error("RuntimeError: boom")
        assert not is_oom_error("ValueError: bad input")
        assert not is_oom_error("")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-1.0)

    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1) and policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_backoff_grows(self):
        policy = RetryPolicy(backoff_seconds=2.0, backoff_factor=3.0)
        assert policy.backoff_for(1) == 2.0
        assert policy.backoff_for(2) == 6.0
        assert policy.backoff_for(3) == 18.0

    def test_oom_escalates_to_highmem(self):
        policy = RetryPolicy()
        task = TaskSpec(key="t", size_hint=1.0)
        respawn = policy.next_task(task, "OutOfMemoryError: too big")
        assert respawn.attempt == 2
        assert respawn.requires_highmem

    def test_non_oom_retries_in_place(self):
        policy = RetryPolicy()
        task = TaskSpec(key="t", size_hint=1.0)
        respawn = policy.next_task(task, "RuntimeError: flaky network")
        assert respawn.attempt == 2
        assert not respawn.requires_highmem

    def test_escalation_can_be_disabled(self):
        policy = RetryPolicy(escalate_on_oom=False)
        respawn = policy.next_task(
            TaskSpec(key="t", size_hint=1.0), "OOM killed"
        )
        assert not respawn.requires_highmem


class TestFaultInjector:
    def test_deterministic(self):
        tasks = _tasks(500)
        a = FaultInjector(rate=0.05, seed=7).injected_keys(tasks)
        b = FaultInjector(rate=0.05, seed=7).injected_keys(tasks)
        assert a == b and 0 < len(a) < 100

    def test_seed_changes_selection(self):
        tasks = _tasks(500)
        a = FaultInjector(rate=0.05, seed=7).injected_keys(tasks)
        b = FaultInjector(rate=0.05, seed=8).injected_keys(tasks)
        assert a != b

    def test_rate_extremes(self):
        tasks = _tasks(50)
        assert FaultInjector(rate=0.0).injected_keys(tasks) == []
        assert len(FaultInjector(rate=1.0).injected_keys(tasks)) == 50
        with pytest.raises(ValueError):
            FaultInjector(rate=1.5)

    def test_spares_highmem_workers(self):
        injector = FaultInjector(rate=1.0, seed=0)
        task = _tasks(1)[0]
        std, hm = make_workers(2, 1, highmem_nodes=1)
        assert injector(task, std) is not None
        assert is_oom_error(injector(task, std))
        assert injector(task, hm) is None

    def test_spare_highmem_off(self):
        injector = FaultInjector(rate=1.0, seed=0, spare_highmem=False)
        hm = make_workers(1, 1, highmem_nodes=1)[0]
        assert injector(_tasks(1)[0], hm) is not None

    def test_straggler_injection(self):
        base = lambda t: 10.0  # noqa: E731
        slowed = straggler_duration_fn(base, rate=0.2, slowdown=5.0, seed=3)
        tasks = _tasks(200)
        durations = [slowed(t) for t in tasks]
        assert set(durations) == {10.0, 50.0}
        n_slow = sum(1 for d in durations if d == 50.0)
        assert 10 < n_slow < 80  # ~20% of 200, deterministic
        with pytest.raises(ValueError):
            straggler_duration_fn(base, rate=0.2, slowdown=0.5)


class TestMemoryAwareDispatch:
    def test_pop_gates_highmem_tasks(self):
        from repro.dataflow import TaskQueue

        q = TaskQueue()
        q.submit(TaskSpec(key="big", size_hint=9.0, requires_highmem=True))
        q.submit(TaskSpec(key="small", size_hint=1.0))
        std, hm = make_workers(2, 1, highmem_nodes=1)
        assert q.pop(std).key == "small"
        assert q.pop(std) is None  # big stays queued for a 2 TB node
        assert q.pop(hm).key == "big"

    def test_highmem_tasks_only_on_highmem_workers(self):
        workers = make_workers(4, 3, highmem_nodes=1)
        hm_ids = {w.worker_id for w in workers if w.highmem}
        tasks = _tasks(30) + _tasks(10, prefix="h", requires_highmem=True)
        res = simulate_dataflow(
            tasks, workers, lambda t: t.size_hint,
            task_overhead=0.0, startup=0.0,
        )
        assert res.n_failed == 0
        for r in res.records:
            if r.key.startswith("h"):
                assert r.worker_id in hm_ids

    def test_unrunnable_tasks_fail_not_stall(self):
        workers = make_workers(2, 2)  # no highmem anywhere
        tasks = _tasks(4, prefix="h", requires_highmem=True) + _tasks(4)
        res = simulate_dataflow(
            tasks, workers, lambda t: t.size_hint,
            task_overhead=0.0, startup=0.0,
        )
        failed = [r for r in res.records if not r.ok]
        assert len(failed) == 4
        assert all("NoEligibleWorker" in r.error for r in failed)
        assert sorted(res.lost_keys()) == ["h0", "h1", "h2", "h3"]


class TestSimulatedRetries:
    def test_exact_failure_count_without_retries(self):
        tasks = _tasks(200)
        injector = FaultInjector(rate=0.05, seed=7)
        injected = set(injector.injected_keys(tasks))
        res = simulate_dataflow(
            tasks, make_workers(4, 6), lambda t: t.size_hint,
            failure_fn=injector, task_overhead=0.0, startup=0.0,
        )
        assert res.n_failed == len(injected) > 0
        assert set(res.lost_keys()) == injected

    def test_retry_recovers_all_injected_ooms(self):
        tasks = _tasks(200)
        injector = FaultInjector(rate=0.05, seed=7)
        injected = set(injector.injected_keys(tasks))
        workers = make_workers(4, 6, highmem_nodes=1)
        hm_ids = {w.worker_id for w in workers if w.highmem}
        res = simulate_dataflow(
            tasks, workers, lambda t: t.size_hint,
            failure_fn=injector,
            retry_policy=RetryPolicy(max_attempts=3, backoff_seconds=5.0),
            task_overhead=0.0, startup=0.0,
        )
        assert res.lost_keys() == []
        # every injected task that failed recovered on a highmem worker,
        # with the failed and ok attempts as distinct records
        for key in injected:
            attempts = sorted(
                (r for r in res.records if r.key == key),
                key=lambda r: r.attempt,
            )
            assert attempts[-1].ok
            for earlier in attempts[:-1]:
                assert not earlier.ok and is_oom_error(earlier.error)
            if len(attempts) > 1:
                assert attempts[-1].worker_id in hm_ids

    def test_retry_exhaustion(self):
        tasks = _tasks(5)
        injector = FaultInjector(rate=1.0, seed=1, spare_highmem=False)
        res = simulate_dataflow(
            tasks, make_workers(2, 2, highmem_nodes=1),
            lambda t: t.size_hint,
            failure_fn=injector,
            retry_policy=RetryPolicy(max_attempts=3),
            task_overhead=0.0, startup=0.0,
        )
        assert len(res.records) == 15  # 5 tasks x 3 attempts
        # n_failed counts distinct keys, not attempts: 5 tasks failed,
        # however many attempts each burned.
        assert res.n_failed == 5
        assert sum(1 for r in res.records if not r.ok) == 15
        assert len(res.lost_keys()) == 5
        for key in (t.key for t in tasks):
            attempts = sorted(
                r.attempt for r in res.records if r.key == key
            )
            assert attempts == [1, 2, 3]

    def test_backoff_delays_recovery(self):
        tasks = _tasks(10)
        injector = FaultInjector(rate=1.0, seed=0)
        workers = make_workers(2, 1, highmem_nodes=1)
        fast = simulate_dataflow(
            tasks, workers, lambda t: t.size_hint, failure_fn=injector,
            retry_policy=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
            task_overhead=0.0, startup=0.0,
        )
        slow = simulate_dataflow(
            tasks, workers, lambda t: t.size_hint, failure_fn=injector,
            retry_policy=RetryPolicy(max_attempts=2, backoff_seconds=100.0),
            task_overhead=0.0, startup=0.0,
        )
        assert fast.lost_keys() == [] and slow.lost_keys() == []
        assert slow.makespan_seconds > fast.makespan_seconds

    def test_summary_counts_retries(self):
        tasks = _tasks(50)
        injector = FaultInjector(rate=0.2, seed=2)
        res = simulate_dataflow(
            tasks, make_workers(2, 2, highmem_nodes=1),
            lambda t: t.size_hint, failure_fn=injector,
            retry_policy=RetryPolicy(max_attempts=3),
            task_overhead=0.0, startup=0.0,
        )
        summary = summarize_records(res.records)
        assert summary["n_lost"] == 0
        assert summary["n_retried"] == summary["n_failed"] > 0
        # retried attempts get their own latency percentiles
        assert "2" in summary["attempt_latency"]
        n_retried_attempts = sum(
            stats["n"]
            for attempt, stats in summary["attempt_latency"].items()
            if attempt != "1"
        )
        assert n_retried_attempts == summary["n_retried"]

    def test_summary_surfaces_lost_keys(self):
        tasks = _tasks(6, requires_highmem=True)
        res = simulate_dataflow(
            tasks, make_workers(1, 2), lambda t: t.size_hint,
            task_overhead=0.0, startup=0.0,
        )
        summary = summarize_records(res.records)
        assert summary["n_lost"] == 6
        assert summary["lost_keys"] == sorted(t.key for t in tasks)


class TestThreadedRetries:
    def test_injected_ooms_recover(self):
        ex = ThreadedExecutor(n_workers=4, highmem_workers=1)
        items = [(f"t{i}", i, 1.0) for i in range(50)]
        res = ex.map(
            lambda x: x * 2,
            items,
            failure_fn=FaultInjector(rate=0.1, seed=3),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        assert res.lost_keys() == []
        assert res.results == {f"t{i}": i * 2 for i in range(50)}
        assert res.n_failed == sum(1 for r in res.records if r.attempt > 1) > 0

    def test_exception_retry_exhaustion(self):
        ex = ThreadedExecutor(n_workers=2)

        def work(x):
            if x == 3:
                raise RuntimeError("boom")
            return x

        res = ex.map(
            work,
            [(f"k{i}", i, 1.0) for i in range(6)],
            retry_policy=RetryPolicy(max_attempts=2),
        )
        assert res.lost_keys() == ["k3"]
        assert sorted(r.attempt for r in res.records if r.key == "k3") == [1, 2]
        assert "k3" not in res.results

    def test_highmem_gating(self):
        ex = ThreadedExecutor(n_workers=4, highmem_workers=2)
        hm_ids = {w.worker_id for w in ex.workers if w.highmem}
        tasks = [
            TaskSpec(key=f"h{i}", payload=i, size_hint=1.0, requires_highmem=True)
            for i in range(8)
        ] + [TaskSpec(key=f"t{i}", payload=i, size_hint=1.0) for i in range(8)]
        res = ex.map(lambda x: x, tasks)
        assert res.n_failed == 0
        for r in res.records:
            if r.key.startswith("h"):
                assert r.worker_id in hm_ids

    def test_unrunnable_tasks_drain_as_failed(self):
        ex = ThreadedExecutor(n_workers=2)  # no highmem workers
        tasks = [
            TaskSpec(key="big", payload=0, size_hint=9.0, requires_highmem=True),
            TaskSpec(key="small", payload=1, size_hint=1.0),
        ]
        res = ex.map(lambda x: x, tasks)
        assert res.lost_keys() == ["big"]
        failed = [r for r in res.records if not r.ok]
        assert len(failed) == 1 and "NoEligibleWorker" in failed[0].error

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreadedExecutor(n_workers=2, highmem_workers=3)
        with pytest.raises(ValueError):
            ThreadedExecutor(n_workers=2, highmem_workers=-1)

    def test_n_failed_counts_distinct_keys(self):
        def flaky(spec):
            if spec.attempt < 3:
                raise RuntimeError(f"flaky attempt {spec.attempt}")
            return spec.key

        res = ThreadedExecutor(n_workers=2).map(
            flaky,
            _tasks(4),
            pass_spec=True,
            retry_policy=RetryPolicy(max_attempts=3, backoff_seconds=0.0),
        )
        # Every key failed twice then recovered: 12 records, 8 failed
        # attempts, but n_failed counts keys with >= 1 failed attempt.
        assert len(res.records) == 12
        assert sum(1 for r in res.records if not r.ok) == 8
        assert res.n_failed == 4
        assert res.lost_keys() == []


class TestCsvSchema:
    def test_attempts_roundtrip(self, tmp_path):
        tasks = _tasks(30)
        injector = FaultInjector(rate=0.2, seed=5)
        res = simulate_dataflow(
            tasks, make_workers(2, 2, highmem_nodes=1),
            lambda t: t.size_hint, failure_fn=injector,
            retry_policy=RetryPolicy(max_attempts=3),
            task_overhead=0.0, startup=0.0,
        )
        path = tmp_path / "stats.csv"
        write_task_csv(res.records, path)
        back = load_task_csv(path)
        assert [(r.key, r.attempt, r.ok) for r in back] == [
            (r.key, r.attempt, r.ok) for r in res.records
        ]

    def test_writers_agree(self, tmp_path):
        """Threaded and simulated CSVs share one schema."""
        from repro.dataflow import TASK_CSV_COLUMNS

        ex = ThreadedExecutor(n_workers=2)
        threaded = ex.map(lambda x: x, [(f"k{i}", i, 1.0) for i in range(4)])
        t_path = tmp_path / "threaded.csv"
        threaded.write_csv(t_path)

        sim = simulate_dataflow(
            _tasks(4), make_workers(1, 2), lambda t: t.size_hint,
            task_overhead=0.0, startup=0.0,
        )
        s_path = tmp_path / "sim.csv"
        write_task_csv(sim.records, s_path)

        header = ",".join(TASK_CSV_COLUMNS)
        for path in (t_path, s_path):
            assert path.read_text().splitlines()[0] == header
            for record in load_task_csv(path):
                assert record.ok and record.attempt == 1

    def test_boolean_formats_unified(self, tmp_path):
        ex = ThreadedExecutor(n_workers=1)
        res = ex.map(
            lambda x: 1 / x, [("bad", 0, 1.0), ("good", 1, 1.0)]
        )
        path = tmp_path / "stats.csv"
        res.write_csv(path)
        body = path.read_text()
        assert "true" in body and "false" in body
        assert "True" not in body and "False" not in body
        back = {r.key: r.ok for r in load_task_csv(path)}
        assert back == {"bad": False, "good": True}


@given(
    n_std=st.integers(1, 6),
    n_hm=st.integers(0, 3),
    flags=st.lists(st.booleans(), min_size=1, max_size=40),
    use_retries=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_property_highmem_never_on_standard_worker(
    n_std, n_hm, flags, use_retries
):
    """No ``requires_highmem`` task ever runs on a standard worker —
    regardless of pool mix, task mix, or retry policy."""
    workers = make_workers(n_std + n_hm, 1, highmem_nodes=n_hm)
    hm_ids = {w.worker_id for w in workers if w.highmem}
    tasks = [
        TaskSpec(key=f"t{i}", size_hint=float(i + 1), requires_highmem=flag)
        for i, flag in enumerate(flags)
    ]
    policy = RetryPolicy(max_attempts=2) if use_retries else None
    res = simulate_dataflow(
        tasks,
        workers,
        lambda t: t.size_hint,
        failure_fn=FaultInjector(rate=0.3, seed=11),
        retry_policy=policy,
        task_overhead=0.0,
        startup=0.0,
    )
    requires = {t.key for t in tasks if t.requires_highmem}
    for r in res.records:
        if r.key in requires and r.worker_id != "unscheduled":
            assert r.worker_id in hm_ids
    # conservation: every key still resolves (ok or failed), never lost silently
    assert {r.key for r in res.records} == {t.key for t in tasks}
