"""ProcessExecutor: multiprocessing backend of the dataflow engine.

Covers the contract shared with :class:`ThreadedExecutor` (results,
retries, highmem gating, unschedulable drain, callbacks) plus what only
a process pool can express: payloads and results that cross the pipe
bit-equal, worker kill -9 detection with requeue (and no ``/dev/shm``
residue either way), parent-side callback/metric/span execution, and
the all-workers-dead drain.
"""

import dataclasses
import glob
import os
import signal
from collections import namedtuple
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.dataflow import (
    EncodedPayload,
    FaultInjector,
    ProcessExecutor,
    RetryPolicy,
    TaskSpec,
    ThreadedExecutor,
    decode_payload,
    encode_payload,
)
from repro.dataflow.process import openblas_threads
from repro.telemetry.metrics import MetricsRegistry, get_metrics, use_metrics
from repro.telemetry.tracer import Tracer, use_tracer


# -- module-level task functions (must pickle by reference) -------------------
def _double(payload):
    return payload * 2


def _echo(payload):
    return payload


def _blas_threads(_payload):
    return openblas_threads()


def _boom(payload):
    raise ValueError(f"bad payload {payload}")


def _flaky_until_attempt_3(spec):
    if spec.attempt < 3:
        raise RuntimeError(f"flaky attempt {spec.attempt}")
    return spec.key


def _suicide_on_first_attempt(spec):
    if spec.attempt == 1 and spec.key.startswith("victim"):
        os.kill(os.getpid(), signal.SIGKILL)
    return f"{spec.key}@{spec.attempt}"


def _always_suicide(spec):
    os.kill(os.getpid(), signal.SIGKILL)


def _suicide_then_echo(spec):
    if spec.attempt == 1 and spec.key.startswith("victim"):
        os.kill(os.getpid(), signal.SIGKILL)
    return spec.payload


def _count_and_echo(payload):
    get_metrics().counter("test.worker.widgets").inc()
    return payload


_INIT_VALUE = {}


def _remember_init(value):
    _INIT_VALUE["v"] = value


def _read_init(payload):
    return (_INIT_VALUE.get("v"), os.getpid())


def _shm_entries():
    return set(glob.glob("/dev/shm/psm_*"))


Point = namedtuple("Point", ["xyz", "label"])


@dataclasses.dataclass
class Inner:
    arr: np.ndarray
    tag: str


@dataclasses.dataclass(frozen=True)
class Outer:
    inner: Inner
    weights: np.ndarray
    scale: float


def _payload_shapes():
    """The object trees a task payload or result may take."""
    rng = np.random.default_rng(3)
    big = rng.normal(size=(64, 64))
    ones = np.ones(1024)
    readonly = np.arange(4096, dtype=np.float64)
    readonly.setflags(write=False)
    return {
        "large_array": {"x": rng.normal(size=(128, 64))},
        "nested": {
            "list": [big, {"deep": big * 2}],
            "tuple": (big + 1,),
            "scalar": 42,
        },
        "namedtuple": Point(xyz=big - 1, label="p"),
        "frozen_dataclass": Outer(
            inner=Inner(arr=np.full((100, 100), 3.5), tag="t"),
            weights=np.full((100, 100), 7.0),
            scale=0.5,
        ),
        "noncontiguous_view": {
            "v": np.arange(10000, dtype=np.float64).reshape(100, 100)[::2, ::2]
        },
        "empty_arrays": {"empty": np.empty(0), "none": np.zeros((0, 3), np.int32)},
        "object_dtype": np.array([{"a": 1}] * 1000, dtype=object),
        "equal_arrays": [ones, ones.copy()],
        "readonly_array": {"x": readonly},
    }


def _assert_bit_equal(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        if want.dtype.hasobject:
            assert got.tolist() == want.tolist()
        else:
            assert got.tobytes() == want.tobytes()
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_bit_equal(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_bit_equal(g, w)
    elif dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            _assert_bit_equal(getattr(got, field.name), getattr(want, field.name))
    else:
        assert got == want


def _tasks(n, prefix="t", **kwargs):
    return [
        TaskSpec(key=f"{prefix}{i}", size_hint=float(i % 7 + 1), **kwargs)
        for i in range(n)
    ]


class TestBasics:
    def test_results_match_threaded(self):
        items = [(f"k{i}", i, float(i)) for i in range(20)]
        threaded = ThreadedExecutor(n_workers=4).map(_double, items)
        process = ProcessExecutor(n_workers=4).map(_double, items)
        assert process.results == threaded.results
        assert process.n_failed == 0
        assert process.lost_keys() == []
        assert len(process.records) == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessExecutor(n_workers=0)
        with pytest.raises(ValueError):
            ProcessExecutor(n_workers=2, highmem_workers=3)

    def test_bad_item_shape(self):
        with pytest.raises(ValueError):
            ProcessExecutor(n_workers=1).map(_double, [("key-only",)])

    def test_uses_multiple_processes(self):
        res = ProcessExecutor(n_workers=4).map(
            _read_init, [(f"k{i}", i, 1.0) for i in range(32)]
        )
        pids = {pid for (_, pid) in res.results.values()}
        assert len(pids) > 1
        assert os.getpid() not in pids

    @pytest.mark.parametrize("shape", sorted(_payload_shapes()))
    def test_large_arrays_roundtrip_through_the_pipe(self, shape):
        # Out as the payload, back as the result: what arrives in the
        # parent is bit-equal to what left it, and nothing is left in
        # /dev/shm.
        payload = _payload_shapes()[shape]
        before = _shm_entries()
        items = [(f"k{i}", payload, 1.0) for i in range(4)]
        res = ProcessExecutor(n_workers=2).map(_echo, items)
        assert res.n_failed == 0
        for key, _, _ in items:
            _assert_bit_equal(res.results[key], payload)
        if shape == "equal_arrays":
            first, second = res.results["k0"]
            assert first is not second
        assert _shm_entries() == before

    def test_codec_passes_values_through(self):
        # The driver's codec wraps what the pipe pickles; nothing rides
        # beside it.
        value = {"x": np.arange(4096.0)}
        encoded = encode_payload(value)
        assert isinstance(encoded, EncodedPayload)
        assert encoded.skeleton is value
        assert encoded.segment is None and encoded.nbytes == 0
        assert decode_payload(encoded) is value

    def test_plain_payload_wraps_verbatim(self):
        enc = encode_payload([1, 2, 3])
        assert isinstance(enc, EncodedPayload)
        assert enc.segment is None and enc.nbytes == 0
        assert enc.skeleton == [1, 2, 3]

    @pytest.mark.parametrize("shape", sorted(_payload_shapes()))
    def test_encoded_payload_survives_pipe_pickle(self, shape):
        # Connection.send pickles with ForkingPickler; the encoded
        # message must come back out of those bytes bit-equal.
        payload = _payload_shapes()[shape]
        blob = ForkingPickler.dumps(encode_payload(payload))
        _assert_bit_equal(decode_payload(ForkingPickler.loads(blob)), payload)

    def test_task_exception_is_isolated(self):
        res = ProcessExecutor(n_workers=2).map(
            _boom, [("a", 1, 1.0)]
        )
        assert res.n_failed == 1
        (record,) = res.records
        assert not record.ok and "ValueError: bad payload 1" in record.error

    def test_initializer_runs_in_every_worker(self):
        res = ProcessExecutor(n_workers=3).map(
            _read_init,
            [(f"k{i}", i, 1.0) for i in range(24)],
            initializer=_remember_init,
            initargs=("sentinel-42",),
        )
        values = {v for (v, _pid) in res.results.values()}
        assert values == {"sentinel-42"}

    def test_workers_run_blas_on_one_thread(self):
        # A forked worker inherits the parent's machine-sized OpenBLAS
        # pools; it must shrink every one of them to a single thread.
        if not openblas_threads():
            pytest.skip("no OpenBLAS library loaded")
        res = ProcessExecutor(n_workers=2).map(
            _blas_threads, [(f"k{i}", i, 1.0) for i in range(4)]
        )
        assert res.n_failed == 0
        for counts in res.results.values():
            assert counts and set(counts) == {1}


class TestFileBackedArrays:
    """Memory-mapped arrays cross the pipe by value, like any array."""

    @staticmethod
    def _memmap(tmp_path, shape=(256, 64)):
        file = tmp_path / "a.npy"
        np.save(file, np.arange(np.prod(shape), dtype=np.float64).reshape(shape))
        return np.load(file, mmap_mode="r")

    @pytest.mark.parametrize(
        "view",
        ["whole", "contiguous_view", "strided_view"],
    )
    def test_memmap_roundtrips_by_value(self, tmp_path, view):
        mm = self._memmap(tmp_path)
        arr = {
            "whole": mm,
            "contiguous_view": mm[100:200],
            "strided_view": mm[::2, ::2],
        }[view]
        before = _shm_entries()
        res = ProcessExecutor(n_workers=2).map(
            _echo, [(f"k{i}", {"x": arr}, 1.0) for i in range(3)]
        )
        assert res.n_failed == 0
        for value in res.results.values():
            assert isinstance(value["x"], np.memmap)
            assert value["x"].shape == arr.shape
            assert value["x"].tobytes() == arr.tobytes()
        assert _shm_entries() == before


class TestFaultTolerance:
    def test_retry_recovers_with_highmem_escalation(self):
        tasks = _tasks(30)
        injector = FaultInjector(rate=0.3, seed=5)
        ex = ProcessExecutor(n_workers=4, highmem_workers=1)
        hm_ids = {w.worker_id for w in ex.workers if w.highmem}
        res = ex.map(
            _echo,
            tasks,
            failure_fn=injector,
            retry_policy=RetryPolicy(max_attempts=3, backoff_seconds=0.0),
        )
        assert res.lost_keys() == []
        injected = set(injector.injected_keys(tasks))
        assert injected
        for key in injected:
            attempts = sorted(
                (r for r in res.records if r.key == key),
                key=lambda r: r.attempt,
            )
            assert attempts[-1].ok
            if len(attempts) > 1:
                assert attempts[-1].worker_id in hm_ids

    def test_n_failed_counts_distinct_keys(self):
        res = ProcessExecutor(n_workers=2).map(
            _flaky_until_attempt_3,
            _tasks(4),
            pass_spec=True,
            retry_policy=RetryPolicy(max_attempts=3, backoff_seconds=0.0),
        )
        # Every key failed twice then recovered: 12 records, 8 failed
        # attempts, but n_failed counts keys.
        assert len(res.records) == 12
        assert sum(1 for r in res.records if not r.ok) == 8
        assert res.n_failed == 4
        assert res.lost_keys() == []

    def test_highmem_gating(self):
        tasks = _tasks(4, requires_highmem=True)
        ex = ProcessExecutor(n_workers=3, highmem_workers=1)
        hm_ids = {w.worker_id for w in ex.workers if w.highmem}
        res = ex.map(_echo, tasks)
        assert res.lost_keys() == []
        assert {r.worker_id for r in res.records} <= hm_ids

    def test_unschedulable_drain(self):
        tasks = _tasks(2) + _tasks(2, prefix="hm", requires_highmem=True)
        res = ProcessExecutor(n_workers=2, highmem_workers=0).map(
            _echo, tasks
        )
        assert sorted(res.lost_keys()) == ["hm0", "hm1"]
        drained = [r for r in res.records if not r.ok]
        assert len(drained) == 2
        assert all("NoEligibleWorker" in r.error for r in drained)


class TestWorkerLoss:
    def test_killed_worker_task_is_requeued(self):
        specs = [TaskSpec(key="victim", size_hint=10.0)] + _tasks(6)
        before = _shm_entries()
        res = ProcessExecutor(n_workers=2).map(
            _suicide_on_first_attempt,
            specs,
            pass_spec=True,
            retry_policy=RetryPolicy(max_attempts=3, backoff_seconds=0.0),
        )
        assert res.lost_keys() == []
        victim = sorted(
            (r for r in res.records if r.key == "victim"),
            key=lambda r: r.attempt,
        )
        assert len(victim) == 2
        assert not victim[0].ok and "WorkerLost" in victim[0].error
        assert victim[1].ok
        assert res.results["victim"] == "victim@2"
        assert _shm_entries() == before

    def test_killed_worker_with_large_payload_is_requeued(self):
        # The worker dies holding a multi-MB payload: the retry gets the
        # same bytes from the parent and nothing is left in /dev/shm.
        big = np.random.default_rng(7).normal(size=(512, 512))
        specs = [TaskSpec(key="victim", size_hint=10.0, payload={"x": big})]
        specs += _tasks(3, payload={"x": big[:8]})
        before = _shm_entries()
        res = ProcessExecutor(n_workers=2).map(
            _suicide_then_echo,
            specs,
            pass_spec=True,
            retry_policy=RetryPolicy(max_attempts=3, backoff_seconds=0.0),
        )
        assert res.lost_keys() == []
        victim = [r for r in res.records if r.key == "victim"]
        assert [r.ok for r in sorted(victim, key=lambda r: r.attempt)] == [
            False,
            True,
        ]
        _assert_bit_equal(res.results["victim"], {"x": big})
        for spec in specs[1:]:
            _assert_bit_equal(res.results[spec.key], {"x": big[:8]})
        assert _shm_entries() == before

    def test_worker_loss_counts_on_metrics(self):
        with use_metrics(MetricsRegistry()) as registry:
            ProcessExecutor(n_workers=2).map(
                _suicide_on_first_attempt,
                [TaskSpec(key="victim", size_hint=1.0)] + _tasks(2),
                pass_spec=True,
                retry_policy=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
            )
            values = registry.counter_values()
        assert values["dataflow.worker.lost"] == 1
        assert values["dataflow.task.failures"] == 1
        assert values["dataflow.task.retries"] == 1

    def test_all_workers_dead_drains_loudly(self):
        # Every task kills its worker; with the pool gone the leftovers
        # must drain as failed records, not hang the parent.
        res = ProcessExecutor(n_workers=2).map(
            _always_suicide,
            _tasks(6),
            pass_spec=True,
            retry_policy=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
        )
        assert len(res.lost_keys()) == 6
        assert all(not r.ok for r in res.records)
        assert any("no live worker processes remain" in r.error for r in res.records)


class TestParentSideBookkeeping:
    def test_on_complete_runs_in_parent(self):
        seen = []

        def on_complete(record, value):
            seen.append((record.key, record.ok, value, os.getpid()))

        res = ProcessExecutor(n_workers=2).map(
            _double, [(f"k{i}", i, 1.0) for i in range(6)],
            on_complete=on_complete,
        )
        assert len(seen) == 6
        assert {pid for (_, _, _, pid) in seen} == {os.getpid()}
        assert {(k, v) for (k, _, v, _) in seen} == {
            (f"k{i}", i * 2) for i in range(6)
        }
        assert res.n_failed == 0

    def test_worker_metric_deltas_merge_into_parent(self):
        with use_metrics(MetricsRegistry()) as registry:
            ProcessExecutor(n_workers=2).map(
                _count_and_echo, [(f"k{i}", i, 1.0) for i in range(10)]
            )
            values = registry.counter_values()
        assert values["test.worker.widgets"] == 10

    def test_task_spans_recorded_in_parent(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("stage", "unit", ambient=True) as stage:
                ProcessExecutor(n_workers=2).map(
                    _double, [(f"k{i}", i, 1.0) for i in range(4)]
                )
        task_spans = [s for s in tracer.spans if s.category == "task"]
        assert len(task_spans) == 4
        assert {s.name for s in task_spans} == {f"k{i}" for i in range(4)}
        assert all(s.parent_id == stage.span_id for s in task_spans)
        assert all(s.end is not None and s.end >= s.start for s in task_spans)
        assert all(s.attrs["ok"] for s in task_spans)
