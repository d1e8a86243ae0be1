"""Exporters: Chrome trace schema, lane round-trips, manifests."""

import json

import pytest

from repro.dataflow import TaskSpec, extract_gantt, make_workers, simulate_dataflow
from repro.telemetry import (
    SIM_PID,
    WALL_PID,
    MetricsRegistry,
    Tracer,
    build_manifest,
    chrome_trace,
    lanes_from_trace,
    spans_from_records,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
)


def _tracer_with_spans():
    tr = Tracer()
    with tr.span("run", "campaign"):
        with tr.span("stage", "features"):
            with tr.span("task", "P0001", attrs={"worker": "w1"}):
                pass
            tr.event("cache.miss", category="feature", attrs={"key": "P0001"})
    return tr


class TestChromeTrace:
    def test_complete_events_schema(self):
        trace = chrome_trace(_tracer_with_spans().spans)
        assert validate_chrome_trace(trace) == []
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["campaign", "features", "P0001"]
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert e["pid"] == WALL_PID

    def test_parent_ids_in_args(self):
        tr = _tracer_with_spans()
        trace = chrome_trace(tr.spans)
        by_name = {
            e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"
        }
        run, stage = by_name["campaign"], by_name["features"]
        assert "parent_id" not in run["args"]
        assert stage["args"]["parent_id"] == run["args"]["span_id"]

    def test_instant_events(self):
        tr = _tracer_with_spans()
        trace = chrome_trace(tr.spans, tr.events)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "cache.miss"
        assert instants[0]["s"] == "t"
        assert validate_chrome_trace(trace) == []

    def test_pid_per_clock_domain(self):
        wall = _tracer_with_spans().spans
        sim = spans_from_records(
            simulate_dataflow(
                [TaskSpec(key="t0", size_hint=1.0)],
                make_workers(1, 1),
                lambda t: 1.0,
            ).records
        )
        trace = chrome_trace(wall + sim)
        pids = {e["name"]: e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert pids["campaign"] == WALL_PID
        assert pids["t0"] == SIM_PID
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert names[(WALL_PID, 0)] == "wall clock (s)"
        assert names[(SIM_PID, 0)] == "simulated clock (s)"

    def test_worker_lanes_get_thread_names(self):
        trace = chrome_trace(_tracer_with_spans().spans)
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert thread_names[0] == "pipeline"
        assert "w1" in thread_names.values()

    def test_open_spans_skipped(self):
        tr = Tracer()
        tr.start_span("stage", "never-finished")
        trace = chrome_trace(tr.spans)
        assert [e for e in trace["traceEvents"] if e["ph"] == "X"] == []

    def test_streamed_file_is_the_in_memory_trace(self, tmp_path):
        """``write_chrome_trace`` streams event by event, yet writes the
        bytes of ``json.dumps(chrome_trace(...))``: wall spans on two
        worker lanes, sim spans, instants, an open span and metadata."""
        tr = _tracer_with_spans()
        with tr.span("task", "P0002", attrs={"worker": "w2", "ok": True}):
            tr.event("oom", category="dataflow", attrs={"worker": "w2"})
        tr.start_span("stage", "never-finished")
        tr.extend(
            spans_from_records(
                simulate_dataflow(
                    [TaskSpec(key=f"t{i}", size_hint=1.0) for i in range(3)],
                    make_workers(1, 2),
                    lambda t: 1.0,
                ).records,
                clock="sim",
            )
        )
        metadata = {"run": "unit", "n": 3, "ratio": 0.1}
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tr, metadata=metadata)
        expected = json.dumps(chrome_trace(tr.spans, tr.events, metadata))
        assert path.read_bytes() == expected.encode("utf-8")
        trace = json.loads(expected)
        assert {e["pid"] for e in trace["traceEvents"]} == {WALL_PID, SIM_PID}
        assert {e["ph"] for e in trace["traceEvents"]} == {"X", "i", "M"}

        empty = tmp_path / "empty.json"
        write_chrome_trace(empty, [], [])
        assert empty.read_text() == json.dumps(chrome_trace([]))

    def test_write_accepts_tracer(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, _tracer_with_spans())
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        assert any(e["name"] == "cache.miss" for e in loaded["traceEvents"])


class TestValidation:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": {}}) != []

    def test_rejects_bad_events(self):
        bad = {
            "traceEvents": [
                {"ph": "Z", "name": "x", "pid": 1, "tid": 1},
                {"ph": "X", "name": "", "pid": 1, "tid": 1, "ts": 0, "dur": 1,
                 "cat": "c"},
                {"ph": "X", "name": "n", "pid": "one", "tid": 1, "ts": 0,
                 "dur": 1, "cat": "c"},
                {"ph": "X", "name": "n", "pid": 1, "tid": 1, "ts": -5,
                 "dur": 1, "cat": "c"},
                {"ph": "i", "name": "n", "pid": 1, "tid": 1, "ts": 0,
                 "cat": "c", "s": "x"},
            ]
        }
        errors = validate_chrome_trace(bad)
        assert len(errors) == 5


class TestLaneRoundTrip:
    def test_lanes_match_legacy_gantt(self):
        tasks = [TaskSpec(key=f"t{i}", size_hint=float(i % 5 + 1)) for i in range(40)]
        run = simulate_dataflow(tasks, make_workers(2, 3), lambda t: t.size_hint)
        trace = chrome_trace(spans_from_records(run.records))
        lanes = lanes_from_trace(trace, pid=SIM_PID)
        legacy = {lane.short_id: lane for lane in extract_gantt(run.records)}
        assert {wid[-6:] for wid in lanes} == set(legacy)
        for wid, intervals in lanes.items():
            oracle = legacy[wid[-6:]]
            assert len(intervals) == oracle.n_tasks
            busy = sum(e - s for s, e in intervals)
            assert busy == pytest.approx(oracle.busy_seconds, rel=1e-9)

    def test_category_and_pid_filters(self):
        tr = _tracer_with_spans()
        trace = chrome_trace(tr.spans)
        assert lanes_from_trace(trace, category="stage") != {}
        assert lanes_from_trace(trace, pid=SIM_PID) == {}


class TestMetricsExport:
    def test_json_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("feature.cache.hits").inc(3)
        reg.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        payload = write_metrics_json(tmp_path / "metrics.json", reg)
        loaded = json.loads((tmp_path / "metrics.json").read_text())
        assert loaded == payload
        assert loaded["counters"]["feature.cache.hits"] == 3.0
        assert loaded["histograms"]["lat"]["counts"] == [0, 1, 0]

    def test_csv_rows(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, reg)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,kind,value"
        kinds = {line.split(",")[1] for line in lines[1:]}
        assert kinds == {"counter", "gauge", "histogram"}


class TestManifest:
    def test_standard_fields(self):
        manifest = build_manifest(preset="genome", seed=7)
        assert manifest["schema"] == "repro.telemetry.manifest/1"
        assert manifest["preset"] == "genome"
        assert manifest["seed"] == 7
        assert "repro_version" in manifest
        assert "python" in manifest

    def test_json_serializable(self):
        json.dumps(build_manifest(wall_seconds=1.25))
