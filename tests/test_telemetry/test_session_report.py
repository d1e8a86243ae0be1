"""TelemetrySession export, run loading, report rendering, CLI report."""

import json

import pytest

from repro.cli import main
from repro.telemetry import (
    TelemetrySession,
    get_metrics,
    get_tracer,
    load_run,
    render_report,
    validate_chrome_trace,
)


def _record_small_run(session):
    with session.activate():
        tracer, metrics = get_tracer(), get_metrics()
        with tracer.span("run", "campaign"):
            with tracer.span("stage", "features", attrs={"n_tasks": 2}):
                metrics.counter("feature.cache.misses").inc(2)
                metrics.histogram("feature.task.latency_seconds").observe(0.02)
    session.annotate(preset="genome", seed=3)


class TestSession:
    def test_activate_installs_and_restores(self):
        session = TelemetrySession()
        outer_tracer, outer_metrics = get_tracer(), get_metrics()
        with session.activate():
            assert get_tracer() is session.tracer
            assert get_metrics() is session.metrics
        assert get_tracer() is outer_tracer
        assert get_metrics() is outer_metrics

    def test_export_writes_all_artifacts(self, tmp_path):
        session = TelemetrySession(tmp_path / "run")
        _record_small_run(session)
        paths = session.export(wall_seconds=0.5)
        for name in ("manifest", "trace", "metrics", "metrics_csv"):
            assert paths[name].exists()
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["preset"] == "genome"
        assert manifest["seed"] == 3
        assert manifest["wall_seconds"] == 0.5
        trace = json.loads(paths["trace"].read_text())
        assert validate_chrome_trace(trace) == []

    def test_export_without_run_dir_raises(self):
        session = TelemetrySession()
        with pytest.raises(ValueError):
            session.export()


class TestLoadRun:
    def test_round_trip(self, tmp_path):
        session = TelemetrySession(tmp_path)
        _record_small_run(session)
        session.export()
        artifacts = load_run(tmp_path)
        assert artifacts.manifest["preset"] == "genome"
        assert artifacts.metrics["counters"]["feature.cache.misses"] == 2.0
        stages = artifacts.stage_spans()
        assert [s["name"] for s in stages] == ["features"]

    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path)

    def test_invalid_trace_raises(self, tmp_path):
        session = TelemetrySession(tmp_path)
        _record_small_run(session)
        session.export()
        (tmp_path / "trace.json").write_text(
            json.dumps({"traceEvents": [{"ph": "X", "name": ""}]})
        )
        with pytest.raises(ValueError, match="not a valid Chrome trace"):
            load_run(tmp_path)


class TestRenderReport:
    def test_report_sections(self, tmp_path):
        session = TelemetrySession(tmp_path)
        _record_small_run(session)
        session.export()
        text = render_report(load_run(tmp_path))
        assert "preset" in text and "genome" in text
        assert "stages (wall clock):" in text
        assert "features" in text
        assert "feature.cache.misses" in text
        assert "feature.task.latency_seconds" in text


    def test_report_shows_dispatch_locality(self, tmp_path):
        session = TelemetrySession(tmp_path)
        _record_small_run(session)
        with session.activate():
            get_metrics().counter("dataflow.dispatch.local").inc(9)
            get_metrics().counter("dataflow.dispatch.stolen").inc(1)
        session.export()
        text = render_report(load_run(tmp_path))
        assert "dataflow.dispatch.local" in text
        assert "dispatch locality: 90.0% of 10 chained dispatches" in text
        assert "(1 stolen)" in text

    def test_report_shows_coalesced_builds(self, tmp_path):
        session = TelemetrySession(tmp_path)
        _record_small_run(session)
        with session.activate():
            get_metrics().counter("fold.native.coalesced").inc(4)
            get_metrics().counter("msa.index.coalesced").inc(2)
        session.export()
        text = render_report(load_run(tmp_path))
        # A counter nobody bumped (no thread ever waited) reads 0.
        assert (
            "coalesced builds: 4 native, 0 family fold, 2 k-mer index" in text
        )


class TestCliReport:
    def test_report_command(self, tmp_path, capsys):
        session = TelemetrySession(tmp_path)
        _record_small_run(session)
        session.export()
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "preset" in out and "counters:" in out

    def test_report_command_missing_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 1
        assert "missing telemetry artifact" in capsys.readouterr().err
