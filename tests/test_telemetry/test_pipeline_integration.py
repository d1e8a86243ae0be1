"""End-to-end: an instrumented ProteomePipeline run and its artifacts."""

import json

import pytest

from repro.core import ProteomePipeline
from repro.fold import NativeFactory
from repro.msa import build_suite
from repro.sequences import SequenceUniverse, synthetic_proteome
from repro.telemetry import (
    SIM_PID,
    TelemetrySession,
    lanes_from_trace,
    load_run,
    render_report,
    validate_chrome_trace,
)


@pytest.fixture(scope="module")
def instrumented_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("telemetry_run")
    universe = SequenceUniverse(13)
    proteome = synthetic_proteome(
        "D_vulgaris", universe=universe, seed=13, scale=0.002
    )
    suite = build_suite(universe, ["D_vulgaris"], seed=13, scale=0.002)
    pipeline = ProteomePipeline(
        feature_nodes=4,
        inference_nodes=2,
        relax_nodes=1,
        telemetry=TelemetrySession(run_dir),
    )
    result = pipeline.run(proteome, suite, NativeFactory(universe))
    return run_dir, result


class TestArtifacts:
    def test_three_artifacts_written_and_valid(self, instrumented_run):
        run_dir, _ = instrumented_run
        for name in ("manifest.json", "trace.json", "metrics.json"):
            assert (run_dir / name).exists(), name
        trace = json.loads((run_dir / "trace.json").read_text())
        assert validate_chrome_trace(trace) == []

    def test_manifest_provenance(self, instrumented_run):
        run_dir, result = instrumented_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["schema"] == "repro.telemetry.manifest/1"
        assert manifest["preset"] == "genome"
        assert manifest["n_targets"] == len(result.inference_stage.top_models)
        assert len(manifest["library_fingerprint"]) == 64
        assert manifest["wall_seconds"] > 0
        sim = manifest["sim_walltime_seconds"]
        assert set(sim) == {"features", "inference", "relax"}
        assert all(v > 0 for v in sim.values())

    def test_required_metrics_present(self, instrumented_run):
        run_dir, _ = instrumented_run
        metrics = json.loads((run_dir / "metrics.json").read_text())
        counters, histograms = metrics["counters"], metrics["histograms"]
        # task-latency histograms per stage
        for stage in ("feature", "inference", "relax"):
            hist = histograms[f"{stage}.task.latency_seconds"]
            assert hist["count"] > 0
        # retry/OOM accounting exists even when clean
        for stage in ("feature", "inference", "relax"):
            assert f"{stage}.task.retries" in counters
            assert f"{stage}.task.oom_escalations" in counters
        # Verlet neighbour-list economics from the relax stage
        assert counters["relax.verlet.rebuilds"] > 0
        assert counters["relax.minimize.count"] > 0
        # recycling stops were recorded
        assert (
            counters["fold.recycle.early_stops"]
            + counters["fold.recycle.cap_stops"]
            > 0
        )

    def test_span_tree_and_sim_lanes(self, instrumented_run):
        run_dir, result = instrumented_run
        trace = json.loads((run_dir / "trace.json").read_text())
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        by_cat = {}
        for e in xs:
            by_cat.setdefault(e["cat"], []).append(e)
        assert len(by_cat["run"]) == 1
        assert [e["name"] for e in sorted(by_cat["stage"], key=lambda e: e["ts"])] == [
            "features", "inference", "relax",
        ]
        run_id = by_cat["run"][0]["args"]["span_id"]
        stage_ids = {e["args"]["span_id"] for e in by_cat["stage"]}
        assert all(e["args"]["parent_id"] == run_id for e in by_cat["stage"])
        # every task span hangs under a stage span
        assert all(
            e["args"]["parent_id"] in stage_ids for e in by_cat["task"]
        )
        # simulated lanes are sequential (stage offsets): total busy time
        # per lane never exceeds the simulated makespan
        lanes = lanes_from_trace(trace, pid=SIM_PID)
        assert lanes
        makespan = max(iv[-1][1] for iv in lanes.values())
        for intervals in lanes.values():
            busy = sum(e - s for s, e in intervals)
            assert busy <= makespan + 1e-9

    def test_stage_metric_thin_views(self, instrumented_run):
        _, result = instrumented_run
        rx = result.relax_stage
        assert rx.verlet_rebuilds == rx.stage_metrics["relax.verlet.rebuilds"]
        assert rx.verlet_rebuilds > 0

    def test_report_renders(self, instrumented_run):
        run_dir, _ = instrumented_run
        text = render_report(load_run(run_dir))
        assert "stages (wall clock):" in text
        assert "simulated tasks:" in text
        assert "relax.verlet.rebuilds" in text
