"""``repro report``: summarize an exported telemetry run directory.

Reads the three artifacts a :class:`~repro.telemetry.session.
TelemetrySession` export produces and renders the questions the paper
answered with its per-task CSVs and Fig. 2: where did the time go per
stage, how evenly did workers run, and what did the counters see
(cache hits, retries, OOMs, Verlet rebuilds).  Pure artifact
consumption — no live pipeline objects — so it works on any run
directory, including ones shipped from another machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .export import SIM_PID, WALL_PID, lanes_from_trace, validate_chrome_trace

__all__ = ["RunArtifacts", "load_run", "render_report"]


@dataclass
class RunArtifacts:
    """Parsed contents of one exported run directory."""

    run_dir: Path
    manifest: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def stage_spans(self) -> list[dict]:
        """Stage-category complete events, in start order."""
        spans = [
            e
            for e in self.trace.get("traceEvents", ())
            if e.get("ph") == "X" and e.get("cat") == "stage"
        ]
        return sorted(spans, key=lambda e: e["ts"])


def load_run(run_dir: str | Path) -> RunArtifacts:
    """Load and schema-check a run directory's artifacts."""
    run_dir = Path(run_dir)
    artifacts = RunArtifacts(run_dir=run_dir)
    for name in ("manifest", "trace", "metrics"):
        path = run_dir / f"{name}.json"
        if not path.exists():
            raise FileNotFoundError(f"missing telemetry artifact: {path}")
        setattr(artifacts, name, json.loads(path.read_text(encoding="utf-8")))
    errors = validate_chrome_trace(artifacts.trace)
    if errors:
        raise ValueError(
            f"{run_dir / 'trace.json'} is not a valid Chrome trace: "
            + "; ".join(errors[:3])
        )
    return artifacts


def _utilization_lines(
    lanes: dict[str, list[tuple[float, float]]], label: str
) -> list[str]:
    if not lanes:
        return []
    finishes = {
        lane: intervals[-1][1] for lane, intervals in lanes.items() if intervals
    }
    if not finishes:
        return []
    makespan = max(finishes.values())
    busy = {
        lane: sum(e - s for s, e in intervals)
        for lane, intervals in lanes.items()
    }
    total_busy = sum(busy.values())
    util = (
        total_busy / (len(lanes) * makespan) if makespan > 0 else 0.0
    )
    spread = max(finishes.values()) - min(finishes.values())
    lines = [
        f"{label}: {len(lanes)} worker lanes, makespan {makespan:.2f} s, "
        f"utilization {util:.1%}, finish spread {spread:.2f} s"
    ]
    ranked = sorted(busy.items(), key=lambda kv: -kv[1])
    for lane, seconds in ranked[:5]:
        n = len(lanes[lane])
        lines.append(
            f"  {lane[-24:]:>24}  {seconds:10.2f} s busy  {n:5d} task(s)"
        )
    if len(ranked) > 5:
        lines.append(f"  ... and {len(ranked) - 5} more lanes")
    return lines


def render_report(artifacts: RunArtifacts) -> str:
    """The human-readable stage/worker/counter summary."""
    lines: list[str] = []
    manifest = artifacts.manifest
    lines.append(f"run: {artifacts.run_dir}")
    for key in (
        "preset",
        "seed",
        "species",
        "n_targets",
        "library_fingerprint",
        "git_describe",
        "repro_version",
        "wall_seconds",
        "sim_walltime_seconds",
    ):
        if key in manifest:
            lines.append(f"  {key:22} {manifest[key]}")
    stages = artifacts.stage_spans()
    if stages:
        lines.append("")
        lines.append("stages (wall clock):")
        for span in stages:
            args = span.get("args", {})
            extras = ", ".join(
                f"{k}={args[k]}"
                for k in ("n_tasks", "n_workers", "sim_walltime_seconds")
                if k in args
            )
            lines.append(
                f"  {span['name']:<12} {span['dur'] / 1e6:9.3f} s"
                + (f"  ({extras})" if extras else "")
            )
    for pid, label in ((WALL_PID, "wall tasks"), (SIM_PID, "simulated tasks")):
        util = _utilization_lines(
            lanes_from_trace(artifacts.trace, category="task", pid=pid), label
        )
        if util:
            lines.append("")
            lines.extend(util)
    counters = artifacts.metrics.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<40} {value:g}")
        local = counters.get("dataflow.dispatch.local", 0)
        stolen = counters.get("dataflow.dispatch.stolen", 0)
        if local or stolen:
            lines.append(
                f"  dispatch locality: {local / (local + stolen):.1%} of "
                f"{local + stolen:g} chained dispatches ran where their "
                f"inputs were produced ({stolen:g} stolen)"
            )
        # Callers that found a lazy build already in flight on another
        # thread and waited for it (repro.singleflight); a worker
        # process is one thread, so a process-backend run reads 0.
        lines.append(
            "  coalesced builds: "
            + ", ".join(
                f"{counters.get(name, 0):g} {what}"
                for name, what in (
                    ("fold.native.coalesced", "native"),
                    ("fold.family_fold.coalesced", "family fold"),
                    ("msa.index.coalesced", "k-mer index"),
                )
            )
            + " (waited on another thread's build)"
        )
    gauges = artifacts.metrics.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges:")
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name:<40} {value:g}")
    histograms = artifacts.metrics.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append("histograms:")
        for name, hist in sorted(histograms.items()):
            if not hist.get("count"):
                continue
            mean = hist["sum"] / hist["count"]
            lines.append(
                f"  {name:<40} n={hist['count']:<6d} "
                f"mean={mean:.4g} min={hist['min']:.4g} "
                f"max={hist['max']:.4g}"
            )
    return "\n".join(lines)
