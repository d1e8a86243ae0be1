"""TelemetrySession: one run's tracer + metrics + export directory.

The pipeline-facing bundle: construct one pointed at a run directory,
``activate()`` it around the work (installs its tracer and registry as
the process-wide actives), then ``export()`` writes the three
artifacts the acceptance contract names —

* ``manifest.json`` — provenance: preset, seed, library fingerprint,
  git describe, wall/sim time;
* ``trace.json``    — Chrome trace-event spans (run > stage > task >
  attempt) with worker/lane attributes;
* ``metrics.json``  — the flat counter/gauge/histogram dump (plus a
  ``metrics.csv`` convenience copy).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from .export import (
    write_chrome_trace,
    write_manifest,
    write_metrics_csv,
    write_metrics_json,
)
from .metrics import MetricsRegistry, use_metrics
from .tracer import Tracer, use_tracer

__all__ = ["TelemetrySession"]


class TelemetrySession:
    """Everything one instrumented run records, and where it lands."""

    def __init__(
        self,
        run_dir: str | Path | None = None,
        clock=None,
    ) -> None:
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.tracer = Tracer(clock=clock)
        self.metrics = MetricsRegistry()
        self.manifest_fields: dict[str, Any] = {}

    @contextmanager
    def activate(self) -> Iterator["TelemetrySession"]:
        """Install this session's tracer and registry globally."""
        with use_tracer(self.tracer), use_metrics(self.metrics):
            yield self

    def annotate(self, **fields: Any) -> None:
        """Stash manifest fields as the run learns them."""
        self.manifest_fields.update(fields)

    def export(self, **manifest_fields: Any) -> dict[str, Path]:
        """Write manifest/trace/metrics under :attr:`run_dir`."""
        if self.run_dir is None:
            raise ValueError("session has no run_dir to export into")
        self.run_dir.mkdir(parents=True, exist_ok=True)
        fields = {**self.manifest_fields, **manifest_fields}
        paths = {
            "manifest": self.run_dir / "manifest.json",
            "trace": self.run_dir / "trace.json",
            "metrics": self.run_dir / "metrics.json",
            "metrics_csv": self.run_dir / "metrics.csv",
        }
        write_manifest(paths["manifest"], **fields)
        write_chrome_trace(paths["trace"], self.tracer)
        write_metrics_json(paths["metrics"], self.metrics)
        write_metrics_csv(paths["metrics_csv"], self.metrics)
        return paths
