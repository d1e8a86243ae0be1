"""Exporters: Chrome trace-event JSON, metrics dumps, run manifests.

``trace.json`` follows the Chrome ``trace_event`` format (the
"JSON Object Format": a top-level object with a ``traceEvents`` list),
loadable directly in ``chrome://tracing`` or Perfetto — the replacement
for the ASCII Gantt as the primary Fig. 2 view.  Span timestamps are
kept as *fractional* microseconds so a trace → lanes round trip
reproduces busy-seconds to float precision, which the Fig. 2 benchmark
asserts against the legacy :func:`~repro.dataflow.reporting.extract_gantt`
path.

Layout conventions:

* one ``pid`` per clock domain — ``pid=1`` wall-clock spans, ``pid=2``
  simulated-time spans (labelled via ``process_name`` metadata), so the
  two timelines never interleave on one axis;
* one ``tid`` (lane) per worker, named after the worker id; spans with
  no worker attribute (run/stage) land on lane 0 ("pipeline");
* spans export as ``ph="X"`` complete events, tracer instants as
  ``ph="i"`` thread-scoped instant events.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Iterable, Iterator

from .metrics import MetricsRegistry
from .tracer import Span, TraceEventRecord, Tracer

__all__ = [
    "WALL_PID",
    "SIM_PID",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "lanes_from_trace",
    "write_metrics_json",
    "write_metrics_csv",
    "build_manifest",
    "write_manifest",
]

#: pid per clock domain (see module docstring).
WALL_PID = 1
SIM_PID = 2
_PID_NAMES = {WALL_PID: "wall clock (s)", SIM_PID: "simulated clock (s)"}

#: Lane for spans with no worker attribute (run/stage coordination).
_PIPELINE_TID = 0


def _lane_key(span: Span) -> str | None:
    worker = span.attrs.get("worker")
    return str(worker) if worker is not None else None


def _trace_events(
    spans: Iterable[Span], events: Iterable[TraceEventRecord]
) -> Iterator[dict]:
    """The trace's events one at a time: spans, instants, then metadata.

    Worker lanes get stable ``tid`` numbers in first-seen order per
    clock domain, plus ``thread_name`` metadata rows so the viewer
    shows worker ids instead of bare numbers.  Open spans (``end is
    None``) are skipped — a trace is exported after its run finishes.
    """
    lanes: dict[tuple[int, str], int] = {}
    lanes_per_pid: dict[int, int] = {}
    used_pids: set[int] = set()

    def pid_for(attrs: dict[str, Any]) -> int:
        pid = SIM_PID if attrs.get("clock") == "sim" else WALL_PID
        used_pids.add(pid)
        return pid

    def tid_for(pid: int, lane: str | None) -> int:
        if lane is None:
            return _PIPELINE_TID
        key = (pid, lane)
        if key not in lanes:
            lanes[key] = lanes_per_pid[pid] = lanes_per_pid.get(pid, 0) + 1
        return lanes[key]

    for span in spans:
        if span.end is None:
            continue
        pid = pid_for(span.attrs)
        tid = tid_for(pid, _lane_key(span))
        args = {k: v for k, v in span.attrs.items() if k != "clock"}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        yield {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": args,
        }
    for event in events:
        pid = pid_for(event.attrs)
        tid = tid_for(pid, event.attrs.get("worker"))
        yield {
            "name": event.name,
            "cat": event.category,
            "ph": "i",
            "s": "t",
            "ts": event.timestamp * 1e6,
            "pid": pid,
            "tid": tid,
            "args": dict(event.attrs),
        }
    for pid in sorted(used_pids):
        yield {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": _PID_NAMES.get(pid, f"pid {pid}")},
        }
        yield {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": _PIPELINE_TID,
            "args": {"name": "pipeline"},
        }
    for (pid, lane), tid in sorted(lanes.items(), key=lambda kv: kv[1]):
        yield {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": lane},
        }


def chrome_trace(
    spans: Iterable[Span],
    events: Iterable[TraceEventRecord] = (),
    metadata: dict[str, Any] | None = None,
) -> dict:
    """The Chrome trace-event JSON object, whole in memory.

    For in-memory readers (:func:`lanes_from_trace`, tests); a run's
    ``trace.json`` is written by :func:`write_chrome_trace`, which
    streams the same events.
    """
    return {
        "traceEvents": list(_trace_events(spans, events)),
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }


def write_chrome_trace(
    path: str | Path,
    spans: Iterable[Span] | Tracer,
    events: Iterable[TraceEventRecord] | None = None,
    metadata: dict[str, Any] | None = None,
) -> None:
    """Write ``trace.json``; accepts a tracer or an explicit span list.

    The file is written one event at a time, so neither the event list
    nor the JSON text is ever whole in memory; its bytes are those of
    ``json.dumps(chrome_trace(spans, events, metadata))``.
    """
    if isinstance(spans, Tracer):
        tracer = spans
        spans = tracer.spans
        if events is None:
            events = tracer.events
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"traceEvents": [')
        for i, event in enumerate(_trace_events(spans, events or ())):
            if i:
                fh.write(", ")
            fh.write(json.dumps(event))
        fh.write('], "displayTimeUnit": "ms", "otherData": ')
        fh.write(json.dumps(dict(metadata or {})))
        fh.write("}")


def validate_chrome_trace(trace: dict) -> list[str]:
    """Schema check; returns a list of violations (empty = valid).

    Checks the subset of the trace-event contract our exporter and the
    CI smoke rely on: the JSON Object Format envelope, required keys
    per phase, non-negative timestamps/durations, and integer pids and
    tids.
    """
    errors: list[str] = []
    if not isinstance(trace, dict):
        return ["trace must be a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M", "B", "E", "C"):
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event.get("name"):
            errors.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where}: {key} must be an integer")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: ts must be a non-negative number")
        if not isinstance(event.get("cat"), str):
            errors.append(f"{where}: missing cat")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: dur must be a non-negative number")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            errors.append(f"{where}: instant scope must be t/p/g")
    return errors


def lanes_from_trace(
    trace: dict, category: str = "task", pid: int | None = None
) -> dict[str, list[tuple[float, float]]]:
    """Per-worker busy intervals recovered from an exported trace.

    Returns ``{worker_id: [(start_s, end_s), ...]}`` sorted by start,
    using the ``thread_name`` metadata to translate lane numbers back
    to worker ids.  This is the Fig. 2 Gantt, re-derived from the
    artifact instead of the in-memory run — the benchmark asserts it
    matches the legacy record-based extraction.
    """
    names: dict[tuple[int, int], str] = {}
    for event in trace.get("traceEvents", ()):
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            names[(event["pid"], event["tid"])] = event["args"]["name"]
    lanes: dict[str, list[tuple[float, float]]] = {}
    for event in trace.get("traceEvents", ()):
        if event.get("ph") != "X" or event.get("cat") != category:
            continue
        if pid is not None and event.get("pid") != pid:
            continue
        lane = names.get(
            (event["pid"], event["tid"]), f"tid-{event['tid']}"
        )
        start = event["ts"] / 1e6
        lanes.setdefault(lane, []).append((start, start + event["dur"] / 1e6))
    return {lane: sorted(spans) for lane, spans in sorted(lanes.items())}


def write_metrics_json(
    path: str | Path, registry: MetricsRegistry
) -> dict:
    """Write the flat metrics dump (``metrics.json``)."""
    payload = registry.snapshot()
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return payload


def write_metrics_csv(path: str | Path, registry: MetricsRegistry) -> None:
    """Scalar metrics as CSV (histograms reduced to summary stats)."""
    snapshot = registry.snapshot()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "kind", "value"])
        for name, value in snapshot["counters"].items():
            writer.writerow([name, "counter", repr(value)])
        for name, value in snapshot["gauges"].items():
            writer.writerow([name, "gauge", repr(value)])
        for name, hist in snapshot["histograms"].items():
            for stat in ("count", "sum", "min", "max"):
                writer.writerow(
                    [f"{name}.{stat}", "histogram", repr(hist[stat])]
                )


def build_manifest(**fields: Any) -> dict:
    """Assemble the per-run ``manifest.json`` payload.

    Standard keys (library/git/python provenance) are filled in here;
    callers add run-specific ones (preset, seed, fingerprints, wall and
    simulated times).  Everything must be JSON-serializable.
    """
    import platform
    import subprocess

    from .. import __version__

    manifest: dict[str, Any] = {
        "schema": "repro.telemetry.manifest/1",
        "repro_version": __version__,
        "python": platform.python_version(),
    }
    try:
        import numpy

        manifest["numpy"] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep
        pass
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if describe.returncode == 0:
            manifest["git_describe"] = describe.stdout.strip()
    except Exception:  # git missing / not a checkout: provenance degrades
        pass
    manifest.update(fields)
    return manifest


def write_manifest(path: str | Path, **fields: Any) -> dict:
    manifest = build_manifest(**fields)
    Path(path).write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return manifest
