"""Metric tables, read from ``BENCHMARK.json``.

``BENCHMARK.json`` is the one place a metric's name, unit, direction and
regression bound are written down; the harness, ``compare`` and the
driver command all judge by it.  What is added here is only what that
file cannot carry (README, "Two views"): ``failed_share``, which is 0
on every good run, and the layer metrics that are null on some workload
or constant by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ROOT",
    "CONTRACT",
    "Metric",
    "END_TO_END",
    "PER_LAYER",
    "EXACT",
    "applies",
]

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the base median by which the metric may worsen before it
    #: counts as a regression; 0 means any rise does; None means unbounded.
    bound: float | None = None


_NAMED = {
    m["name"]: Metric(**m) for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
}

#: The eight the harness prints for every workload, in the issue's order.
END_TO_END: tuple[Metric, ...] = (
    *(
        _NAMED.pop(name)
        for name in (
            "setup_s",
            "targets_per_s",
            "ttfs_s",
            "cpu_s_per_target",
            "peak_rss_mb",
            "sim_node_hours",
            "sim_makespan_s",
        )
    ),
    Metric("failed_share", "ratio", "lower", 0.0),
)

#: Layer metrics the driver cannot be given: it wants a measured number
#: on every workload, and these are null where the layer is off the
#: workload's path, zero by construction, or histogram bucket edges.
_HARNESS_ONLY = (
    Metric("dataflow.wait_p50_ms", "ms", "lower"),
    Metric("dataflow.wait_p95_ms", "ms", "lower"),
    Metric("dataflow.encode_s", "s", "lower"),
    Metric("dataflow.decode_s", "s", "lower"),
    Metric("dataflow.payload_bytes", "bytes", "lower"),
    Metric("dataflow.shm_segments", "count", "lower"),
    Metric("core.resume_wall_s", "s", "lower"),
    Metric("unattributed_s", "s", "lower"),
    Metric("runstate.commit_s", "s", "lower"),
    Metric("runstate.commits", "count", "lower"),
    Metric("runstate.commit_p95_ms", "ms", "lower"),
    Metric("runstate.bytes", "bytes", "lower"),
    Metric("runstate.restore_s", "s", "lower"),
    Metric("runstate.restored", "count", "higher"),
)

# Layers are named after ``src/repro/`` packages.
PER_LAYER: tuple[Metric, ...] = (*_NAMED.values(), *_HARNESS_ONLY)

#: What repeats exactly between two runs of one commit on one seed;
#: ``compare`` requires these identical whatever their bound.
EXACT = frozenset(
    {
        "sim_node_hours",
        "sim_makespan_s",
        "sequences.residues",
        "msa.hits",
        "fold.recycles",
        "relax.lbfgs_steps",
        "dataflow.tasks",
        "runstate.commits",
        "runstate.restored",
        "cluster.sim_bubble_s",
        "cluster.sim_ttfs_s",
    }
)

_DURABLE_ONLY = frozenset(
    m.name for m in PER_LAYER if m.name.startswith("runstate.")
) | {"core.resume_wall_s"}
_PROCESS_ONLY = frozenset(
    {
        "dataflow.encode_s",
        "dataflow.decode_s",
        "dataflow.payload_bytes",
        "dataflow.shm_segments",
    }
)


def applies(metric: str, *, durable: bool, backend: str) -> bool:
    """Is ``metric`` on this workload's path?  Where not, it reads null.

    The durability layer is only on the durable workload's path and the
    payload transport only on the process backend's.
    """
    if metric in _DURABLE_ONLY:
        return durable
    if metric in _PROCESS_ONLY:
        return backend == "process"
    return True
