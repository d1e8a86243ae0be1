"""Fig. 2: distribution of inference work across Dask workers.

Simulates the 1200-worker (200-node) inference workflow over a
proteome-scale task set and regenerates the Gantt view: with the
paper's greedy descending-length submission order, long tasks run first
and all workers finish within minutes of one another; with random
order, a few workers process long tasks alone at the end.

The Gantt is derived from the telemetry trace exporter — records become
spans, spans become a Chrome ``trace_event`` object, and the worker
lanes are read back out of that artifact — with the legacy in-memory
:func:`extract_gantt` path kept as the equality oracle, so the exported
``trace.json`` is proven to carry the whole figure.
"""

import numpy as np
import pytest

from repro.cluster import inference_task_seconds
from repro.core.scheduling import order_tasks
from repro.dataflow import (
    GanttLane,
    TaskSpec,
    extract_gantt,
    make_workers,
    render_ascii_gantt,
    simulate_dataflow,
)
from repro.sequences import rng_for
from repro.telemetry import (
    SIM_PID,
    chrome_trace,
    lanes_from_trace,
    spans_from_records,
    validate_chrome_trace,
)
from conftest import save_result

N_NODES = 200  # 1200 workers, matching Fig. 2's caption
N_TARGETS = 25_134  # S. divinum-sized campaign


@pytest.fixture(scope="module")
def tasks():
    """(model, target) task sizes drawn from a plant-proteome length
    distribution — only lengths matter for the balancing question."""
    rng = rng_for(0, "fig2-lengths")
    lengths = np.clip(
        np.round(rng.lognormal(5.72, 0.62, size=N_TARGETS)), 25, 2500
    ).astype(int)
    return [
        TaskSpec(key=f"t{i}/m{m}", payload=int(L), size_hint=int(L))
        for i, L in enumerate(lengths)
        for m in range(5)
    ]


def _duration(task: TaskSpec) -> float:
    return inference_task_seconds(int(task.payload), 4)


def test_fig2_worker_gantt(benchmark, tasks):
    workers = make_workers(N_NODES, 6)
    sorted_run = benchmark.pedantic(
        simulate_dataflow,
        args=(tasks, workers, _duration),
        rounds=1,
        iterations=1,
    )
    random_run = simulate_dataflow(
        order_tasks(tasks, "random", np.random.default_rng(0)),
        workers,
        _duration,
        sort_descending=False,
    )
    # Fig. 2 now comes out of the telemetry artifact: records -> spans ->
    # Chrome trace -> lanes.  The legacy in-memory extraction is the
    # equality oracle below.
    trace = chrome_trace(spans_from_records(sorted_run.records))
    assert validate_chrome_trace(trace) == []
    trace_lanes = lanes_from_trace(trace, pid=SIM_PID)
    legacy = extract_gantt(sorted_run.records)
    assert set(trace_lanes) == {w.worker_id for w in workers}
    legacy_by_id = {
        lane.short_id: lane for lane in legacy
    }
    for worker_id, intervals in trace_lanes.items():
        oracle = legacy_by_id[worker_id[-6:]]
        busy_trace = sum(e - s for s, e in intervals)
        # Timestamps round-trip through fractional microseconds; busy
        # seconds must survive to float precision.
        assert len(intervals) == oracle.n_tasks
        assert busy_trace == pytest.approx(oracle.busy_seconds, rel=1e-9)

    # Render the usual 10-lane sample, but from the trace-derived
    # intervals (same sampling as before, keyed by short id).
    by_short = {wid[-6:]: intervals for wid, intervals in trace_lanes.items()}
    lanes = [
        GanttLane(short_id=lane.short_id, intervals=tuple(by_short[lane.short_id]))
        for lane in extract_gantt(sorted_run.records, max_workers=10)
    ]
    art = render_ascii_gantt(lanes, width=100)
    spread_sorted = sorted_run.finish_spread_seconds() / 60
    spread_random = random_run.finish_spread_seconds() / 60
    text = "\n".join(
        [
            "Fig. 2 — worker Gantt, 10 of 1200 workers (sorted submission)",
            art,
            "",
            f"makespan sorted : {sorted_run.makespan_seconds / 3600:.2f} h "
            f"(finish spread {spread_sorted:.1f} min, "
            f"utilization {sorted_run.utilization():.1%})",
            f"makespan random : {random_run.makespan_seconds / 3600:.2f} h "
            f"(finish spread {spread_random:.1f} min, "
            f"utilization {random_run.utilization():.1%})",
            "",
            "These lanes show a single stage run in isolation; under "
            "--schedule streaming the same workers interleave feature, "
            "inference and relax tasks from different sequences, so the "
            "idle tail each stage barrier leaves here is filled by the "
            "next stage's ready work (see BENCH_streaming.json).",
        ]
    )
    save_result("fig2_worker_gantt", text)

    # All 125,670 tasks completed, on every worker.  Pulling per-worker
    # lanes for all 1200 workers goes through the cached one-pass index
    # (one rescan per worker would be 150M record visits here).
    assert len(sorted_run.records) == len(tasks)
    assert len(sorted_run.worker_finish_times()) == 1200
    per_worker = [sorted_run.worker_records(w.worker_id) for w in workers]
    assert sum(len(lane) for lane in per_worker) == len(tasks)
    assert all(lane for lane in per_worker)
    # The paper's claim: workers finish within minutes of one another.
    assert spread_sorted < 15.0
    # Greedy sorting beats random ordering on both makespan and spread.
    assert sorted_run.makespan_seconds <= random_run.makespan_seconds
    assert spread_sorted < spread_random
    # Long tasks first: the first task of every lane is among the longest.
    first_starts = [lane.intervals[0] for lane in lanes]
    first_durations = [e - s for s, e in first_starts]
    later = [
        e - s for lane in lanes for s, e in lane.intervals[1:]
    ]
    assert np.mean(first_durations) > np.mean(later)
