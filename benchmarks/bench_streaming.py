"""Streaming vs barrier schedules on the Fig-2 campaign.

One artifact, ``benchmarks/results/BENCH_streaming.json``: campaign
makespan and time-to-first-structure for the barrier schedule (three
sequential stage simulations, each paying its own scheduler startup,
each stage's pool idle outside its stage) against the streaming
schedule (one dependency-driven simulation over the same workers, same
per-task durations, one startup) at several worker counts, plus the
``pipeline.bubble_seconds`` each schedule accumulates — worker-seconds
idle while dependency-ready, pool-eligible work existed — derived from
the task record stream by :func:`repro.dataflow.bubbles.bubble_seconds`.

The campaign is the Fig-2 shape: target lengths drawn from the same
plant-proteome lognormal the worker-Gantt benchmark uses, five
inference tasks per target, one feature task upstream and one
relaxation downstream of each — the per-sequence chain
``feature(s) -> inference(s, m) x 5 -> relax(s)``.  Durations come from
the calibrated cost model, so the two schedules move *identical* work
across *identical* workers; only the dispatch discipline differs.

The assertions pin the PR's claim: at every worker count >= 2 the
streaming schedule strictly reduces both makespan and
time-to-first-structure, and collapses most of the barrier bubbles.

``BENCH_SMOKE=1`` shrinks the campaign and the sweep so CI can check
the artifact schema in seconds.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from repro.cluster import (
    SCHEDULER_STARTUP_SECONDS,
    feature_task_seconds,
    inference_task_seconds,
    relax_task_seconds,
)
from repro.core import streaming
from repro.dataflow import TaskSpec, make_workers, simulate_dataflow
from repro.dataflow.bubbles import bubble_seconds
from repro.fold.model import MODEL_NAMES
from repro.sequences import rng_for
from conftest import RESULTS_DIR, save_result

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
N_TARGETS = 40 if SMOKE else 600
WORKER_COUNTS = (2, 6) if SMOKE else (2, 8, 48, 192)
DATASET_FRACTION = 0.2  # the reduced dataset the paper searched


class _Target(NamedTuple):
    """Just enough of a sequence record to build campaign specs."""

    record_id: str
    length: int


def _campaign():
    """Fig-2-distributed targets plus per-task modelled durations."""
    rng = rng_for(0, "fig2-lengths")
    lengths = np.clip(
        np.round(rng.lognormal(5.72, 0.62, size=N_TARGETS)), 25, 2500
    ).astype(int)
    targets = [_Target(f"t{i:05d}", int(L)) for i, L in enumerate(lengths)]
    recycle_rng = rng_for(0, "bench-streaming-recycles")
    durations: dict[str, float] = {}
    for t in targets:
        durations[f"feature/{t.record_id}"] = feature_task_seconds(
            t.length, dataset_fraction=DATASET_FRACTION
        )
        for name in MODEL_NAMES:
            durations[f"inference/{t.record_id}/{name}"] = (
                inference_task_seconds(
                    t.length, int(recycle_rng.integers(3, 13))
                )
            )
        durations[f"relax/{t.record_id}"] = relax_task_seconds(
            8 * t.length, 1, device="gpu"
        )
    specs = streaming.build_campaign_specs(targets)
    return specs, durations


def _pools(n_workers: int):
    """Split ``n_workers`` into the ParaFold CPU/GPU pools.

    Two thirds to the GPU (inference) pool — the stage that dominates
    task count — the rest to the CPU pool that serves feature and
    relax work.  At n=2 this is one worker per pool.
    """
    gpu = max(1, (2 * n_workers) // 3)
    cpu = max(1, n_workers - gpu)
    cpu_pool = make_workers(1, cpu, pool="cpu")
    gpu_pool = make_workers(1, gpu, pool="gpu")
    return cpu_pool, gpu_pool


def _stage_duration(durations, stage):
    return lambda t: durations[f"{stage}/{t.key}"]


def _run_barrier(specs, durations, cpu_pool, gpu_pool):
    """Three sequential per-pool simulations, stitched onto one clock."""
    by_stage = {"feature": [], "inference": [], "relax": []}
    for s in specs:
        by_stage[streaming.stage_of(s)].append(
            replace(s, key=s.key.partition("/")[2], depends_on=(), pool="")
        )
    pool_of = {"feature": cpu_pool, "inference": gpu_pool, "relax": cpu_pool}
    sims = [
        (
            stage,
            simulate_dataflow(
                by_stage[stage],
                pool_of[stage],
                _stage_duration(durations, stage),
            ),
        )
        for stage in streaming.STREAM_STAGES
    ]
    records, workers, stage_specs = streaming.barrier_composite(sims, specs)
    walltime = sum(s.walltime_seconds for _, s in sims)
    return {
        "makespan_seconds": walltime,
        "time_to_first_structure_seconds": (
            streaming.time_to_first_structure_seconds(records)
        ),
        "bubble_seconds": bubble_seconds(records, workers, stage_specs),
    }


def _run_streaming(specs, durations, cpu_pool, gpu_pool):
    """One dependency-driven simulation over the pooled workers."""
    sim = streaming.simulate_streaming_campaign(
        specs, cpu_pool + gpu_pool, durations
    )
    assert all(r.ok for r in sim.records)
    assert len(sim.records) == len(specs)
    return {
        "makespan_seconds": sim.walltime_seconds,
        "time_to_first_structure_seconds": (
            streaming.time_to_first_structure_seconds(
                sim.records, startup=sim.startup_seconds
            )
        ),
        "bubble_seconds": bubble_seconds(sim.records, sim.workers, specs),
    }


def test_streaming_vs_barrier():
    specs, durations = _campaign()
    sweep = []
    for n in WORKER_COUNTS:
        cpu_pool, gpu_pool = _pools(n)
        barrier = _run_barrier(specs, durations, cpu_pool, gpu_pool)
        stream = _run_streaming(specs, durations, cpu_pool, gpu_pool)
        # The PR's bar: streaming strictly beats the barrier schedule on
        # BOTH makespan and time-to-first-structure at every n >= 2.
        assert stream["makespan_seconds"] < barrier["makespan_seconds"], n
        assert (
            stream["time_to_first_structure_seconds"]
            < barrier["time_to_first_structure_seconds"]
        ), n
        sweep.append(
            {
                "workers": len(cpu_pool) + len(gpu_pool),
                "cpu_workers": len(cpu_pool),
                "gpu_workers": len(gpu_pool),
                "barrier": barrier,
                "streaming": stream,
                "makespan_speedup": barrier["makespan_seconds"]
                / stream["makespan_seconds"],
                "ttfs_speedup": barrier["time_to_first_structure_seconds"]
                / stream["time_to_first_structure_seconds"],
            }
        )

    payload = {
        "smoke": SMOKE,
        "campaign": {
            "n_targets": N_TARGETS,
            "n_tasks": len(specs),
            "length_distribution": "lognormal(5.72, 0.62) clipped [25, 2500]",
            "dataset_fraction": DATASET_FRACTION,
        },
        "startup_seconds": SCHEDULER_STARTUP_SECONDS,
        "sweep": sweep,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_streaming.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"Streaming vs barrier schedule, Fig-2 campaign "
        f"({N_TARGETS} targets, {len(specs)} tasks)",
        f"{'workers':>8} {'barrier mk':>12} {'stream mk':>12} "
        f"{'mk x':>6} {'barrier ttfs':>13} {'stream ttfs':>12} "
        f"{'ttfs x':>7} {'bubble b':>10} {'bubble s':>10}",
    ]
    for row in sweep:
        lines.append(
            f"{row['workers']:>8}"
            f" {row['barrier']['makespan_seconds'] / 3600:>10.2f} h"
            f" {row['streaming']['makespan_seconds'] / 3600:>10.2f} h"
            f" {row['makespan_speedup']:>6.2f}"
            f" {row['barrier']['time_to_first_structure_seconds'] / 60:>9.1f} min"
            f" {row['streaming']['time_to_first_structure_seconds'] / 60:>8.1f} min"
            f" {row['ttfs_speedup']:>7.2f}"
            f" {row['barrier']['bubble_seconds'] / 3600:>8.2f} h"
            f" {row['streaming']['bubble_seconds'] / 3600:>8.2f} h"
        )
    lines.append(
        "barrier pays scheduler startup per stage and parks each pool "
        "outside its stage; streaming pays it once and keeps both pools fed"
    )
    save_result("streaming_schedule", "\n".join(lines))
