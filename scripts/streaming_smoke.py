#!/usr/bin/env python
"""End-to-end smoke test for the streaming campaign scheduler.

Three teeth, all fast enough for CI:

1. **Output equality across schedules on the process backend.**  Runs
   the same small campaign twice — ``schedule="barrier"`` and
   ``schedule="streaming"`` — with process workers, and asserts the
   scientific outputs are bit-identical: feature bundles, top-model
   choices and pTM-scores, and relaxed CA coordinates.  The scheduler
   is an operational choice, never a scientific one.

2. **Work-conserving dispatch.**  Runs the streaming campaign on two
   worker processes and asserts neither spent less than 0.6 of the
   map's wall time running tasks: local compute workers are pool-less,
   each walks whole chains from its local lane and steals at the tail,
   so no worker idles while a peer carries a whole stage.

3. **Benchmark artifact schema.**  Runs ``benchmarks/bench_streaming.py``
   under ``BENCH_SMOKE=1`` and validates the ``BENCH_streaming.json``
   it writes: the sweep/worker-pool/makespan/TTFS/bubble shape the
   EXPERIMENTS notes quote, with streaming strictly beating the barrier
   schedule at every sweep point.

Run from the repo root (CI does)::

    PYTHONPATH=src python scripts/streaming_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def run_campaign(schedule: str, workers: int = 3):
    from repro.core import ProteomePipeline
    from repro.fold import NativeFactory
    from repro.msa import build_suite
    from repro.sequences import SequenceUniverse, synthetic_proteome

    universe = SequenceUniverse(33)
    proteome = synthetic_proteome(
        "P_mercurii", universe=universe, seed=33, scale=0.002
    )
    suite = build_suite(universe, ["P_mercurii"], seed=33, scale=0.002)
    pipeline = ProteomePipeline(
        feature_nodes=4,
        inference_nodes=2,
        relax_nodes=1,
        compute_workers=workers,
        executor_backend="process",
        schedule=schedule,
    )
    return pipeline.run(proteome, suite, NativeFactory(universe))


def compare_schedules() -> None:
    print("[1/3] barrier vs streaming campaign on the process backend")
    barrier = run_campaign("barrier")
    stream = run_campaign("streaming")

    fa, fb = barrier.feature_stage.features, stream.feature_stage.features
    check(fa.keys() == fb.keys(), f"same {len(fa)} feature bundles")
    check(
        all(
            fa[r].msa_depth == fb[r].msa_depth
            and fa[r].effective_depth == fb[r].effective_depth
            for r in fa
        ),
        "feature bundles identical (msa depth, effective depth)",
    )
    ta, tb = barrier.inference_stage.top_models, stream.inference_stage.top_models
    check(ta.keys() == tb.keys(), f"same {len(ta)} top models")
    check(
        all(
            ta[r].model_name == tb[r].model_name and ta[r].ptms == tb[r].ptms
            for r in ta
        ),
        "top-model choices and pTM-scores identical",
    )
    oa, ob = barrier.relax_stage.outcomes, stream.relax_stage.outcomes
    check(oa.keys() == ob.keys(), f"same {len(oa)} relaxed structures")
    for rid in oa:
        check(
            bool(np.array_equal(oa[rid].structure.ca, ob[rid].structure.ca))
            and oa[rid].final_energy == ob[rid].final_energy,
            f"relaxed structure bit-identical: {rid}",
        )
    check(
        stream.total_node_hours == barrier.total_node_hours,
        "node-hour accounting is schedule-invariant",
    )
    check(
        stream.streaming_simulation is not None
        and stream.campaign_walltime_seconds < barrier.campaign_walltime_seconds,
        "streaming campaign makespan beats the barrier schedule",
    )
    check(
        stream.time_to_first_structure_seconds
        < barrier.time_to_first_structure_seconds,
        "streaming time-to-first-structure beats the barrier schedule",
    )


def check_worker_balance() -> None:
    print("[2/3] busy share of each worker, 2-process streaming campaign")
    execution = run_campaign("streaming", workers=2).feature_stage.execution
    check(len(execution.workers) == 2, "campaign ran on two worker processes")
    for worker in execution.workers:
        busy = sum(
            r.duration
            for r in execution.records
            if r.worker_id == worker.worker_id
        )
        share = busy / execution.walltime_seconds
        check(
            share >= 0.6,
            f"worker {worker.short_id} busy share {share:.2f} >= 0.6",
        )


def validate_bench_artifact() -> None:
    print("[3/3] BENCH_streaming.json schema (BENCH_SMOKE=1)")
    env = dict(os.environ, BENCH_SMOKE="1", PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            "bench_streaming.py", "-x", "-q", "-p", "no:benchmark",
        ],
        cwd=REPO / "benchmarks",
        env=env,
        capture_output=True,
        text=True,
    )
    check(
        proc.returncode == 0,
        f"bench_streaming.py passed under BENCH_SMOKE=1 "
        f"(rc={proc.returncode})\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}",
    )
    payload = json.loads(
        (REPO / "benchmarks" / "results" / "BENCH_streaming.json").read_text()
    )
    check(payload["smoke"] is True, "artifact is marked as a smoke run")
    check(
        payload["campaign"]["n_tasks"]
        == 7 * payload["campaign"]["n_targets"],
        "campaign carries 7 chained tasks per target",
    )
    check(payload["startup_seconds"] > 0, "scheduler startup charge recorded")
    check(len(payload["sweep"]) >= 2, "sweep covers several worker counts")
    for row in payload["sweep"]:
        for field in ("workers", "cpu_workers", "gpu_workers"):
            check(row[field] >= 1, f"{field} recorded at {row['workers']} workers")
        for side in ("barrier", "streaming"):
            for metric in (
                "makespan_seconds",
                "time_to_first_structure_seconds",
                "bubble_seconds",
            ):
                check(
                    isinstance(row[side][metric], float)
                    and row[side][metric] >= 0.0,
                    f"{side}.{metric} present at {row['workers']} workers",
                )
        check(
            row["streaming"]["makespan_seconds"]
            < row["barrier"]["makespan_seconds"],
            f"streaming makespan wins at {row['workers']} workers "
            f"({row['makespan_speedup']:.2f}x)",
        )
        check(
            row["streaming"]["time_to_first_structure_seconds"]
            < row["barrier"]["time_to_first_structure_seconds"],
            f"streaming TTFS wins at {row['workers']} workers "
            f"({row['ttfs_speedup']:.2f}x)",
        )


def main() -> int:
    compare_schedules()
    check_worker_balance()
    validate_bench_artifact()
    print("streaming smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
