#!/usr/bin/env python
"""Worker load balance: Fig. 2 as ASCII art.

Simulates the inference dataflow over a heterogeneous target set twice —
with the paper's greedy descending-length submission order and with a
random order — and renders per-worker Gantt lanes.  The sorted run shows
long blue blocks early and a flat right edge (all workers finish within
minutes of one another); the random run shows a ragged tail where a few
workers grind through late-arriving long tasks alone.

Run:  python examples/worker_load_balance.py
"""

import numpy as np

from repro.cluster import inference_task_seconds
from repro.core import get_preset
from repro.core.scheduling import order_tasks
from repro.dataflow import (
    TaskSpec,
    extract_gantt,
    make_workers,
    render_ascii_gantt,
    simulate_dataflow,
)
from repro.sequences import SequenceUniverse, synthetic_proteome

N_NODES = 4  # 24 workers (the paper used up to 1000 nodes / 6000 workers)
SHOW_WORKERS = 10  # Fig. 2 shows 10 sampled lanes


def main() -> None:
    universe = SequenceUniverse(seed=1)
    proteome = synthetic_proteome("D_vulgaris", universe=universe, seed=1, scale=0.08)
    preset = get_preset("genome")
    tasks = [
        TaskSpec(
            key=f"{r.record_id}/model_{m}",
            payload=r.length,
            size_hint=r.length,
        )
        for r in proteome
        for m in range(5)
    ]
    workers = make_workers(N_NODES, 6)

    def duration(task: TaskSpec) -> float:
        # 3-recycle-equivalent cost; enough for the balancing story.
        return inference_task_seconds(int(task.payload), 3, preset.n_ensembles)

    print(f"{len(tasks)} tasks on {len(workers)} workers\n")
    random_order = order_tasks(tasks, "random", np.random.default_rng(0))
    for label, ordered, sort in (
        ("greedy descending-length order (the paper's §3.3 step 3c)", tasks, True),
        ("random order (baseline)", random_order, False),
    ):
        result = simulate_dataflow(
            ordered, workers, duration, sort_descending=sort
        )
        lanes = extract_gantt(result.records, max_workers=SHOW_WORKERS)
        print(f"== {label} ==")
        print(render_ascii_gantt(lanes, width=90))
        print(
            f"makespan {result.makespan_seconds / 60:.1f} min, "
            f"finish spread {result.finish_spread_seconds() / 60:.1f} min, "
            f"utilization {result.utilization():.0%}\n"
        )


if __name__ == "__main__":
    main()
