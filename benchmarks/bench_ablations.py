"""Design-choice ablations called out in DESIGN.md.

Three studies the paper argues for qualitatively, quantified here:

1. **Task ordering** — descending-length submission vs random,
   ascending and file order, against the LPT reference (§3.3's load
   balancing choice).
2. **Task decomposition** — (model, target) pairs vs whole-target
   tasks: finer grain balances better (§3.3's decomposition choice).
3. **GPU-accelerated MSA** — the §5 what-if: a 38x GPU HMM engine cuts
   feature node-hours, but only the compute share, so I/O engineering
   still dominates the residual.
"""

import numpy as np
import pytest

from repro.cluster import feature_task_seconds, inference_task_seconds
from repro.core.scheduling import ORDERINGS, evaluate_ordering, order_tasks

from repro.dataflow import TaskSpec, make_workers, simulate_dataflow
from repro.sequences import rng_for
from conftest import save_result

N_TARGETS = 4000


@pytest.fixture(scope="module")
def lengths():
    rng = rng_for(0, "ablation-lengths")
    return np.clip(
        np.round(rng.lognormal(5.62, 0.52, size=N_TARGETS)), 29, 2500
    ).astype(int)


def _pair_tasks(lengths):
    return [
        TaskSpec(key=f"t{i}/m{m}", payload=int(L), size_hint=int(L))
        for i, L in enumerate(lengths)
        for m in range(5)
    ]


def _duration(task: TaskSpec) -> float:
    return inference_task_seconds(int(task.payload), 4)


def test_ordering_ablation(benchmark, lengths):
    tasks = _pair_tasks(lengths)
    workers = make_workers(8, 6)
    durations = [_duration(t) for t in tasks]

    def run_all():
        out = {}
        for name in ORDERINGS:
            ordered = order_tasks(tasks, name, rng=np.random.default_rng(0))
            result = simulate_dataflow(
                ordered, workers, _duration, sort_descending=False,
                task_overhead=0.0, startup=0.0,
            )
            out[name] = evaluate_ordering(name, result, durations)
        return out

    evals = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = [
        "Ablation 1 — task ordering (48 workers, 20k tasks)",
        f"{'strategy':>11} {'makespan(h)':>12} {'spread(min)':>12} "
        f"{'util':>6} {'vs LPT':>7}",
    ]
    for name, ev in evals.items():
        lines.append(
            f"{name:>11} {ev.makespan_seconds / 3600:>12.2f} "
            f"{ev.finish_spread_seconds / 60:>12.1f} "
            f"{ev.utilization:>6.0%} {ev.lpt_ratio:>6.2f}x"
        )
    save_result("ablation_ordering", "\n".join(lines))

    # The paper's choice is within a whisker of the LPT reference ...
    assert evals["descending"].lpt_ratio < 1.02
    # ... and dominates every alternative on makespan and spread.
    for name in ("random", "ascending", "submission"):
        assert (
            evals["descending"].makespan_seconds
            <= evals[name].makespan_seconds + 1e-9
        )
        assert (
            evals["descending"].finish_spread_seconds
            <= evals[name].finish_spread_seconds + 1e-9
        )


def test_decomposition_ablation(lengths):
    """(model, target) pairs vs 5-models-in-one-task decomposition."""
    workers = make_workers(8, 6)
    pair_tasks = _pair_tasks(lengths)
    whole_tasks = [
        TaskSpec(key=f"t{i}", payload=int(L), size_hint=int(L))
        for i, L in enumerate(lengths)
    ]
    pair_run = simulate_dataflow(
        pair_tasks, workers, _duration, task_overhead=0.0, startup=0.0
    )
    whole_run = simulate_dataflow(
        whole_tasks, workers, lambda t: 5 * _duration(t),
        task_overhead=0.0, startup=0.0,
    )
    lines = [
        "Ablation 2 — task decomposition (same total work)",
        f"(model, target) pairs : makespan "
        f"{pair_run.makespan_seconds / 3600:.2f} h, spread "
        f"{pair_run.finish_spread_seconds() / 60:.1f} min",
        f"whole-target tasks    : makespan "
        f"{whole_run.makespan_seconds / 3600:.2f} h, spread "
        f"{whole_run.finish_spread_seconds() / 60:.1f} min",
    ]
    save_result("ablation_decomposition", "\n".join(lines))
    # Finer decomposition can only help the tail.
    assert pair_run.makespan_seconds <= whole_run.makespan_seconds + 1e-9
    assert (
        pair_run.finish_spread_seconds() <= whole_run.finish_spread_seconds() + 1e-9
    )


def test_gpu_msa_ablation(benchmark, lengths):
    """§5 what-if: GPU HMM engines for the feature stage."""
    def compute():
        cpu_nh = sum(
            feature_task_seconds(int(L), dataset_fraction=0.2) for L in lengths
        ) / 4 / 3600
        gpu_nh = sum(
            feature_task_seconds(int(L), dataset_fraction=0.2, gpu_accelerated=True)
            for L in lengths
        ) / 4 / 3600
        return cpu_nh, gpu_nh

    cpu_nh, gpu_nh = benchmark.pedantic(compute, rounds=1, iterations=1)
    lines = [
        "Ablation 3 — GPU-accelerated MSA search (the paper's §5 what-if)",
        f"CPU HMM engines : {cpu_nh:7.1f} node-h for {N_TARGETS} searches",
        f"GPU HMM engines : {gpu_nh:7.1f} node-h (38x on compute share only)",
        f"end-to-end gain : {cpu_nh / gpu_nh:.1f}x — far below 38x because "
        f"the I/O share does not accelerate;",
        "the paper's replication/I-O engineering remains necessary.",
    ]
    save_result("ablation_gpu_msa", "\n".join(lines))
    assert gpu_nh < cpu_nh
    # Amdahl: the end-to-end gain is far below the kernel's 38x.
    assert 1.5 <= cpu_nh / gpu_nh <= 5.0
