"""§4.5: genome-scale relaxation throughput.

The paper relaxed all 3,205 *D. vulgaris* top models in 22.89 minutes
on 8 Summit nodes x 6 Dask workers = 48 GPU workers.  Regenerates that
number by simulating the relaxation workflow over a D. vulgaris-sized
set of system sizes with the calibrated GPU cost model, and contrasts
it with the same workload under the original AF2 CPU protocol.
"""

import numpy as np
import pytest

from repro.cluster import relax_task_seconds
from repro.constants import GENOME_RELAX_MINUTES, GENOME_RELAX_WORKERS
from repro.dataflow import TaskSpec, make_workers, simulate_dataflow
from repro.relax import relax_many
from repro.sequences import rng_for
from conftest import save_result

N_STRUCTURES = 3205


@pytest.fixture(scope="module")
def heavy_atom_sizes():
    """Heavy-atom counts of a D. vulgaris-like proteome (~7.8/residue)."""
    rng = rng_for(0, "genome-relax-sizes")
    lengths = np.clip(
        np.round(rng.lognormal(5.62, 0.52, size=N_STRUCTURES)), 29, 2500
    )
    return (lengths * 7.8).astype(int)


def test_genome_relaxation_walltime(benchmark, heavy_atom_sizes):
    tasks = [
        TaskSpec(key=f"s{i}", payload=int(a), size_hint=int(a))
        for i, a in enumerate(heavy_atom_sizes)
    ]
    workers = make_workers(8, 6)  # 48 workers, the paper's layout
    result = benchmark.pedantic(
        simulate_dataflow,
        args=(tasks, workers, lambda t: relax_task_seconds(int(t.payload), 1, "gpu")),
        kwargs={"task_overhead": 0.5, "startup": 60.0},
        rounds=1,
        iterations=1,
    )
    gpu_minutes = result.walltime_minutes
    cpu_result = simulate_dataflow(
        tasks,
        workers,
        lambda t: relax_task_seconds(int(t.payload), 2, "cpu"),
        task_overhead=0.5,
        startup=60.0,
    )
    lines = [
        "S4.5 — genome-scale relaxation of 3205 structures on 48 workers",
        f"optimized GPU protocol : {gpu_minutes:6.1f} min "
        f"[paper: {GENOME_RELAX_MINUTES} min on {GENOME_RELAX_WORKERS} workers]",
        f"AF2 CPU protocol       : {cpu_result.walltime_minutes:6.1f} min "
        f"(same worker count, for contrast)",
        f"speedup                : "
        f"{cpu_result.walltime_minutes / gpu_minutes:5.1f}x",
    ]
    save_result("genome_relaxation", "\n".join(lines))

    # Within a factor ~1.6 of the paper's 22.89 minutes.
    assert 14 <= gpu_minutes <= 38
    assert cpu_result.walltime_minutes > 5 * gpu_minutes


def test_real_batch_relaxation(casp19):
    """A real (scaled-down) batch through the genome entry point:
    ``relax_many`` is what the relax stage runs, so the simulated
    numbers above describe the same per-model computation."""
    structures = {
        t.record.record_id: t.models[0].structure for t in casp19
    }
    batch = relax_many(structures)
    assert set(batch.outcomes) == set(structures)
    assert all(o.converged for o in batch.outcomes.values())
    clashes, _bumps = batch.total_violations_after()
    assert clashes == 0  # §4.4: relaxation removes clashes completely
    save_result(
        "genome_relaxation_real_batch",
        f"relax_many over {len(structures)} CASP-like top models: "
        f"{batch.models_per_second:.2f} models/sec "
        f"({batch.walltime_seconds:.2f} s wall on "
        f"{len(batch.execution.workers)} workers)",
    )


def test_all_tasks_complete(heavy_atom_sizes):
    tasks = [
        TaskSpec(key=f"s{i}", payload=int(a), size_hint=int(a))
        for i, a in enumerate(heavy_atom_sizes[:500])
    ]
    result = simulate_dataflow(
        tasks,
        make_workers(8, 6),
        lambda t: relax_task_seconds(int(t.payload), 1, "gpu"),
    )
    assert len(result.records) == 500
    assert all(r.ok for r in result.records)
