"""Executor scaling: the threaded vs the process backend on real relax work.

One artifact, ``benchmarks/results/BENCH_executor.json``: models/sec of
the batched relax path (``relax_many``) under both executor backends
across a worker-count sweep, on the same CASP-like model census the
Fig-4 benchmarks use.  The relax stage is the paper's embarrassingly
parallel workload (§4.5) and its minimisation loop re-enters Python
every objective evaluation, so it is exactly where the GIL binds a
threaded pool and where the process backend is supposed to escape it.

Correctness comes before speed: at every (backend, worker-count) point
the relaxed coordinates must be bit-identical to the serial reference —
the backend is an operational choice, never a scientific one.

The GIL-escape bar (process >= threaded at >= 4 workers) is asserted
only where it is physically meaningful: full-size runs on a machine
with at least 4 usable cores.  On a single-core box or at smoke sizes
the sweep still runs and the artifact records the measurements plus
whether the bar applied, so CI can check artifact shape everywhere and
enforce the bar on real hardware.

``BENCH_SMOKE=1`` shrinks the census and the sweep so CI can assert the
artifact is produced in seconds.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core import casp_targets
from repro.dataflow import ProcessExecutor, ThreadedExecutor
from repro.relax import relax_many
from conftest import RESULTS_DIR, save_result

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
N_TARGETS = 5 if SMOKE else 19
MODELS_PER_TARGET = 2 if SMOKE else 3
MAX_RESIDUES = 400 if SMOKE else 600  # drop the T1080-like giant straggler
WORKER_COUNTS = (1, 2, 4) if SMOKE else (1, 2, 4, 8)
REPEATS = 1 if SMOKE else 3
#: The bar only measures something real on hardware that can actually
#: run 4 workers at once.
MIN_CORES_FOR_BAR = 4


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _best_rate(structures, executor_factory) -> float:
    """Best models/sec over ``REPEATS`` timed runs (plus one warmup)."""
    relax_many(structures, executor=executor_factory())
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        relax_many(structures, executor=executor_factory())
        best = min(best, time.perf_counter() - t0)
    return len(structures) / best


def test_executor_scaling():
    sweep = casp_targets(
        n_targets=N_TARGETS, models_per_target=MODELS_PER_TARGET, seed=11
    )
    structures = {
        f"{t.record.record_id}/{m.model_name}": m.structure
        for t in sweep
        for m in t.models
        if len(m.structure) <= MAX_RESIDUES
    }
    assert len(structures) >= 4

    reference = relax_many(
        structures, executor=ThreadedExecutor(n_workers=1)
    )

    rates: dict[str, dict[int, float]] = {"threaded": {}, "process": {}}
    backends = {
        "threaded": ThreadedExecutor,
        "process": ProcessExecutor,
    }
    for backend, cls in backends.items():
        for n in WORKER_COUNTS:
            # Bit-identity at every sweep point, against the serial run.
            run = relax_many(
                structures, executor=cls(n_workers=n)
            )
            for key, outcome in reference.outcomes.items():
                np.testing.assert_array_equal(
                    run.outcomes[key].structure.ca, outcome.structure.ca
                )
                assert (
                    run.outcomes[key].violations_after
                    == outcome.violations_after
                )
            rates[backend][n] = _best_rate(
                structures, lambda cls=cls, n=n: cls(n_workers=n)
            )

    n_cores = _usable_cores()
    bar_workers = max(w for w in WORKER_COUNTS if w >= 4)
    bar_applies = not SMOKE and n_cores >= MIN_CORES_FOR_BAR
    speedup_at_bar = rates["process"][bar_workers] / rates["threaded"][bar_workers]
    bar_met = speedup_at_bar >= 1.0 if bar_applies else None
    # When the gate is skipped, say exactly why — "bar not asserted" on
    # a 2-core CI box and in smoke mode are different facts, and the
    # artifact should let a reader tell them apart without rerunning.
    if bar_applies:
        skip_reason = None
    elif SMOKE:
        skip_reason = "BENCH_SMOKE=1: workload too small to measure GIL escape"
    else:
        skip_reason = (
            f"only {n_cores} usable core(s) detected "
            f"(sched_getaffinity); bar needs >= {MIN_CORES_FOR_BAR} to run "
            f"{bar_workers} workers concurrently"
        )
    if bar_applies:
        assert bar_met, (
            f"process backend did not beat threaded at {bar_workers} "
            f"workers on {n_cores} cores: {speedup_at_bar:.2f}x"
        )

    payload = {
        "smoke": SMOKE,
        "n_cores": n_cores,
        "workload": {
            "stage": "relax",
            "n_models": len(structures),
            "max_residues": MAX_RESIDUES,
        },
        "models_per_sec": {
            backend: {str(n): rates[backend][n] for n in WORKER_COUNTS}
            for backend in rates
        },
        "gil_escape_bar": {
            "workers": bar_workers,
            "applies": bar_applies,
            "process_over_threaded": speedup_at_bar,
            "met": bar_met,
            "n_usable_cores": n_cores,
            "skip_reason": skip_reason,
        },
        "bit_identical": True,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_executor.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        "Executor scaling on the relax stage "
        f"({len(structures)} models, {n_cores} cores)",
        f"{'workers':>8} {'threaded m/s':>14} {'process m/s':>14} {'ratio':>7}",
    ]
    for n in WORKER_COUNTS:
        ratio = rates["process"][n] / rates["threaded"][n]
        lines.append(
            f"{n:>8} {rates['threaded'][n]:>14.2f} "
            f"{rates['process'][n]:>14.2f} {ratio:>7.2f}"
        )
    lines.append(
        f"GIL-escape bar at {bar_workers} workers: "
        + (
            f"{'met' if bar_met else 'MISSED'} ({speedup_at_bar:.2f}x)"
            if bar_applies
            else f"skipped — {skip_reason}"
        )
    )
    save_result("executor_scaling", "\n".join(lines))
