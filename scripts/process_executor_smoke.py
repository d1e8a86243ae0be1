#!/usr/bin/env python
"""End-to-end smoke test for the multiprocessing executor backend.

Four layers; the first two mirror how the paper's deployment lost and
recovered workers (§3.3):

1. **API-level worker loss.**  A ``ProcessExecutor`` runs a task that
   SIGKILLs its own worker process on the first attempt — the exact
   failure a dead node presents to the scheduler: no exception, no
   goodbye, just a closed pipe.  The run must detect the loss, requeue
   the in-flight task under the retry policy, finish with **zero lost
   keys**, and leave a ``WorkerLost`` failure record for the killed
   attempt.

2. **CLI campaign composition.**  A real ``repro campaign --executor
   process`` subprocess with a durable ``--state-dir`` must complete,
   and re-running it with ``--resume`` must skip every ledgered task —
   the process backend composes with durable state exactly like the
   threaded one (completions are ledgered in the parent).

3. **Workers run BLAS on one thread.**  Every worker, forked or
   spawned, reports each loaded OpenBLAS pool at one thread (the
   parent's pool sizes are printed beside it).  CI does not pin BLAS,
   so this is the end-to-end check that workers do not oversubscribe
   the cores.

4. **Lazy state is built once, and still pickles.**  A 2-thread barrier
   mini-campaign under a ``TelemetrySession`` must export
   ``msa.index.rebuild == n_libraries`` and run exactly the family-fold
   collapses and member re-settles one thread alone runs (racing
   threads wait for one build, :mod:`repro.singleflight`).  The same
   campaign on ``ProcessExecutor(start_method="spawn")`` — suite and
   factory shipped as pickled initargs — must reproduce the science
   with every ``*.coalesced`` counter at zero.

Run from the repo root (CI does)::

    PYTHONPATH=src python scripts/process_executor_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

from repro.core import ProteomePipeline
from repro.dataflow import ProcessExecutor, RetryPolicy, TaskSpec
from repro.dataflow.process import openblas_threads
from repro.fold import NativeFactory, generator
from repro.msa import build_suite
from repro.sequences import SequenceUniverse, synthetic_proteome
from repro.telemetry import TelemetrySession

CAMPAIGN = [
    sys.executable, "-m", "repro.cli", "campaign",
    "--species", "P_mercurii",
    "--scale", "0.002",
    "--seed", "5",
    "--feature-nodes", "2",
    "--inference-nodes", "1",
    "--relax-nodes", "1",
    "--executor", "process",
    "--compute-workers", "2",
]


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def _suicide_on_first_attempt(spec: TaskSpec):
    if spec.key == "victim" and spec.attempt == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return f"{spec.key}@{spec.attempt}"


def api_level_worker_loss() -> None:
    specs = [TaskSpec(key="victim", size_hint=10.0)] + [
        TaskSpec(key=f"t{i}", size_hint=float(i + 1)) for i in range(8)
    ]
    result = ProcessExecutor(n_workers=2).map(
        _suicide_on_first_attempt,
        specs,
        pass_spec=True,
        retry_policy=RetryPolicy(max_attempts=3, backoff_seconds=0.0),
    )
    check(result.lost_keys() == [], "zero lost keys after a worker SIGKILL")
    victim = sorted(
        (r for r in result.records if r.key == "victim"),
        key=lambda r: r.attempt,
    )
    check(
        len(victim) == 2 and not victim[0].ok,
        "killed attempt left a failure record",
    )
    check(
        "WorkerLost" in (victim[0].error or ""),
        f"failure record names the worker loss: {victim[0].error!r}",
    )
    check(
        victim[1].ok and result.results["victim"] == "victim@2",
        "in-flight task was requeued and completed on attempt 2",
    )
    check(
        all(result.results[f"t{i}"] == f"t{i}@1" for i in range(8)),
        "bystander tasks all completed first attempt",
    )


def _blas_threads(_payload):
    return openblas_threads()


def worker_blas_threads() -> None:
    print(f"  parent OpenBLAS pools: {openblas_threads()} threads")
    for start_method in ("fork", "spawn"):
        result = ProcessExecutor(2, start_method=start_method).map(
            _blas_threads, [(f"k{i}", i, 1.0) for i in range(4)]
        )
        counts = list(result.results.values())
        check(
            result.n_failed == 0
            and len(counts) == 4
            and all(c and set(c) == {1} for c in counts),
            f"{start_method}ed workers run each OpenBLAS pool on one "
            f"thread ({counts})",
        )


def cli_campaign_composition() -> None:
    with tempfile.TemporaryDirectory(prefix="process-executor-") as workdir:
        _cli_campaign_resume(Path(workdir) / "campaign-state")


def _cli_campaign_resume(state_dir: Path) -> None:
    fresh = subprocess.run(
        CAMPAIGN + ["--state-dir", str(state_dir)],
        capture_output=True, text=True,
    )
    check(
        fresh.returncode == 0,
        f"process-backend campaign completed (rc={fresh.returncode})",
    )
    check("quality  :" in fresh.stdout, "campaign reached the summary")
    check(
        (state_dir / "ledger.jsonl").exists(),
        "durable ledger written by the parent process",
    )

    resumed = subprocess.run(
        CAMPAIGN + ["--state-dir", str(state_dir), "--resume"],
        capture_output=True, text=True,
    )
    check(
        resumed.returncode == 0,
        f"process-backend resume completed (rc={resumed.returncode})",
    )
    check(
        "resume   : skipped" in resumed.stdout,
        "resume skipped the ledgered work",
    )


class SpawnPipeline(ProteomePipeline):
    """The pipeline on two *spawned* worker processes (no CLI flag
    selects the start method; fork is the default where it exists)."""

    def _executor(self, n_items: int, highmem_workers: int = 0):
        return ProcessExecutor(
            2, highmem_workers=min(highmem_workers, 2), start_method="spawn"
        )


def _science(result) -> dict:
    tops = result.inference_stage.top_models
    return {
        rid: (tops[rid].ptms, outcome.final_energy, outcome.structure.ca.tobytes())
        for rid, outcome in sorted(result.relax_stage.outcomes.items())
    }


def _mini_campaign(pipeline_cls, universe, proteome, **kwargs):
    """Run a 2-worker campaign on fresh lazy state; return the result,
    its exported counters and the suite's library count."""
    suite = build_suite(universe, ["P_mercurii"], seed=5, scale=0.002)
    with tempfile.TemporaryDirectory(prefix="single-flight-") as run_dir:
        result = pipeline_cls(
            feature_nodes=2, inference_nodes=1, relax_nodes=1,
            compute_workers=2, telemetry=TelemetrySession(run_dir), **kwargs,
        ).run(proteome, suite, NativeFactory(universe))
        metrics = json.loads((Path(run_dir) / "metrics.json").read_text())
    return result, metrics["counters"], len(suite.libraries)


def single_flight_and_spawn() -> None:
    universe = SequenceUniverse(5)
    proteome = synthetic_proteome(
        "P_mercurii", universe=universe, seed=5, scale=0.002
    )
    # Count collapses where they happen: a family fold runs
    # compact_chain with the factory's step count, a member re-settle
    # with 40.  One thread alone sets the expectation.
    real, calls, lock = generator.compact_chain, [], threading.Lock()

    def counted(chain, rng, n_steps=None):
        with lock:
            calls.append("resettle" if n_steps == 40 else "fold")
        return real(chain, rng, n_steps=n_steps)

    generator.compact_chain = counted
    try:
        serial = NativeFactory(universe)
        for record in proteome:
            serial.native(record)
        expected = sorted(calls)
        calls.clear()
        threaded, counters, n_libraries = _mini_campaign(
            ProteomePipeline, universe, proteome
        )
    finally:
        generator.compact_chain = real
    check(
        counters.get("msa.index.rebuild") == n_libraries,
        f"2 threads froze each of {n_libraries} library indexes once "
        f"(msa.index.rebuild={counters.get('msa.index.rebuild'):g})",
    )
    check(
        sorted(calls) == expected,
        f"2 threads ran the serial build counts: "
        f"{expected.count('fold')} family folds, "
        f"{expected.count('resettle')} member re-settles",
    )

    spawned, counters, _ = _mini_campaign(
        SpawnPipeline, universe, proteome,
        executor_backend="process", schedule="streaming",
    )
    check(
        _science(spawned) == _science(threaded),
        "spawned workers (pickled suite + factory) reproduce the science",
    )
    check(
        not any(v for k, v in counters.items() if k.endswith(".coalesced")),
        "single-threaded worker processes never waited on a build",
    )


def main() -> int:
    print("[1/4] API-level worker kill -9 / requeue")
    api_level_worker_loss()
    print("[2/4] CLI campaign with --executor process + --state-dir/--resume")
    cli_campaign_composition()
    print("[3/4] worker BLAS pools run on one thread")
    worker_blas_threads()
    print("[4/4] lazy state: built once under 2 threads, pickles to spawn")
    single_flight_and_spawn()
    print("process-executor smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
