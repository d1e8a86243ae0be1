"""Batched relaxation: many structures through the dataflow executor.

The paper's relaxation stage is embarrassingly parallel — 3,205 top
models across 48 GPU workers (§4.5).  :func:`relax_many` is the library
entry point for that shape of work: systems are prepared once up front
(violation census + MM system build, both cheap and rng-keyed by
structure so order never matters), then the minimisations — the
expensive part — run as one task per structure on a
:class:`~repro.dataflow.engine.ThreadedExecutor` with the same
greedy descending-size dispatch the paper's deployment used.  Library
callers and the relaxation benchmarks all funnel through here, so there
is exactly one batched-relax code path to keep correct.  (A campaign's
relax tasks are not a batch: each is a node of the per-sequence DAG and
prepares and minimises its own structure on the worker that runs it —
the relax row's ``run`` in :data:`repro.core.stagework.STAGES`, reached
through :func:`~repro.core.stagework.streaming_task` — through the same
:class:`SinglePassRelaxProtocol`.)

Outcomes are independent of worker count and dispatch order; a
property test pins ``relax_many`` to the serial protocol loop.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from ..dataflow.engine import (
    ExecutionResult,
    ThreadedExecutor,
    auto_worker_count,
)
from ..dataflow.process import ProcessExecutor
from ..dataflow.scheduler import TaskSpec
from ..structure.protein import Structure
from ..telemetry.tracer import get_tracer
from .protocols import RelaxOutcome, SinglePassRelaxProtocol

__all__ = ["BatchRelaxResult", "relax_many"]


@dataclass(frozen=True)
class BatchRelaxResult:
    """Outcomes of one batched relaxation run, keyed like the input."""

    outcomes: dict[str, RelaxOutcome]
    execution: ExecutionResult

    @property
    def walltime_seconds(self) -> float:
        return self.execution.walltime_seconds

    @property
    def models_per_second(self) -> float:
        return len(self.outcomes) / max(self.execution.walltime_seconds, 1e-9)

    def total_violations_after(self) -> tuple[int, int]:
        """(clashes, bumps) summed over the batch — the §4.4 census."""
        clashes = sum(
            o.violations_after.n_clashes for o in self.outcomes.values()
        )
        bumps = sum(o.violations_after.n_bumps for o in self.outcomes.values())
        return clashes, bumps


def relax_many(
    structures: Mapping[str, Structure],
    executor: ThreadedExecutor | ProcessExecutor | None = None,
) -> BatchRelaxResult:
    """Relax a batch of structures on executor workers, with the relax
    stage's protocol (:class:`SinglePassRelaxProtocol` on ``"gpu"``).

    Keys of ``structures`` become task keys.  Without an ``executor``
    the batch runs on threads, one per usable core, capped at 8 and at
    the batch size; pass one to reuse a configured executor (the
    executor-scaling benchmark does) — threaded or process-backed,
    since the task callable (a bound protocol method) and the prepared
    systems both pickle.  Task failures are not tolerated here — a
    relaxation that throws is a bug, not an operational event — so any
    failed record re-raises.
    """
    protocol = SinglePassRelaxProtocol(device="gpu")
    tracer = get_tracer()
    with tracer.span(
        "batch",
        "relax_many",
        attrs={"n_structures": len(structures), "device": protocol.device},
    ):
        with tracer.span("phase", "relax.prepare"):
            prepared = {
                key: protocol.prepare(structure)
                for key, structure in structures.items()
            }
        tasks = [
            TaskSpec(key=key, payload=prep, size_hint=len(structures[key]))
            for key, prep in prepared.items()
        ]
        if executor is None:
            executor = ThreadedExecutor(
                min(auto_worker_count(), max(1, len(tasks)))
            )
        execution = executor.map(protocol.run_prepared, tasks, stage="relax")
    failed = [r for r in execution.records if not r.ok]
    if failed:
        summary = "; ".join(f"{r.key}: {r.error}" for r in failed[:3])
        raise RuntimeError(
            f"relax_many: {len(failed)} relaxation(s) failed — {summary}"
        )
    outcomes = {key: execution.results[key] for key in structures}
    return BatchRelaxResult(outcomes=outcomes, execution=execution)
