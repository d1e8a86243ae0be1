"""Streaming campaign plumbing: specs, finalizers, simulation, analysis.

The barrier pipeline runs three stage-wide maps with hard joins between
them; the streaming schedule submits the whole campaign as per-sequence
dependency chains

    feature(s) → inference(s, model) × 5 → relax(s)

onto one executor, so each sequence flows to its next stage the moment
it is ready.  Specs carry the ParaFold pool labels — feature/relax on
``"cpu"``, inference on ``"gpu"`` — which bind on a heterogeneous
machine (the simulated campaign's CPU and GPU worker pools) and are
inert on the pool-less local compute workers, where each worker instead
walks whole chains from its local lane
(:class:`~repro.dataflow.scheduler.TaskQueue`).  This
module holds everything schedule-specific that is *not* executor
machinery: building the spec DAG, the highmem finalizer that fires once
a feature result reveals its MSA depth, the unified streaming
simulation, and the makespan / time-to-first-structure / barrier
composite analysis the benchmarks report.

Key conventions (shared with :mod:`repro.core.stagework`):

* task keys are stage-prefixed (``feature/<rid>``,
  ``inference/<rid>/<model>``, ``relax/<rid>``) so feature and relax —
  both keyed by record id — stay distinct in one map call;
* the relax spec's ``dep_mode="resolved"`` runs it once all five
  inference deps are *terminal*, on whichever predictions survived —
  matching the barrier stage's tolerance of OOM-lost models — and
  poisons it only when all five failed (exactly the records the barrier
  path would have dropped from ``top_models``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Iterable

from ..cluster.costmodel import SCHEDULER_STARTUP_SECONDS
from ..dataflow.faults import RetryPolicy
from ..dataflow.scheduler import TaskRecord, TaskSpec, WorkerInfo
from ..dataflow.simulated import SimulationResult, simulate_dataflow
from ..fold.memory import inference_memory_bytes

__all__ = [
    "STREAM_STAGES",
    "stage_of",
    "build_campaign_specs",
    "make_inference_finalizer",
    "simulate_streaming_campaign",
    "time_to_first_structure_seconds",
    "barrier_composite",
]

STREAM_STAGES = ("feature", "inference", "relax")

#: Pool routing, the ParaFold split: CPU-bound MSA search and (here)
#: relaxation on one pool, accelerator-bound inference on the other.
#: A hard constraint for pooled workers only.
STAGE_POOLS = {"feature": "cpu", "inference": "gpu", "relax": "cpu"}


def stage_of(spec: TaskSpec) -> str:
    """Stage name from a streaming spec's prefixed key."""
    return spec.key.partition("/")[0]


def build_campaign_specs(
    records: Iterable[Any],
    model_names: list[str],
    bias_fn: Callable[[Any], float],
) -> list[TaskSpec]:
    """The campaign DAG: one chain of 1 + N + 1 specs per sequence.

    ``records`` are sequence records (``record_id``/``length``/
    ``species``); ``model_names`` the model bank's names in bank order
    (which fixes relax's tie-break order); ``bias_fn`` maps a record to
    its kingdom bias.  Inference payloads carry ``(model_index, bias)``
    only — the feature bundle arrives later via dependency injection —
    and inference ``requires_highmem`` is left False here because MSA
    depth is unknown until the feature task runs; the
    :func:`make_inference_finalizer` hook raises it at promotion time.
    """
    specs: list[TaskSpec] = []
    for record in records:
        rid = record.record_id
        feature_key = f"feature/{rid}"
        specs.append(
            TaskSpec(
                key=feature_key,
                payload=record,
                size_hint=record.length,
                pool=STAGE_POOLS["feature"],
            )
        )
        bias = bias_fn(record)
        inference_keys: list[str] = []
        for model_index, name in enumerate(model_names):
            key = f"inference/{rid}/{name}"
            inference_keys.append(key)
            specs.append(
                TaskSpec(
                    key=key,
                    payload=(model_index, bias),
                    size_hint=record.length,
                    pool=STAGE_POOLS["inference"],
                    depends_on=(feature_key,),
                )
            )
        specs.append(
            TaskSpec(
                key=f"relax/{rid}",
                payload=None,
                size_hint=record.length,
                pool=STAGE_POOLS["relax"],
                depends_on=tuple(inference_keys),
                dep_mode="resolved",
            )
        )
    return specs


def make_inference_finalizer(
    n_ensembles: int,
    std_budget: int,
    use_highmem_routing: bool,
) -> Callable[[TaskSpec, dict[str, Any]], TaskSpec]:
    """The enqueue-time highmem router for streaming inference tasks.

    The barrier pipeline decides ``requires_highmem`` between stages,
    when every feature bundle (hence MSA depth) is in hand.  Streaming
    has no such point — so the queue's finalize hook makes the same
    decision per chain, the moment the feature dependency resolves and
    the task is promoted to runnable.  Raise-only: an already-escalated
    retry is never demoted, whatever the bundle says.
    """

    def finalize(spec: TaskSpec, resolved: dict[str, Any]) -> TaskSpec:
        if (
            not use_highmem_routing
            or spec.requires_highmem
            or not spec.key.startswith("inference/")
        ):
            return spec
        bundle = resolved.get(spec.depends_on[0]) if spec.depends_on else None
        if bundle is None:
            return spec
        needed = inference_memory_bytes(
            bundle.length, n_ensembles, bundle.msa_depth
        )
        if needed > std_budget:
            return replace(spec, requires_highmem=True)
        return spec

    return finalize


def simulate_streaming_campaign(
    specs: list[TaskSpec],
    workers: list[WorkerInfo],
    durations: dict[str, float],
    failure_fn: Callable[[TaskSpec, WorkerInfo], str | None] | None = None,
    retry_policy: RetryPolicy | None = None,
    startup: float = SCHEDULER_STARTUP_SECONDS,
) -> SimulationResult:
    """The whole campaign through one dependency-driven simulation.

    One scheduler, one startup charge (the barrier path pays three),
    pooled workers, tasks held until predecessors complete.  ``specs``
    is the :func:`build_campaign_specs` DAG and ``durations`` maps
    prefixed keys to modelled seconds — typically the same per-stage
    cost-model values the barrier simulations use, which makes the two
    schedules' makespans directly comparable.
    """
    return simulate_dataflow(
        specs,
        workers,
        lambda t: durations.get(t.key, 0.0),
        failure_fn=failure_fn,
        retry_policy=retry_policy,
        startup=startup,
    )


def time_to_first_structure_seconds(
    records: list[TaskRecord], startup: float = 0.0
) -> float:
    """APACE's latency metric: when does the first relaxed structure land?

    The earliest successful ``relax/`` completion in the record stream,
    plus the scheduler ``startup`` charge when the stream's clock
    starts after it.  Returns 0.0 when no structure completed.
    """
    ends = [
        r.end
        for r in records
        if r.ok and r.key.startswith("relax/")
    ]
    if not ends:
        return 0.0
    return startup + min(ends)


def barrier_composite(
    stage_sims: list[tuple[str, SimulationResult]],
    specs: list[TaskSpec],
) -> tuple[list[TaskRecord], list[WorkerInfo], list[TaskSpec]]:
    """Stitch per-stage barrier simulations onto one campaign timeline.

    Returns ``(records, workers, specs)`` in a shared clock and
    namespace, ready for :func:`repro.dataflow.bubbles.bubble_seconds`
    and :func:`time_to_first_structure_seconds`:

    * each stage's records shift by the cumulative walltime of the
      stages before it (startup included — the barrier path really pays
      it per stage), and their keys gain the stage prefix so they line
      up with the streaming spec DAG;
    * each stage's workers get stage-scoped ids (two stages may reuse
      worker ids) and ``pool=<stage>``, with the specs' pools rewritten
      to match — a feature worker idling in its stage's tail is *not*
      eligible for ready inference work, exactly the constraint the
      barrier schedule imposes, and the bubble accounting then charges
      the inference pool for idling through the whole feature stage.
    """
    records: list[TaskRecord] = []
    workers: list[WorkerInfo] = []
    offset = 0.0
    for stage, sim in stage_sims:
        offset += sim.startup_seconds
        for r in sim.records:
            records.append(
                replace(
                    r,
                    key=f"{stage}/{r.key}",
                    worker_id=f"{stage}/{r.worker_id}",
                    start=r.start + offset,
                    end=r.end + offset,
                )
            )
        for w in sim.workers:
            workers.append(
                replace(w, worker_id=f"{stage}/{w.worker_id}", pool=stage)
            )
        offset += sim.makespan_seconds
    stage_specs = [replace(s, pool=stage_of(s)) for s in specs]
    return records, workers, stage_specs
