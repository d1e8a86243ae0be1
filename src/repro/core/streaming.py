"""The campaign DAG and its timelines: specs, waves, finalizer, analysis.

Every campaign is the same per-sequence dependency chains

    feature(s) → inference(s, model) × 5 → relax(s)

and a schedule is a *wave plan* over them (:mod:`repro.core.pipeline`):
the stages of one wave share one executor map, so a sequence flows to
its next stage the moment it is ready, and the join between two maps is
a fence.  Specs carry the ParaFold pool labels — feature/relax on
``"cpu"``, inference on ``"gpu"`` — which bind on a heterogeneous
machine (the simulated campaign's CPU and GPU worker pools) and are
inert on the pool-less local compute workers, where each worker instead
walks whole chains from its local lane
(:class:`~repro.dataflow.scheduler.TaskQueue`).  This module holds
everything about the DAG that is *not* executor machinery: building it,
cutting a wave out of it, the highmem finalizer that fires once a
feature result reveals its MSA depth, the unified streaming simulation,
and the makespan / time-to-first-structure / barrier composite analysis
the benchmarks report.

Key conventions (:func:`~repro.core.stagework.streaming_key` builds the
keys, :func:`~repro.core.stagework.split_streaming_key` splits them):

* task keys are stage-prefixed (``feature/<rid>``,
  ``inference/<rid>/<model>``, ``relax/<rid>``) so feature and relax —
  both keyed by record id — stay distinct in one map call;
* the relax spec's ``dep_mode="resolved"`` runs it once all five
  inference deps are *terminal*, on whichever predictions survived —
  the paper's tolerance of OOM-lost models — and poisons it only when
  all five failed (a target with no prediction has no top model to
  relax).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Iterable

from ..cluster.costmodel import (
    SCHEDULER_STARTUP_SECONDS,
    inference_task_seconds,
)
from ..dataflow.faults import RetryPolicy
from ..dataflow.scheduler import TaskRecord, TaskSpec, WorkerInfo
from ..dataflow.simulated import SimulationResult, simulate_dataflow
from ..fold.memory import (
    highmem_worker_memory_bytes,
    inference_memory_bytes,
    standard_worker_memory_bytes,
)
from ..fold.model import MODEL_NAMES
from .presets import Preset
from .stagework import split_streaming_key, streaming_key

__all__ = [
    "STREAM_STAGES",
    "stage_of",
    "build_campaign_specs",
    "wave_specs",
    "stage_tasks",
    "assemble_inference",
    "make_inference_finalizer",
    "oom_failure_fn",
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
    """Stage name from a campaign spec's prefixed key."""
    return split_streaming_key(spec.key)[0]


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
        feature_key = streaming_key("feature", rid)
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
            key = streaming_key("inference", f"{rid}/{name}")
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
                key=streaming_key("relax", rid),
                payload=None,
                size_hint=record.length,
                pool=STAGE_POOLS["relax"],
                depends_on=tuple(inference_keys),
                dep_mode="resolved",
            )
        )
    return specs


def wave_specs(
    specs: list[TaskSpec], stages: tuple[str, ...], resolved: dict[str, Any]
) -> list[TaskSpec]:
    """The specs of ``stages`` one wave still has to run.

    ``resolved`` maps every key that has a result so far — restored
    from the ledger, seeded by the caller, or computed by an earlier
    wave — to that result; those specs are done.  Everything before
    this wave is terminal (that is what the fence means), so an edge
    to a key that is neither resolved nor part of this wave points at
    a task that *failed* for good, and no later map will ever resolve
    it.  Such an edge is applied here the way the queue would have
    applied the failure: a ``dep_mode="resolved"`` spec drops it and
    runs on what survived, and a spec left with nothing it may run on
    (any dead edge under ``"all"``, every edge dead under
    ``"resolved"``) is not submitted — an OOM-lost target is never
    relaxed.  Forwarding the dead edge instead would strand the spec
    in the next map's blocked set.
    """
    live = set(resolved)
    wave: list[TaskSpec] = []
    for spec in specs:  # DAG order: a spec's dependencies precede it
        if stage_of(spec) not in stages or spec.key in resolved:
            continue
        deps = tuple(d for d in spec.depends_on if d in live)
        if len(deps) < len(spec.depends_on):
            if spec.dep_mode == "all" or not deps:
                continue
            spec = replace(spec, depends_on=deps)
        live.add(spec.key)
        wave.append(spec)
    return wave


def stage_tasks(
    specs: list[TaskSpec], stage: str, keep: Any = None
) -> list[TaskSpec]:
    """One stage's slice of the DAG as that stage's own batch job sees it.

    Bare keys and no edges: the job starts after the fence that resolved
    them.  ``keep`` (any container of bare keys) narrows the slice to
    the keys that have work — only top models are relaxed.
    """
    tasks = []
    for spec in specs:
        spec_stage, bare = split_streaming_key(spec.key)
        if spec_stage == stage and (keep is None or bare in keep):
            tasks.append(
                TaskSpec(
                    key=bare,
                    size_hint=spec.size_hint,
                    requires_highmem=spec.requires_highmem,
                )
            )
    return tasks


def assemble_inference(
    features: dict[str, Any],
    preset: Preset,
    preds_by_key: dict[str, Any],
    bias_fn: Callable[[Any], float],
) -> tuple[
    dict[str, list[Any]],
    list[tuple[str, str]],
    dict[str, float],
    dict[str, int],
]:
    """Group per-(target, model) predictions and cost every task.

    ``features`` maps record id to feature bundle, ``preds_by_key`` bare
    inference key to prediction, ``bias_fn`` a record to its kingdom
    bias.  Returns ``(predictions, oom_failures, sim_durations,
    memory_needed)`` keyed ``<record_id>/<model>``.  Missing keys are
    OOM losses whose simulated duration falls back to the preset's
    recycle cap.
    """
    predictions: dict[str, list[Any]] = {}
    oom: list[tuple[str, str]] = []
    durations: dict[str, float] = {}
    memory_needed: dict[str, int] = {}
    for record_id, bundle in features.items():
        bias = bias_fn(bundle.record)
        needed = inference_memory_bytes(
            bundle.length, preset.n_ensembles, bundle.msa_depth
        )
        for name in MODEL_NAMES:
            key = f"{record_id}/{name}"
            memory_needed[key] = needed
            pred = preds_by_key.get(key)
            if pred is None:
                oom.append((record_id, name))
                n_recycles = preset.config(kingdom_bias=bias).recycle_cap(
                    bundle.length
                )
            else:
                predictions.setdefault(record_id, []).append(pred)
                n_recycles = pred.n_recycles
            durations[key] = inference_task_seconds(
                bundle.length, n_recycles, preset.n_ensembles
            )
    return predictions, oom, durations, memory_needed


def make_inference_finalizer(
    n_ensembles: int,
    std_budget: int,
    use_highmem_routing: bool,
) -> Callable[[TaskSpec, dict[str, Any]], TaskSpec]:
    """The enqueue-time highmem router for inference tasks.

    Whether a task needs a 2 TB node depends on its feature bundle's
    MSA depth, and a wave that runs features and inference together has
    no point at which every bundle is in hand — so the queue's finalize
    hook decides per chain, the moment the feature dependency resolves
    and the task is promoted to runnable (at submission, when a fence
    or the ledger already resolved it).  Raise-only: an
    already-escalated retry is never demoted, whatever the bundle says.
    """

    def finalize(spec: TaskSpec, resolved: dict[str, Any]) -> TaskSpec:
        if (
            not use_highmem_routing
            or spec.requires_highmem
            or stage_of(spec) != "inference"
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


def oom_failure_fn(
    needed_by_key: dict[str, int],
) -> Callable[[TaskSpec, WorkerInfo], str | None]:
    """Simulation ``failure_fn``: the per-worker memory wall.

    A task fails where the bytes it needs exceed the budget of the
    worker it landed on (standard or 2 TB); keys absent from
    ``needed_by_key`` — other stages' tasks — never fail.
    """
    std_budget = standard_worker_memory_bytes()
    hm_budget = highmem_worker_memory_bytes()

    def oom_failure(task: TaskSpec, worker: WorkerInfo) -> str | None:
        needed = needed_by_key.get(task.key)
        budget = hm_budget if worker.highmem else std_budget
        if needed is None or needed <= budget:
            return None
        return (
            f"OutOfMemoryError: {task.key} needs {needed / 2**30:.1f} GiB, "
            f"worker budget is {budget / 2**30:.1f} GiB"
        )

    return oom_failure


def simulate_streaming_campaign(
    specs: list[TaskSpec],
    workers: list[WorkerInfo],
    durations: dict[str, float],
    failure_fn: Callable[[TaskSpec, WorkerInfo], str | None] | None = None,
    retry_policy: RetryPolicy | None = None,
    startup: float = SCHEDULER_STARTUP_SECONDS,
) -> SimulationResult:
    """The whole campaign through one dependency-driven simulation.

    One scheduler, one startup charge (the barrier plan pays three),
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
        if r.ok and split_streaming_key(r.key)[0] == "relax"
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
                    key=streaming_key(stage, r.key),
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
