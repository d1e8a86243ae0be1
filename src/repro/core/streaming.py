"""The campaign DAG and its timelines: specs, waves, finalizer, analysis.

Every campaign is the same per-sequence dependency chains

    feature(s) → inference(s, model) × 5 → relax(s)

and a schedule is a *wave plan* over them (:mod:`repro.core.pipeline`):
the stages of one wave share one executor map, so a sequence flows to
its next stage the moment it is ready, and the join between two maps is
a fence.  Specs carry their stage row's ParaFold pool label
(:data:`~repro.core.stagework.STAGES`) — feature/relax on ``"cpu"``,
inference on ``"gpu"`` — which bind on a heterogeneous
machine (the simulated campaign's CPU and GPU worker pools) and are
inert on the pool-less local compute workers, where each worker instead
walks whole chains from its local lane
(:class:`~repro.dataflow.scheduler.TaskQueue`).  This module holds
everything about the DAG that is *not* executor machinery or stage
knowledge (:mod:`repro.core.stagework`): building it, cutting a wave
out of it, the unified streaming simulation, and the makespan /
time-to-first-structure / barrier composite analysis the benchmarks
report.

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

from ..cluster.costmodel import SCHEDULER_STARTUP_SECONDS
from ..dataflow.faults import RetryPolicy
from ..dataflow.scheduler import TaskRecord, TaskSpec, WorkerInfo
from ..dataflow.simulated import SimulationResult, simulate_dataflow
from .stagework import STAGES, split_streaming_key, streaming_key

__all__ = [
    "STREAM_STAGES",
    "stage_of",
    "build_campaign_specs",
    "wave_specs",
    "simulate_streaming_campaign",
    "time_to_first_structure_seconds",
    "barrier_composite",
]

#: The stage names, in DAG order.
STREAM_STAGES = tuple(STAGES)


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
    depth is unknown until the feature task runs; the queue's finalize
    hook (:meth:`~repro.core.stagework.Campaign.finalize`) raises it at
    promotion time.
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
                pool=STAGES["feature"].pool,
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
                    pool=STAGES["inference"].pool,
                    depends_on=(feature_key,),
                )
            )
        specs.append(
            TaskSpec(
                key=streaming_key("relax", rid),
                payload=None,
                size_hint=record.length,
                pool=STAGES["relax"].pool,
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

    The earliest successful completion of the DAG's last stage
    (``relax/``) in the record stream, plus the scheduler ``startup``
    charge when the stream's clock starts after it.  Returns 0.0 when
    no structure completed.
    """
    last = STREAM_STAGES[-1]
    ends = [
        r.end for r in records if r.ok and split_streaming_key(r.key)[0] == last
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
