"""What a stage is: the campaign's stage table.

The campaign is one chain per sequence,

    feature(s) → inference(s, model) × 5 → relax(s)

and each stage of it is one frozen :class:`StageDef` row of
:data:`STAGES`, in DAG order: its key prefix and span name, the task
errors the campaign survives, its ParaFold pool, its worker-side set-up
and task body, and its parent-side assembly.  :mod:`.pipeline` and
:mod:`.streaming` loop over the rows; neither branches on a stage name.

**Worker side.**  A closure over the suite or the model bank cannot
cross a process boundary, so there is one module-level task function,
:func:`streaming_task` — picklable by reference, taking only what rides
in the :class:`~repro.dataflow.scheduler.TaskSpec` and running the
``run`` of the row its key's prefix names — and one module-level
initializer, :func:`init_stages`, that runs each wave row's ``init`` to
stash that stage's heavy shared state in the process-local :data:`_CTX`.
The threaded executor runs it once, the process executor once per
worker; under ``spawn`` its initargs travel by pickle — which is why
:class:`~repro.msa.kmer.KmerIndex` ships its frozen CSR arrays but not
its lookup table, :class:`~repro.cache.FeatureCache` reduces to its
directory path, and a :class:`~repro.msa.diskindex.DiskKmerIndex` (a
pipeline ``index_dir``) re-attaches by manifest path.  Nothing lazy is
pre-built: k-mer indexes, natives and family folds are built by the
first task that needs them, once per process — threads that miss the
same key wait for one build (:mod:`repro.singleflight`) — so the cost
shows in that task's counter delta (``msa.index.rebuild``).

**Parent side.**  A row's ``assemble`` gathers the stage's science from
a :class:`Campaign` and costs every task; :meth:`Campaign.replay`, on
the row's ``workers``, replays the stage's own batch job in simulated
time (records, wall time, node-hours — Table 2, Fig. 2).  The replay is
a function of the science alone, so node-hours cannot depend on the
schedule.

Every task key is built by :func:`streaming_key` and taken apart by
:func:`split_streaming_key`, nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, ClassVar

import numpy as np

from ..cluster.costmodel import (
    feature_task_seconds,
    inference_task_seconds,
    relax_task_seconds,
)
from ..cluster.machine import MachineSpec
from ..dataflow.engine import ExecutionResult
from ..dataflow.faults import RetryPolicy, is_oom_error
from ..dataflow.scheduler import TaskRecord, TaskSpec, WorkerInfo, make_workers
from ..dataflow.simulated import SimulationResult, simulate_dataflow
from ..fold.memory import (
    highmem_worker_memory_bytes,
    inference_memory_bytes,
    standard_worker_memory_bytes,
)
from ..fold.model import MODEL_NAMES, Prediction, default_model_bank
from ..iosim.replication import ReplicationPlan
from ..msa.features import FeatureBundle, generate_features
from ..relax.protocols import RelaxOutcome, SinglePassRelaxProtocol
from ..sequences.proteome import SPECIES
from ..telemetry.metrics import get_metrics
from .presets import Preset, get_preset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fold.generator import NativeFactory
    from ..msa.databases import LibrarySuite
    from .pipeline import ProteomePipeline

__all__ = [
    "STAGES",
    "StageDef",
    "StageResult",
    "FeatureStageResult",
    "InferenceStageResult",
    "RelaxStageResult",
    "Campaign",
    "init_stages",
    "streaming_task",
    "streaming_key",
    "split_streaming_key",
    "with_stage_prefix",
    "kingdom_bias_for",
]

#: Process-local stage context, filled by :func:`init_stages`.  One
#: campaign runs at a time per process, so a single dict is unambiguous.
_CTX: dict[str, Any] = {}


# -- Task keys ---------------------------------------------------------------
def streaming_key(stage: str, key: str) -> str:
    """Stage-prefixed task key (``feature/P001``, ``inference/P001/m3``).

    The prefix keeps feature and relax keys — both bare record ids —
    distinct inside one campaign-wide map call; the pipeline's
    completion callback strips it again before records reach the
    ledger, so on-disk state speaks bare per-stage keys whatever the
    schedule (cross-schedule resume).
    """
    return f"{stage}/{key}"


def split_streaming_key(key: str) -> tuple[str, str]:
    """Invert :func:`streaming_key` → ``(stage, bare_key)``."""
    stage, _, bare = key.partition("/")
    return stage, bare


def with_stage_prefix(stage: str, by_bare_key: dict[str, Any]) -> dict[str, Any]:
    """``by_bare_key`` re-keyed with ``stage``'s prefix, as the DAG keys it."""
    return {streaming_key(stage, k): v for k, v in by_bare_key.items()}


def kingdom_bias_for(species: str) -> float:
    """Difficulty bias by kingdom: plant proteomes model harder (§4.3.1)."""
    spec = SPECIES.get(species)
    if spec is None:
        return 0.0
    return 0.08 if spec.kingdom == "plant" else 0.0


# -- Stage results -----------------------------------------------------------
@dataclass
class StageResult:
    """What every stage result carries, whichever stage it is."""

    #: The stage's own batch job replayed in simulated time (per-task
    #: records, wall time; node-hours on ``n_nodes`` of ``machine``).
    simulation: SimulationResult
    n_nodes: int
    machine: MachineSpec
    #: Counter movement on the metrics registry over this stage's *wave*
    #: — restore, map and assembly (``stage.task.event``-named deltas).
    #: The stages of one wave share the dict: three distinct deltas under
    #: ``barrier``, one under ``streaming``, so sum per wave, not per stage.
    stage_metrics: dict[str, float] = field(default_factory=dict, kw_only=True)
    #: The executor map — the wave — that did this stage's work for real;
    #: its records carry stage-prefixed keys.
    execution: ExecutionResult | None = field(default=None, kw_only=True)
    #: Stage name, as in the ``<stage>.task.*`` metric names.
    stage: ClassVar[str]

    def _count(self, metric: str) -> int:
        return int(self.stage_metrics.get(metric, 0))

    @property
    def skipped_resume(self) -> int:
        """Tasks restored from the run-state ledger instead of computed."""
        return self._count(f"{self.stage}.task.skipped_resume")

    @property
    def node_hours(self) -> float:
        return self.simulation.node_hours(self.n_nodes)

    def span_attrs(self) -> dict[str, Any]:
        """What the stage's trace span records once the stage is assembled."""
        return {
            "machine": self.machine.name,
            "n_nodes": self.n_nodes,
            "n_workers": len(self.simulation.workers),
            "sim_walltime_seconds": self.simulation.walltime_seconds,
            "n_skipped_resume": self.skipped_resume,
        }


@dataclass
class FeatureStageResult(StageResult):
    """Output of the CPU feature-generation campaign."""

    features: dict[str, FeatureBundle]
    plan: ReplicationPlan
    stage: ClassVar[str] = "feature"

    @property
    def cache_hits(self) -> int:
        """Feature-cache hits this stage (thin view over the metrics)."""
        return self._count("feature.cache.hits")

    @property
    def cache_misses(self) -> int:
        """Feature-cache misses this stage (thin view over the metrics)."""
        return self._count("feature.cache.misses")


@dataclass
class InferenceStageResult(StageResult):
    """Output of the GPU inference campaign."""

    predictions: dict[str, list[Prediction]]
    top_models: dict[str, Prediction]
    oom_failures: list[tuple[str, str]]  # (record_id, model_name)
    preset: Preset
    stage: ClassVar[str] = "inference"

    def mean_top_plddt(self) -> float:
        vals = [p.mean_plddt for p in self.top_models.values()]
        return float(np.mean(vals)) if vals else 0.0

    def mean_top_ptms(self) -> float:
        vals = [p.ptms for p in self.top_models.values()]
        return float(np.mean(vals)) if vals else 0.0

    def mean_recycles(self) -> float:
        vals = [p.n_recycles for p in self.top_models.values()]
        return float(np.mean(vals)) if vals else 0.0

    def span_attrs(self) -> dict[str, Any]:
        return {
            **super().span_attrs(),
            "preset": self.preset.name,
            "highmem_nodes": len(
                {w.node_id for w in self.simulation.workers if w.highmem}
            ),
            "n_oom_failures": len(self.oom_failures),
        }


@dataclass
class RelaxStageResult(StageResult):
    """Output of the GPU geometry-optimisation campaign."""

    outcomes: dict[str, RelaxOutcome]
    stage: ClassVar[str] = "relax"

    @property
    def verlet_rebuilds(self) -> int:
        """Neighbour-list rebuilds this stage (thin view over metrics)."""
        return self._count("relax.verlet.rebuilds")

    @property
    def verlet_reuses(self) -> int:
        """Neighbour-list reuses this stage (thin view over metrics)."""
        return self._count("relax.verlet.reuses")


# -- One pass over a wave plan ------------------------------------------------
@dataclass
class Campaign:
    """One pass over a wave plan: its inputs, every result so far, and
    what the timeline scorer needs to replay the campaign as a whole."""

    pipeline: "ProteomePipeline"
    specs: list[TaskSpec]  # the DAG as built
    preset: Preset
    plan: ReplicationPlan
    suite: "LibrarySuite | None"
    retry_policy: RetryPolicy | None
    #: Prefixed key → result: seeded, restored from the ledger or computed.
    resolved: dict[str, Any]
    #: Stage name → its result, for the stages assembled so far.
    stages: dict[str, StageResult] = field(default_factory=dict)
    #: Prefixed key → modelled seconds / bytes needed, per replayed task.
    durations: dict[str, float] = field(default_factory=dict)
    memory_needed: dict[str, int] = field(default_factory=dict)
    bare_keys: dict[str, list[str]] = field(init=False)  # per stage, DAG order

    def __post_init__(self) -> None:
        self.bare_keys = {name: [] for name in STAGES}
        for spec in self.specs:
            stage, bare = split_streaming_key(spec.key)
            self.bare_keys[stage].append(bare)

    def finalize(self, spec: TaskSpec, resolved: dict[str, Any]) -> TaskSpec:
        """The queue's enqueue-time highmem router (its ``finalize_fn``).

        Whether a memory-routed task needs a 2 TB node depends on its
        feature bundle's MSA depth, and a wave that runs features and
        inference together has no point at which every bundle is in
        hand — so the queue decides per chain, the moment the feature
        dependency resolves and the task is promoted to runnable (at
        submission, when a fence or the ledger already resolved it).
        Raise-only: an already-escalated retry is never demoted.
        """
        if (
            not self.pipeline.use_highmem_routing
            or spec.requires_highmem
            or not STAGES[split_streaming_key(spec.key)[0]].memory_routed
        ):
            return spec
        bundle = resolved.get(spec.depends_on[0]) if spec.depends_on else None
        if bundle is None:
            return spec
        needed = inference_memory_bytes(
            bundle.length, self.preset.n_ensembles, bundle.msa_depth
        )
        if needed > standard_worker_memory_bytes():
            return replace(spec, requires_highmem=True)
        return spec

    def oom_failure(
        self, task: TaskSpec, worker: WorkerInfo, stage: str = ""
    ) -> str | None:
        """Simulation ``failure_fn``, the per-worker memory wall: a task
        fails where the bytes it needs exceed its worker's budget
        (standard or 2 TB).  ``task.key`` is bare in ``stage``'s own
        replay and prefixed (no ``stage``) in the whole-campaign one."""
        key = streaming_key(stage, task.key) if stage else task.key
        needed = self.memory_needed.get(key)
        if worker.highmem:
            budget = highmem_worker_memory_bytes()
        else:
            budget = standard_worker_memory_bytes()
        if needed is None or needed <= budget:
            return None
        return (
            f"OutOfMemoryError: {task.key} needs {needed / 2**30:.1f} GiB, "
            f"worker budget is {budget / 2**30:.1f} GiB"
        )

    @property
    def routed_specs(self) -> list[TaskSpec]:
        """The DAG with each inference ``requires_highmem`` raised from
        its resolved feature bundle — what the queue's finalizer decided."""
        return [self.finalize(spec, self.resolved) for spec in self.specs]

    def results_of(self, stage: str) -> dict[str, Any]:
        """Bare key → result, in DAG order, for keys that have one."""
        keyed = ((b, streaming_key(stage, b)) for b in self.bare_keys[stage])
        return {b: self.resolved[k] for b, k in keyed if k in self.resolved}

    def replay(
        self,
        stage: str,
        costs: dict[str, float],
        memory_needed: dict[str, int] | None = None,
    ) -> SimulationResult:
        """``stage``'s own batch job in simulated time: every task
        ``costs`` prices (bare key → seconds), on the row's workers.  A
        task over its worker's memory budget gets an ``ok=False`` record,
        so ``n_failed`` matches ``oom_failures``, as casp14's rows did.
        Costs and memory needs are kept, prefixed, for the
        whole-campaign replay."""
        self.durations.update(with_stage_prefix(stage, costs))
        self.memory_needed.update(with_stage_prefix(stage, memory_needed or {}))
        # Bare keys and no edges: the job starts after the fence that
        # resolved its inputs.
        tasks = []
        for spec in self.routed_specs:
            spec_stage, bare = split_streaming_key(spec.key)
            if spec_stage == stage and bare in costs:
                tasks.append(
                    TaskSpec(
                        key=bare,
                        size_hint=spec.size_hint,
                        requires_highmem=spec.requires_highmem,
                    )
                )
        return simulate_dataflow(
            tasks,
            STAGES[stage].workers(self, ""),
            lambda t: costs[t.key],
            failure_fn=lambda t, w: self.oom_failure(t, w, stage),
            retry_policy=self.retry_policy,
        )


# -- The feature stage (Andes CPUs: MSA search) -------------------------------
def _init_feature(suite: "LibrarySuite", config: Any, cache: Any, *_: Any) -> None:
    """The suite fingerprint memo is pre-warmed so each worker (or the
    one fork parent) pays the content hash once, not once per cache key
    computation; the k-mer indexes stay lazy."""
    suite.fingerprint()
    _CTX.update(suite=suite, feature_config=config, feature_cache=cache)


def _run_feature(spec: TaskSpec) -> FeatureBundle:
    """Payload is the sequence record; no deps.  The MSA search against
    the installed suite."""
    record, _ = spec.payload
    return generate_features(
        record, _CTX["suite"], _CTX["feature_config"], _CTX["feature_cache"]
    )


def _feature_workers(c: Campaign, pool: str) -> list[WorkerInfo]:
    """One search job per concurrent slot: the plan's replica layout
    bounds useful concurrency regardless of node count.  Never exceed
    the plan's slot count — running more concurrent searches than
    replicas support breaks the §3.2.1 contention bound the cost model
    assumes."""
    nodes = c.pipeline.feature_nodes
    n_workers = min(c.plan.n_concurrent_jobs, nodes * 4)
    n_nodes = min(nodes, n_workers)
    per_node = -(-n_workers // n_nodes)  # ceil
    return make_workers(n_nodes, per_node, pool=pool)[:n_workers]


def _assemble_feature(c: Campaign) -> FeatureStageResult:
    """The features, and the Andes MSA-search job costed by the
    I/O-contention-aware model."""
    features = c.results_of("feature")
    dataset_fraction = max(c.suite.total_modeled_bytes / 2.1e12, 1e-3)
    contention = c.plan.contention()
    costs = {
        rid: feature_task_seconds(
            bundle.length, dataset_fraction=dataset_fraction, io_contention=contention
        )
        for rid, bundle in features.items()
    }
    return FeatureStageResult(
        features=features,
        simulation=c.replay("feature", costs),
        n_nodes=c.pipeline.feature_nodes,
        machine=c.pipeline.feature_machine,
        plan=c.plan,
    )


# -- The inference stage (Summit GPUs: five models per target) ----------------
def _init_inference(
    suite: Any, config: Any, cache: Any, factory: "NativeFactory", preset: str
) -> None:
    """The five-model bank shares one ``factory``: the five heads of a
    target ask for the same hidden native, and whichever asks first
    builds it for all."""
    _CTX.update(
        bank=default_model_bank(factory),
        preset=get_preset(preset),
        std_budget=standard_worker_memory_bytes(),
        hm_budget=highmem_worker_memory_bytes(),
    )


def _run_inference(spec: TaskSpec) -> Prediction:
    """Payload is ``(model_index, bias)``; the single dep is the feature
    bundle.  The memory budget follows the *current attempt's* placement
    class (``spec.requires_highmem``), so ``model.predict`` raises OOM
    exactly when the paper's deployment would have lost the task, and a
    retry escalated to a high-memory worker predicts under the 2 TB
    budget its new home provides."""
    (model_index, bias), deps = spec.payload
    bundle = deps[spec.depends_on[0]]
    budget = _CTX["hm_budget"] if spec.requires_highmem else _CTX["std_budget"]
    config = _CTX["preset"].config(kingdom_bias=bias, memory_budget_bytes=budget)
    return _CTX["bank"][model_index].predict(bundle, config)


def _inference_workers(c: Campaign, pool: str) -> list[WorkerInfo]:
    """One worker per Summit GPU; the last nodes are the 2 TB ones when
    routing is on — or when a retry policy needs somewhere to escalate
    to."""
    pipe = c.pipeline
    routed = pipe.use_highmem_routing or c.retry_policy is not None
    return make_workers(
        pipe.inference_nodes,
        pipe.gpu_machine.gpus_per_node,
        highmem_nodes=pipe.inference_highmem_nodes if routed else 0,
        pool=pool,
    )


def _assemble_inference(c: Campaign) -> InferenceStageResult:
    """Group the per-(target, model) predictions and replay the Summit
    inference job.  A missing head is an OOM loss, costed at the
    preset's recycle cap."""
    preset = c.preset
    preds_by_key = c.results_of("inference")
    predictions: dict[str, list[Prediction]] = {}
    oom: list[tuple[str, str]] = []
    costs: dict[str, float] = {}
    memory_needed: dict[str, int] = {}
    for record_id, bundle in c.results_of("feature").items():
        needed = inference_memory_bytes(
            bundle.length, preset.n_ensembles, bundle.msa_depth
        )
        for name in MODEL_NAMES:
            key = f"{record_id}/{name}"
            memory_needed[key] = needed
            pred = preds_by_key.get(key)
            if pred is None:
                oom.append((record_id, name))
                bias = kingdom_bias_for(bundle.record.species)
                n_recycles = preset.config(kingdom_bias=bias).recycle_cap(
                    bundle.length
                )
            else:
                predictions.setdefault(record_id, []).append(pred)
                n_recycles = pred.n_recycles
            costs[key] = inference_task_seconds(
                bundle.length, n_recycles, preset.n_ensembles
            )
    if oom:
        get_metrics().counter("inference.oom.lost_tasks").inc(len(oom))
    return InferenceStageResult(
        predictions=predictions,
        top_models={
            rid: max(preds, key=lambda p: p.ptms)
            for rid, preds in predictions.items()
        },
        oom_failures=oom,
        simulation=c.replay("inference", costs, memory_needed),
        n_nodes=c.pipeline.inference_nodes,
        machine=c.pipeline.gpu_machine,
        preset=preset,
    )


# -- The relax stage (Summit GPUs: single-pass restrained minimisation) ------
def _init_relax(*_: Any) -> None:
    _CTX["relax_protocol"] = SinglePassRelaxProtocol(device="gpu")


def _run_relax(spec: TaskSpec) -> RelaxOutcome:
    """Deps are the five model predictions, possibly short of five when
    some were lost to OOM (``dep_mode="resolved"``).  The top model is
    ``max(..., key=ptms)`` over predictions in bank order — the
    dependency tuple preserves bank order, so ties break the same way on
    every schedule."""
    _, deps = spec.payload
    preds = [deps[k] for k in spec.depends_on if k in deps]
    if not preds:  # pragma: no cover - queue poisons this case first
        raise RuntimeError(f"{spec.key}: no surviving predictions")
    top = max(preds, key=lambda p: p.ptms)
    protocol: SinglePassRelaxProtocol = _CTX["relax_protocol"]
    return protocol.run_prepared(protocol.prepare(top.structure))


def _relax_workers(c: Campaign, pool: str) -> list[WorkerInfo]:
    pipe = c.pipeline
    return make_workers(pipe.relax_nodes, pipe.gpu_machine.gpus_per_node, pool=pool)


def _assemble_relax(c: Campaign) -> RelaxStageResult:
    """The relaxed top models, and the Summit relaxation job over them."""
    top = c.stages["inference"].top_models
    relaxed = c.results_of("relax")
    outcomes = {rid: relaxed[rid] for rid in top if rid in relaxed}
    costs = {
        rid: relax_task_seconds(
            outcome.n_heavy_atoms, outcome.n_minimizations, device="gpu"
        )
        for rid, outcome in outcomes.items()
    }
    return RelaxStageResult(
        outcomes=outcomes,
        simulation=c.replay("relax", costs),
        n_nodes=c.pipeline.relax_nodes,
        machine=c.pipeline.gpu_machine,
    )


# -- The table ---------------------------------------------------------------
@dataclass(frozen=True)
class StageDef:
    """One stage of the campaign: a row of :data:`STAGES`."""

    name: str  # key prefix, ledger stage, ``<stage>.*`` metric prefix
    span: str  # span name in traces, key in the run manifest
    label: str  # name in error messages
    #: ParaFold pool (binds on pooled workers only): MSA search and
    #: (here) relaxation on CPUs, inference on GPUs.
    pool: str
    #: Worker side: install ``_CTX`` entries from :func:`init_stages`'
    #: inputs; run one task.  Parent side: its batch job's simulated
    #: workers in a pool, and its result.
    init: Callable[..., None]
    run: Callable[[TaskSpec], Any]
    workers: Callable[[Campaign, str], list[WorkerInfo]]
    assemble: Callable[[Campaign], StageResult]
    #: Which task errors the campaign survives: a target lost to OOM is
    #: an operational event the paper's runs lived with, and its relax
    #: task is then skipped, not failed.
    survives: Callable[[str], bool] = lambda error: False
    #: Tasks go to 2 TB nodes by memory need (§3.3), so a wave running
    #: the stage gets a high-memory worker.
    memory_routed: bool = False

    def raise_on_failures(self, records: list[TaskRecord]) -> None:
        """Re-raise this stage's task failures that :attr:`survives`
        does not claim: the executor isolates exceptions per task, and
        they must not be silently dropped from the results dict."""
        unexpected = [
            r
            for r in records
            if not r.ok
            and split_streaming_key(r.key)[0] == self.name
            and not self.survives(r.error)
        ]
        if unexpected:
            summary = "; ".join(f"{r.key}: {r.error}" for r in unexpected[:3])
            raise RuntimeError(
                f"{self.label} stage: {len(unexpected)} task(s) failed — {summary}"
            )


#: The campaign's stages by name, in DAG order.
STAGES: dict[str, StageDef] = {
    row.name: row
    for row in (
        StageDef(
            name="feature",
            span="features",
            label="feature generation",
            pool="cpu",
            init=_init_feature,
            run=_run_feature,
            workers=_feature_workers,
            assemble=_assemble_feature,
        ),
        StageDef(
            name="inference",
            span="inference",
            label="inference",
            pool="gpu",
            init=_init_inference,
            run=_run_inference,
            workers=_inference_workers,
            assemble=_assemble_inference,
            survives=is_oom_error,
            memory_routed=True,
        ),
        StageDef(
            name="relax",
            span="relax",
            label="relax",
            pool="cpu",
            init=_init_relax,
            run=_run_relax,
            workers=_relax_workers,
            assemble=_assemble_relax,
            survives=lambda error: error.startswith("SkippedDependency"),
        ),
    )
}


def init_stages(stages: tuple[str, ...], *inputs: Any) -> None:
    """Install the context of the stages one wave will run.

    ``inputs`` — ``(suite, feature_config, feature_cache, factory,
    preset_name)`` — go to each named row's ``init``.  A worker of a
    multi-stage wave may be handed a feature task, then an inference
    task, then a relax minimisation — there is no per-stage worker
    lifetime to hang separate initializers on.  Only the named stages
    are set up, so a wave without the feature stage needs no ``suite``
    and one without inference no ``factory``.
    """
    for name in stages:
        STAGES[name].init(*inputs)


def streaming_task(spec: TaskSpec) -> Any:
    """Run one campaign task: the ``run`` of the row its key's prefix names.

    The payload arrives as ``(stage_payload, deps)`` — the executor's
    ``inject_deps`` wrapping — where ``deps`` maps resolved dependency
    keys to their results.
    """
    return STAGES[split_streaming_key(spec.key)[0]].run(spec)
