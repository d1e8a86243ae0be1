"""The proteome campaign: one task DAG, a wave plan per schedule.

The paper's deployment is one task graph per sequence —

    feature(s) → inference(s, model) × 5 → relax(s)

— **feature generation** (MSA search against the replicated libraries,
costed by the I/O-contention-aware model; Andes CPUs), **model
inference** (five surrogate models per target, greedy descending-length
order, OOM-sized tasks routed to high-memory nodes; Summit GPUs) and
**geometry optimisation** (single-pass restrained minimisation of each
top-ranked model; Summit GPUs).  :func:`streaming.build_campaign_specs`
lays that graph out once, and there is one way through it:

* a **schedule** is a row of :data:`WAVE_PLANS` — which stages share an
  executor map.  ``barrier``, the paper's three decoupled batch
  workflows (§3, Table 2), is three one-stage waves; ``streaming``, the
  ParaFold-style overlap, is one three-stage wave.  The plans differ in
  where the joins are, not in the work;
* a **wave** is one ``executor.map`` of :func:`stagework.streaming_task`
  over the wave's still-pending specs, with every result so far —
  restored from the ledger, seeded by the caller or computed by an
  earlier wave — handed in as ``preresolved``, so a chain resumes
  mid-flight under either plan;
* a **fence** is nothing but the join between two maps: when a wave
  returns, everything before the next one is terminal.

Task keys carry their stage prefix inside the maps; the completion
callback strips it, so the ledger, the artifact store and the task
observer speak bare per-stage keys and a state directory written under
one schedule resumes under the other.

Each stage produces *scientific* output (features, predictions, relaxed
structures — computed for real by the surrogate substrates) and
*operational* output: the stage's own batch job replayed in simulated
time from the calibrated cost model (per-task records, wall time,
node-hours — Table 2, Fig. 2).  The replay is a function of the science
alone, so node-hours cannot depend on the schedule; only the campaign
*timeline* (makespan, bubbles, time to first structure) is scored per
plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, ClassVar

import numpy as np

from ..cache import FeatureCache
from ..cluster.costmodel import feature_task_seconds, relax_task_seconds
from ..cluster.machine import ANDES, SUMMIT, MachineSpec
from ..constants import REDUCED_DATASET_BYTES
from ..dataflow.bubbles import bubble_seconds as compute_bubble_seconds
from ..dataflow.engine import (
    ExecutionResult,
    ThreadedExecutor,
    auto_worker_count,
)
from ..dataflow.faults import RetryPolicy, is_oom_error
from ..dataflow.process import ProcessExecutor
from ..dataflow.scheduler import TaskRecord, TaskSpec, WorkerInfo, make_workers
from ..dataflow.simulated import SimulationResult, simulate_dataflow
from ..fold.generator import NativeFactory
from ..fold.memory import standard_worker_memory_bytes
from ..fold.model import MODEL_NAMES, Prediction
from ..iosim.replication import ReplicationPlan, paper_plan
from ..msa.databases import LibrarySuite
from ..msa.diskindex import attach_suite_index
from ..msa.features import FeatureBundle, FeatureGenConfig
from ..relax.protocols import RelaxOutcome
from ..runstate import RunState
from ..sequences.proteome import SPECIES, Proteome
from ..telemetry.metrics import get_metrics
from ..telemetry.session import TelemetrySession
from ..telemetry.tracer import get_tracer, spans_from_records
from . import stagework, streaming
from .presets import Preset, get_preset
from .stagework import split_streaming_key, streaming_key

__all__ = [
    "WAVE_PLANS",
    "FeatureStageResult",
    "InferenceStageResult",
    "RelaxStageResult",
    "PipelineResult",
    "ProteomePipeline",
    "kingdom_bias_for",
]

#: Schedule → wave plan over the one campaign DAG.  Each inner tuple is
#: a wave — the stages that share one executor map — and every boundary
#: between waves is a fence.
WAVE_PLANS: dict[str, tuple[tuple[str, ...], ...]] = {
    "barrier": (("feature",), ("inference",), ("relax",)),
    "streaming": (streaming.STREAM_STAGES,),
}

#: Stage → its span name in traces (the pre-existing trace vocabulary).
_SPAN_NAMES = {
    "feature": "features",
    "inference": "inference",
    "relax": "relax",
}

#: Stage → its name in error messages, and which task errors a campaign
#: survives (``None``: none).  A target lost to OOM is an operational
#: event the paper's runs lived with, and its relax task is then skipped,
#: not failed.
_FAILURE_RULES: dict[str, tuple[str, Callable[[str], bool] | None]] = {
    "feature": ("feature generation", None),
    "inference": ("inference", is_oom_error),
    "relax": ("relax", lambda e: e.startswith("SkippedDependency")),
}


def _raise_on_failures(records: list[TaskRecord], stage: str) -> None:
    """Surface ``stage``'s unexpected task failures from a wave's records.

    The executor isolates exceptions per task; failures the stage has no
    recovery story for (anything its rule does not claim, e.g. non-OOM
    errors in inference) must not be silently dropped from the results
    dict — re-raise them here.
    """
    label, allow = _FAILURE_RULES[stage]
    unexpected = [
        r
        for r in records
        if not r.ok
        and split_streaming_key(r.key)[0] == stage
        and not (allow is not None and allow(r.error))
    ]
    if unexpected:
        summary = "; ".join(f"{r.key}: {r.error}" for r in unexpected[:3])
        raise RuntimeError(
            f"{label} stage: {len(unexpected)} task(s) failed — {summary}"
        )


def _prefixed(stage: str, by_bare_key: dict[str, Any]) -> dict[str, Any]:
    """``by_bare_key`` re-keyed with ``stage``'s prefix, as the DAG keys it."""
    return {streaming_key(stage, k): v for k, v in by_bare_key.items()}


def kingdom_bias_for(species: str) -> float:
    """Difficulty bias by kingdom: plant proteomes model harder (§4.3.1)."""
    spec = SPECIES.get(species)
    if spec is None:
        return 0.0
    return 0.08 if spec.kingdom == "plant" else 0.0


@dataclass
class _StageResult:
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


@dataclass
class FeatureStageResult(_StageResult):
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
class InferenceStageResult(_StageResult):
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


@dataclass
class RelaxStageResult(_StageResult):
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


@dataclass
class PipelineResult:
    """The whole campaign."""

    feature_stage: FeatureStageResult
    inference_stage: InferenceStageResult
    relax_stage: RelaxStageResult
    #: Which wave plan produced this result: ``"barrier"`` (three
    #: one-stage waves) or ``"streaming"`` (one three-stage wave).
    #: Scientific outputs and node-hours are bit-identical either way;
    #: the timeline numbers below differ.
    schedule: str = "barrier"
    #: Unified dependency-driven campaign simulation (streaming runs
    #: only): one scheduler startup, CPU/GPU pools, chains overlapping
    #: in time.  ``None`` under the barrier schedule, whose timeline is
    #: the three per-stage simulations end to end.
    streaming_simulation: SimulationResult | None = None
    #: Worker-idle-while-eligible-work-exists seconds over the whole
    #: campaign timeline (see :mod:`repro.dataflow.bubbles`), computed
    #: for whichever schedule ran.  Also exported as the
    #: ``pipeline.bubble_seconds`` gauge.
    bubble_seconds: float = 0.0
    #: When the first relaxed structure lands on the campaign timeline
    #: (APACE's latency lens).  Barrier: after the full feature and
    #: inference stages.  Streaming: as soon as the first chain drains.
    time_to_first_structure_seconds: float = 0.0

    @property
    def total_node_hours(self) -> float:
        return (
            self.feature_stage.node_hours
            + self.inference_stage.node_hours
            + self.relax_stage.node_hours
        )

    @property
    def campaign_walltime_seconds(self) -> float:
        """Modelled campaign wall time under the schedule that ran."""
        if self.streaming_simulation is not None:
            return self.streaming_simulation.walltime_seconds
        return (
            self.feature_stage.simulation.walltime_seconds
            + self.inference_stage.simulation.walltime_seconds
            + self.relax_stage.simulation.walltime_seconds
        )


@dataclass
class _Campaign:
    """One pass over a wave plan: the stage results it produced, plus
    what the timeline scorer needs to replay the campaign as a whole."""

    #: The DAG as built, and (once inference is assembled) with inference
    #: ``requires_highmem`` raised from each feature bundle — what the
    #: queue's finalizer decided.
    specs: list[TaskSpec]
    routed_specs: list[TaskSpec] = field(default_factory=list)
    #: Stage name → that stage's result, for the stages that ran.
    stages: dict[str, _StageResult] = field(default_factory=dict)
    #: Prefixed key → modelled task seconds, for every costed task.
    durations: dict[str, float] = field(default_factory=dict)
    #: Prefixed inference key → bytes the task needs.
    memory_needed: dict[str, int] = field(default_factory=dict)


@dataclass
class ProteomePipeline:
    """Orchestrates the three decoupled workflows.

    Parameters mirror the paper's deployment: library replication plan,
    preset choice, node counts per stage, and the cutoff separating
    standard from high-memory inference workers.
    """

    preset_name: str = "genome"
    feature_nodes: int = 24
    inference_nodes: int = 32
    inference_highmem_nodes: int = 2
    relax_nodes: int = 8
    feature_machine: MachineSpec = field(default_factory=lambda: ANDES)
    gpu_machine: MachineSpec = field(default_factory=lambda: SUMMIT)
    replication_plan: ReplicationPlan | None = None
    feature_config: FeatureGenConfig | None = None
    #: Route memory-hungry tasks to 2 TB nodes.  The paper did this for
    #: its proteome runs (§3.3); the Table 1 casp14 benchmark did *not*,
    #: which is why its eight longest sequences were lost to OOM.
    use_highmem_routing: bool = True
    #: Workers for the *real* per-record work (feature search, model
    #: inference, relaxation), run through the executor backend below
    #: with the same task decomposition the operational simulation uses.
    #: 0 = auto (one per usable core — the affinity mask, not the
    #: machine total — capped at 8).
    compute_workers: int = 0
    #: Executor backend for the real per-record work: ``"threaded"``
    #: (default; workers are threads in this process) or ``"process"``
    #: (workers are OS processes pulling tasks over pipes with
    #: shared-memory array transport; survives a worker being killed
    #: outright).  Use ``"process"`` for multi-core runs: the science is
    #: GIL-bound, so extra *threads* cost throughput rather than buy it.
    #: Measured on one 2-core box, 40 mixed-length targets, barrier
    #: schedule: threaded 1 worker 7-9 targets/s, threaded 2 workers
    #: 4.5-4.7, process 2 workers 9-10 (DESIGN §11 has the table).
    #: Stage decomposition, retry/highmem semantics, the durable-state
    #: callback and the task observer are identical on both: callbacks
    #: always run in this (the coordinating) process.
    executor_backend: str = "threaded"
    #: Campaign schedule, a key of :data:`WAVE_PLANS`: ``"barrier"``
    #: (default — the paper's deployment: one executor map per stage,
    #: each joining before the next) or ``"streaming"`` (all three
    #: stages in one map: each sequence flows to its next stage the
    #: moment its predecessors finish, on the worker that holds its
    #: inputs, and idle workers steal).  Outputs are bit-identical;
    #: streaming collapses the stage-boundary bubbles and
    #: time-to-first-structure.
    schedule: str = "barrier"
    #: Directory of sharded, memory-mapped k-mer index artifacts
    #: (``repro index build`` / :func:`repro.msa.diskindex.build_disk_index`).
    #: When set, the feature stage attaches every suite library to its
    #: on-disk index before dispatch: the artifact is opened (built
    #: first if absent, quarantined + rebuilt if corrupt) and workers
    #: share the memory-mapped postings through the page cache instead
    #: of rebuilding a CSR index per process (``msa.index.rebuild``
    #: stays zero when the artifact was prebuilt).
    index_dir: str | Path | None = None
    #: Optional content-addressed cache for the feature stage.
    feature_cache: FeatureCache | None = None
    #: Optional telemetry session.  When set, :meth:`run` activates its
    #: tracer/metrics for the whole campaign and (if the session has a
    #: ``run_dir``) exports ``manifest.json`` + ``trace.json`` +
    #: ``metrics.json`` on completion.  Every entry point emits spans
    #: and metrics to whatever tracer/registry is active; without a
    #: session that is the no-op tracer and the default registry.
    telemetry: TelemetrySession | None = None
    #: Durable campaign state (write-ahead completion ledger + artifact
    #: store).  When set, a stage's keys are checked against the ledger
    #: before the wave that runs it — already-completed keys are restored
    #: from the artifact store, counted on ``<stage>.task.skipped_resume``
    #: and never recomputed — and completions are recorded durably as
    #: results land, so a killed campaign resumes where it died, under
    #: either schedule.
    run_state: RunState | None = None
    #: Observer called once per task attempt, *after* the run state (if
    #: any) has durably recorded it: ``observer(stage, record, value)``.
    #: The CLI's fault-injection kill switch hangs off this; it runs on
    #: executor worker threads, so keep it cheap and thread-safe.
    task_observer: Callable[[str, TaskRecord, Any], None] | None = None

    def _executor(
        self, n_items: int, highmem_workers: int = 0
    ) -> ThreadedExecutor | ProcessExecutor:
        n = self.compute_workers
        if n <= 0:
            n = auto_worker_count()
        n = min(n, max(1, n_items))
        highmem = min(highmem_workers, n)
        if self.executor_backend == "process":
            return ProcessExecutor(n, highmem_workers=highmem)
        if self.executor_backend != "threaded":
            raise ValueError(
                f"unknown executor backend {self.executor_backend!r}; "
                "expected 'threaded' or 'process'"
            )
        return ThreadedExecutor(n, highmem_workers=highmem)

    # -- Durable state -------------------------------------------------------
    def _restore_completed(self, stage: str, keys: list[str]) -> dict[str, Any]:
        """Artifacts for this stage's already-ledgered bare keys (resume).

        Counts the skips on ``<stage>.task.skipped_resume`` so stage
        metrics, the telemetry export, and the provenance manifest all
        agree on how much work the ledger saved.
        """
        if self.run_state is None:
            return {}
        restored = self.run_state.restore(stage, keys)
        if restored:
            get_metrics().counter(f"{stage}.task.skipped_resume").inc(
                len(restored)
            )
            get_tracer().event(
                f"{stage}.resume.skipped",
                category="runstate",
                attrs={"n_skipped": len(restored)},
            )
        return restored

    def _on_complete(self) -> Callable[[TaskRecord, Any], None] | None:
        """Executor ``on_complete``: durable record first, observer second.

        Task keys carry their stage prefix inside a wave
        (``inference/P001/model_3``); the ledger, artifact store and
        task observer all speak bare per-stage keys (``P001/model_3``
        under stage ``inference``).  Stripping here keeps the on-disk
        state independent of the wave plan, so a campaign killed under
        one schedule resumes under the other.
        """
        state, observer = self.run_state, self.task_observer
        if state is None and observer is None:
            return None
        persists = {}
        if state is not None:
            persists = {s: state.on_complete(s) for s in streaming.STREAM_STAGES}

        def callback(record: TaskRecord, value: Any) -> None:
            stage, bare = split_streaming_key(record.key)
            bare_record = replace(record, key=bare)
            if stage in persists:
                persists[stage](bare_record, value)
            if observer is not None:
                observer(stage, bare_record, value)

        return callback

    # -- Operational model: each stage's batch job in simulated time --------
    def _feature_workers(
        self, plan: ReplicationPlan, pool: str = ""
    ) -> list[WorkerInfo]:
        """One search job per concurrent slot: the plan's replica layout
        bounds useful concurrency regardless of node count.  Never
        exceed the plan's slot count — running more concurrent searches
        than replicas support breaks the §3.2.1 contention bound the
        cost model assumes."""
        n_workers = min(plan.n_concurrent_jobs, self.feature_nodes * 4)
        n_nodes = min(self.feature_nodes, n_workers)
        per_node = -(-n_workers // n_nodes)  # ceil
        return make_workers(n_nodes, per_node, pool=pool)[:n_workers]

    def _inference_workers(
        self, retry_policy: RetryPolicy | None = None, pool: str = ""
    ) -> list[WorkerInfo]:
        """One worker per Summit GPU; the last nodes are the 2 TB ones
        when routing is on — or when a retry policy needs somewhere to
        escalate to."""
        routed = self.use_highmem_routing or retry_policy is not None
        return make_workers(
            self.inference_nodes,
            self.gpu_machine.gpus_per_node,
            highmem_nodes=self.inference_highmem_nodes if routed else 0,
            pool=pool,
        )

    def _simulate_features(
        self,
        specs: list[TaskSpec],
        plan: ReplicationPlan,
        suite: LibrarySuite,
    ) -> tuple[SimulationResult, dict[str, float]]:
        """The Andes MSA-search job: ``(simulation, seconds per key)``."""
        tasks = streaming.stage_tasks(specs, "feature")
        dataset_fraction = max(suite.total_modeled_bytes / 2.1e12, 1e-3)
        contention = plan.contention()
        durations = {
            task.key: feature_task_seconds(
                int(task.size_hint),
                dataset_fraction=dataset_fraction,
                io_contention=contention,
            )
            for task in tasks
        }
        sim = simulate_dataflow(
            tasks, self._feature_workers(plan), lambda t: durations[t.key]
        )
        return sim, durations

    def _simulate_inference(
        self,
        specs: list[TaskSpec],
        durations: dict[str, float],
        memory_needed: dict[str, int],
        retry_policy: RetryPolicy | None,
    ) -> SimulationResult:
        """The Summit inference job.  ``specs`` carry the highmem routing;
        a task over even its worker's budget gets an ``ok=False`` record,
        so ``n_failed`` matches ``oom_failures``, as casp14's rows did."""
        return simulate_dataflow(
            streaming.stage_tasks(specs, "inference"),
            self._inference_workers(retry_policy),
            lambda t: durations[t.key],
            failure_fn=streaming.oom_failure_fn(memory_needed),
            retry_policy=retry_policy,
        )

    def _simulate_relax(
        self, specs: list[TaskSpec], outcomes: dict[str, RelaxOutcome]
    ) -> tuple[SimulationResult, dict[str, float]]:
        """The Summit relaxation job over the structures that were relaxed."""
        durations = {
            rid: relax_task_seconds(
                outcome.n_heavy_atoms, outcome.n_minimizations, device="gpu"
            )
            for rid, outcome in outcomes.items()
        }
        sim = simulate_dataflow(
            streaming.stage_tasks(specs, "relax", keep=outcomes),
            make_workers(self.relax_nodes, self.gpu_machine.gpus_per_node),
            lambda t: durations[t.key],
        )
        return sim, durations

    # -- The one campaign path ----------------------------------------------
    def _run_waves(
        self,
        waves: tuple[tuple[str, ...], ...],
        records: list[Any],
        seeded: dict[str, Any] | None = None,
        *,
        suite: LibrarySuite | None = None,
        factory: NativeFactory | None = None,
        preset_name: str | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> _Campaign:
        """Run the stages named by ``waves`` over ``records``' chains.

        ``seeded`` maps prefixed keys to results the caller already has
        (a standalone inference stage is handed its features).  A wave
        restores its stages' ledgered keys, runs what is still pending,
        and assembles its stages' results; its stage spans and its
        counter delta cover exactly that.  The map's workers are all
        alike — every worker runs every stage of the wave, a chain stays
        on the worker that holds its inputs unless a peer would
        otherwise idle, and the last worker plays the 2 TB node for
        highmem-routed inference and for ``retry_policy`` escalations
        (:meth:`run_inference_stage`).
        """
        preset = get_preset(preset_name or self.preset_name)
        plan = self.replication_plan or paper_plan(REDUCED_DATASET_BYTES)
        tracer = get_tracer()
        metrics = get_metrics()

        def bias_for(record: Any) -> float:
            return kingdom_bias_for(record.species)

        specs = streaming.build_campaign_specs(
            records, list(MODEL_NAMES), bias_for
        )
        bare_keys = {
            stage: [task.key for task in streaming.stage_tasks(specs, stage)]
            for stage in streaming.STREAM_STAGES
        }
        finalize = streaming.make_inference_finalizer(
            preset.n_ensembles,
            standard_worker_memory_bytes(),
            self.use_highmem_routing,
        )
        # Escalation needs a highmem slot in the executor whenever the
        # simulation provisions highmem nodes or routing is on; backoff
        # is an operational (simulated-time) concern, so the science
        # executor retries immediately.
        routed = self.use_highmem_routing or retry_policy is not None
        highmem_nodes = self.inference_highmem_nodes if routed else 0
        highmem_worker = self.use_highmem_routing or highmem_nodes > 0
        exec_policy = None
        if retry_policy is not None:
            exec_policy = replace(retry_policy, backoff_seconds=0.0)
        on_complete = self._on_complete()
        resolved: dict[str, Any] = dict(seeded or {})
        campaign = _Campaign(specs)

        def results_of(stage: str) -> dict[str, Any]:
            """Bare key → result, in DAG order, for keys that have one."""
            keyed = ((b, streaming_key(stage, b)) for b in bare_keys[stage])
            return {b: resolved[k] for b, k in keyed if k in resolved}

        def assemble(stage: str) -> _StageResult:
            """``stage``'s science gathered and its batch job replayed."""
            if stage == "feature":
                sim, durations = self._simulate_features(specs, plan, suite)
                result = FeatureStageResult(
                    features=results_of("feature"),
                    simulation=sim,
                    n_nodes=self.feature_nodes,
                    machine=self.feature_machine,
                    plan=plan,
                )
            elif stage == "inference":
                campaign.routed_specs = [finalize(s, resolved) for s in specs]
                predictions, oom, durations, memory_needed = (
                    streaming.assemble_inference(
                        results_of("feature"),
                        preset,
                        results_of("inference"),
                        bias_for,
                    )
                )
                campaign.memory_needed = _prefixed("inference", memory_needed)
                if oom:
                    metrics.counter("inference.oom.lost_tasks").inc(len(oom))
                top = {
                    rid: max(preds, key=lambda p: p.ptms)
                    for rid, preds in predictions.items()
                    if preds
                }
                result = InferenceStageResult(
                    predictions=predictions,
                    top_models=top,
                    oom_failures=oom,
                    simulation=self._simulate_inference(
                        campaign.routed_specs,
                        durations,
                        memory_needed,
                        retry_policy,
                    ),
                    n_nodes=self.inference_nodes,
                    machine=self.gpu_machine,
                    preset=preset,
                )
            else:
                top = campaign.stages["inference"].top_models
                relaxed = results_of("relax")
                outcomes = {rid: relaxed[rid] for rid in top if rid in relaxed}
                sim, durations = self._simulate_relax(specs, outcomes)
                result = RelaxStageResult(
                    outcomes=outcomes,
                    simulation=sim,
                    n_nodes=self.relax_nodes,
                    machine=self.gpu_machine,
                )
            campaign.durations.update(_prefixed(stage, durations))
            return result

        # Each stage's replay starts its clock at 0, but the jobs ran one
        # after another; a cumulative offset places every stage after
        # the previous one on the simulated timeline, so lanes never
        # overlap and trace-derived utilization stays physical.
        sim_offset = 0.0
        for wave in waves:
            counters_before = metrics.counter_values()
            # The wave's stage spans are siblings open for the whole wave:
            # task spans parent onto their stage explicitly (the
            # thread-stack rule would nest interleaved stages).
            stage_spans: dict[str, Any] = {}
            if tracer.enabled:
                parent = tracer.current_span()
                for stage in wave:
                    attrs: dict[str, Any] = {"n_tasks": len(bare_keys[stage])}
                    if stage == "inference":
                        attrs["preset"] = preset.name
                        attrs["highmem_nodes"] = highmem_nodes
                    stage_spans[stage] = tracer.start_span(
                        "stage",
                        _SPAN_NAMES[stage],
                        parent=parent,
                        stacked=False,
                        attrs=attrs,
                    )
            try:
                if self.index_dir is not None and "feature" in wave:
                    # Swap every library onto its memory-mapped disk-index
                    # artifact before any worker starts (or forks): workers
                    # then share one page-cache copy of the postings and
                    # never rebuild a CSR index per process.
                    attach_suite_index(suite, self.index_dir)
                # Resume: ledgered results seed the resolution map, so
                # chains resume mid-flight (a ledgered feature feeds a
                # pending inference).
                for stage in wave:
                    restored = self._restore_completed(stage, bare_keys[stage])
                    resolved.update(_prefixed(stage, restored))
                pending = streaming.wave_specs(specs, wave, resolved)
                execution = self._executor(
                    len(pending),
                    highmem_workers=int(
                        highmem_worker and "inference" in wave
                    ),
                ).map(
                    stagework.streaming_task,
                    pending,
                    retry_policy=exec_policy,
                    pass_spec=True,
                    stage_of=streaming.stage_of,
                    stage_spans=stage_spans or None,
                    finalize_fn=finalize,
                    inject_deps=True,
                    preresolved=resolved,
                    on_complete=on_complete,
                    initializer=stagework.init_stages,
                    initargs=(
                        wave,
                        suite,
                        self.feature_config,
                        self.feature_cache,
                        factory,
                        preset.name,
                    ),
                )
                resolved.update(execution.results)
                for stage in wave:
                    _raise_on_failures(execution.records, stage)
                for stage in wave:
                    campaign.stages[stage] = assemble(stage)
                # One counter delta per wave, shared by its stages.
                wave_metrics = metrics.delta(
                    counters_before, metrics.counter_values()
                )
                for stage in wave:
                    result = campaign.stages[stage]
                    result.stage_metrics = wave_metrics
                    result.execution = execution
                    sim = result.simulation
                    span = stage_spans.get(stage)
                    if span is not None:
                        span.set_attr("machine", result.machine.name)
                        span.set_attr("n_nodes", result.n_nodes)
                        span.set_attr("n_workers", len(sim.workers))
                        span.set_attr(
                            "sim_walltime_seconds", sim.walltime_seconds
                        )
                        span.set_attr("n_skipped_resume", result.skipped_resume)
                        if stage == "inference":
                            span.set_attr(
                                "n_oom_failures", len(result.oom_failures)
                            )
                        tracer.extend(
                            spans_from_records(
                                sim.records,
                                parent=span,
                                clock="sim",
                                offset=sim_offset,
                                attrs={"stage": _SPAN_NAMES[stage]},
                            )
                        )
                    sim_offset += sim.walltime_seconds
            finally:
                for span in stage_spans.values():
                    tracer.finish_span(span)
        return campaign

    def run_feature_stage(
        self, proteome: Proteome, suite: LibrarySuite
    ) -> FeatureStageResult:
        """MSA search for every target, on its own: a one-wave campaign.

        One task per target — the same decomposition the simulated
        Andes workflow uses — consulting :attr:`feature_cache` when one
        is configured.
        """
        campaign = self._run_waves(
            (("feature",),), list(proteome), suite=suite
        )
        return campaign.stages["feature"]

    def run_inference_stage(
        self,
        features: dict[str, FeatureBundle],
        factory: NativeFactory,
        preset_name: str | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> InferenceStageResult:
        """Five models per target, on its own: a one-wave campaign whose
        feature keys are seeded with ``features``.

        Tasks are (model, target) pairs — the paper's decomposition for
        load balance (§3.3).  With highmem routing, tasks that exceed
        standard worker memory only dispatch to high-memory workers;
        tasks that exceed even those fail for real.  A ``retry_policy``
        additionally re-runs OOM-failed attempts on high-memory workers
        (provisioned even when routing is off, since escalation needs
        somewhere to escalate to); backoff is an operational
        (simulated-time) concern, so the science executor retries
        immediately.
        """
        campaign = self._run_waves(
            (("inference",),),
            [bundle.record for bundle in features.values()],
            _prefixed("feature", features),
            factory=factory,
            preset_name=preset_name,
            retry_policy=retry_policy,
        )
        return campaign.stages["inference"]

    # -- Full campaign -------------------------------------------------------
    def _run_campaign(
        self,
        proteome: Proteome,
        suite: LibrarySuite,
        factory: NativeFactory,
    ) -> PipelineResult:
        """All three stages under :attr:`schedule`'s wave plan, then the
        one plan-specific step: scoring the campaign *timeline*."""
        if self.schedule not in WAVE_PLANS:
            raise ValueError(
                f"unknown schedule {self.schedule!r}; "
                "expected 'barrier' or 'streaming'"
            )
        campaign = self._run_waves(
            WAVE_PLANS[self.schedule],
            list(proteome),
            suite=suite,
            factory=factory,
        )
        streaming_sim = None
        if self.schedule == "barrier":
            # The three batch jobs end to end on one timeline, workers
            # scoped to their stage: the bubble is the
            # idle-while-ready-work-waited seconds the fences cost.
            records, workers, specs = streaming.barrier_composite(
                [(s, r.simulation) for s, r in campaign.stages.items()],
                campaign.specs,
            )
            startup = 0.0  # each job's startup is already on the timeline
        else:
            # One wave: one dependency-driven simulation on the Andes CPU
            # pool plus the Summit GPU pool, one scheduler startup.
            streaming_sim = streaming.simulate_streaming_campaign(
                campaign.routed_specs,
                self._feature_workers(campaign.stages["feature"].plan, "cpu")
                + self._inference_workers(pool="gpu"),
                campaign.durations,
                failure_fn=streaming.oom_failure_fn(campaign.memory_needed),
            )
            records, workers = streaming_sim.records, streaming_sim.workers
            specs = campaign.routed_specs
            startup = streaming_sim.startup_seconds
        bubble = compute_bubble_seconds(records, workers, specs)
        ttfs = streaming.time_to_first_structure_seconds(records, startup)
        metrics = get_metrics()
        metrics.gauge("pipeline.bubble_seconds").set(bubble)
        metrics.gauge("pipeline.time_to_first_structure_seconds").set(ttfs)
        return PipelineResult(
            feature_stage=campaign.stages["feature"],
            inference_stage=campaign.stages["inference"],
            relax_stage=campaign.stages["relax"],
            schedule=self.schedule,
            streaming_simulation=streaming_sim,
            bubble_seconds=bubble,
            time_to_first_structure_seconds=ttfs,
        )

    def run(
        self,
        proteome: Proteome,
        suite: LibrarySuite,
        factory: NativeFactory | None = None,
    ) -> PipelineResult:
        if factory is None:
            raise ValueError(
                "pass the NativeFactory built on the same universe as the "
                "proteome — predictions are meaningless otherwise"
            )
        session = self.telemetry
        if session is None:
            return self._run_campaign(proteome, suite, factory)
        with session.activate():
            tracer = session.tracer
            t_start = tracer.now()
            with tracer.span(
                "run",
                "proteome_campaign",
                ambient=True,
                attrs={
                    "preset": self.preset_name,
                    "n_targets": len(proteome),
                    "schedule": self.schedule,
                },
            ):
                result = self._run_campaign(proteome, suite, factory)
            wall_seconds = tracer.now() - t_start
        state = self.run_state
        session.annotate(
            preset=self.preset_name,
            n_targets=len(proteome),
            schedule=result.schedule,
            library_fingerprint=suite.fingerprint(),
            resume={
                "enabled": state is not None,
                "resumed": bool(state is not None and state.resumed),
                "skipped": {
                    "features": result.feature_stage.skipped_resume,
                    "inference": result.inference_stage.skipped_resume,
                    "relax": result.relax_stage.skipped_resume,
                },
            },
            wall_seconds=wall_seconds,
            sim_walltime_seconds={
                "features": result.feature_stage.simulation.walltime_seconds,
                "inference": result.inference_stage.simulation.walltime_seconds,
                "relax": result.relax_stage.simulation.walltime_seconds,
            },
            campaign_walltime_seconds=result.campaign_walltime_seconds,
            bubble_seconds=result.bubble_seconds,
            time_to_first_structure_seconds=(
                result.time_to_first_structure_seconds
            ),
            node_hours=result.total_node_hours,
        )
        if session.run_dir is not None:
            session.export()
        return result
