"""The three-stage proteome pipeline (the paper's deployment, end to end).

Stage 1 — **feature generation** on Andes (CPU): MSA search against the
replicated libraries; costs follow the I/O-contention-aware model.

Stage 2 — **model inference** on Summit (GPU): five surrogate models per
target via the dataflow executor, greedy descending-length order, OOM
tasks routed to high-memory nodes.

Stage 3 — **geometry optimisation** on Summit (GPU): single-pass
restrained minimisation of each top-ranked model.

Each stage produces both *scientific* output (features, predictions,
relaxed structures — computed for real by the surrogate substrates) and
*operational* output (a simulated-time workflow run with per-task
records, wall time and node-hours, from the calibrated cost model).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..cache import FeatureCache
from ..cluster.costmodel import (
    feature_task_seconds,
    inference_task_seconds,
    relax_task_seconds,
)
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
from ..fold.memory import (
    highmem_worker_memory_bytes,
    inference_memory_bytes,
    standard_worker_memory_bytes,
)
from ..fold.model import Prediction, SurrogateFoldModel
from ..iosim.replication import ReplicationPlan, paper_plan
from ..msa.databases import LibrarySuite
from ..msa.diskindex import attach_suite_index
from ..msa.features import FeatureBundle, FeatureGenConfig
from ..relax.batch import relax_many
from ..relax.protocols import RelaxOutcome
from ..runstate import RunState
from ..sequences.proteome import SPECIES, Proteome
from ..structure.protein import Structure
from ..telemetry.metrics import get_metrics
from ..telemetry.session import TelemetrySession
from ..telemetry.tracer import get_tracer, spans_from_records
from . import stagework, streaming
from .presets import Preset, get_preset

__all__ = [
    "FeatureStageResult",
    "InferenceStageResult",
    "RelaxStageResult",
    "PipelineResult",
    "ProteomePipeline",
    "kingdom_bias_for",
]


def _raise_on_failures(
    records: list[TaskRecord],
    stage: str,
    allow: "callable[[str], bool] | None" = None,
) -> None:
    """Surface unexpected task failures from a threaded stage run.

    The executor isolates exceptions per task; failures the stage has no
    recovery story for (anything the ``allow`` classifier does not
    claim, e.g. non-OOM errors in inference) must not be silently
    dropped from the results dict — re-raise them here, as the seed's
    inline loops would have.
    """
    unexpected = [
        r
        for r in records
        if not r.ok and (allow is None or not allow(r.error))
    ]
    if unexpected:
        summary = "; ".join(
            f"{r.key}: {r.error}" for r in unexpected[:3]
        )
        raise RuntimeError(
            f"{stage} stage: {len(unexpected)} task(s) failed — {summary}"
        )


def kingdom_bias_for(species: str) -> float:
    """Difficulty bias by kingdom: plant proteomes model harder (§4.3.1)."""
    spec = SPECIES.get(species)
    if spec is None:
        return 0.0
    return 0.08 if spec.kingdom == "plant" else 0.0


def _assemble_inference(
    features: dict[str, FeatureBundle],
    bank: list[SurrogateFoldModel],
    preset: Preset,
    preds_by_key: dict[str, Prediction],
) -> tuple[
    dict[str, list[Prediction]], list[tuple[str, str]], dict[str, float]
]:
    """Group per-(target, model) predictions, shared by both schedules.

    Returns ``(predictions, oom_failures, sim_durations)`` — missing
    keys are OOM losses whose simulated duration falls back to the
    preset's recycle cap, exactly the barrier stage's accounting.  One
    function serves the barrier and streaming paths so grouping /
    tie-break / duration logic cannot drift between them.
    """
    predictions: dict[str, list[Prediction]] = {}
    oom: list[tuple[str, str]] = []
    durations: dict[str, float] = {}
    for record_id, bundle in features.items():
        bias = kingdom_bias_for(bundle.record.species)
        for model in bank:
            key = f"{record_id}/{model.name}"
            pred = preds_by_key.get(key)
            if pred is None:
                oom.append((record_id, model.name))
                durations[key] = inference_task_seconds(
                    bundle.length,
                    preset.config(kingdom_bias=bias).recycle_cap(
                        bundle.length
                    ),
                    preset.n_ensembles,
                )
            else:
                predictions.setdefault(record_id, []).append(pred)
                durations[key] = inference_task_seconds(
                    bundle.length, pred.n_recycles, preset.n_ensembles
                )
    return predictions, oom, durations


@dataclass
class FeatureStageResult:
    """Output of the CPU feature-generation campaign."""

    features: dict[str, FeatureBundle]
    simulation: SimulationResult
    n_nodes: int
    machine: MachineSpec
    plan: ReplicationPlan
    #: Counter movement on the metrics registry during this stage run
    #: (the ``stage.task.event``-named deltas this stage produced).
    stage_metrics: dict[str, float] = field(default_factory=dict)
    #: The threaded run that computed the features for real.
    execution: ExecutionResult | None = None

    @property
    def cache_hits(self) -> int:
        """Feature-cache hits this stage (thin view over the metrics)."""
        return int(self.stage_metrics.get("feature.cache.hits", 0))

    @property
    def cache_misses(self) -> int:
        """Feature-cache misses this stage (thin view over the metrics)."""
        return int(self.stage_metrics.get("feature.cache.misses", 0))

    @property
    def skipped_resume(self) -> int:
        """Tasks restored from the run-state ledger instead of computed."""
        return int(self.stage_metrics.get("feature.task.skipped_resume", 0))

    @property
    def node_hours(self) -> float:
        return self.simulation.node_hours(self.n_nodes)


@dataclass
class InferenceStageResult:
    """Output of the GPU inference campaign."""

    predictions: dict[str, list[Prediction]]
    top_models: dict[str, Prediction]
    oom_failures: list[tuple[str, str]]  # (record_id, model_name)
    simulation: SimulationResult
    n_nodes: int
    machine: MachineSpec
    preset: Preset
    #: Counter movement on the metrics registry during this stage run.
    stage_metrics: dict[str, float] = field(default_factory=dict)
    #: The threaded run that computed the predictions for real.
    execution: ExecutionResult | None = None

    @property
    def skipped_resume(self) -> int:
        """Tasks restored from the run-state ledger instead of computed."""
        return int(self.stage_metrics.get("inference.task.skipped_resume", 0))

    @property
    def node_hours(self) -> float:
        return self.simulation.node_hours(self.n_nodes)

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
class RelaxStageResult:
    """Output of the GPU geometry-optimisation campaign."""

    outcomes: dict[str, RelaxOutcome]
    simulation: SimulationResult
    n_nodes: int
    machine: MachineSpec
    #: Counter movement on the metrics registry during this stage run.
    stage_metrics: dict[str, float] = field(default_factory=dict)
    #: The threaded run that computed the relaxations for real.
    execution: ExecutionResult | None = None

    @property
    def verlet_rebuilds(self) -> int:
        """Neighbour-list rebuilds this stage (thin view over metrics)."""
        return int(self.stage_metrics.get("relax.verlet.rebuilds", 0))

    @property
    def verlet_reuses(self) -> int:
        """Neighbour-list reuses this stage (thin view over metrics)."""
        return int(self.stage_metrics.get("relax.verlet.reuses", 0))

    @property
    def skipped_resume(self) -> int:
        """Tasks restored from the run-state ledger instead of computed."""
        return int(self.stage_metrics.get("relax.task.skipped_resume", 0))

    @property
    def node_hours(self) -> float:
        return self.simulation.node_hours(self.n_nodes)


@dataclass
class PipelineResult:
    """The whole campaign."""

    feature_stage: FeatureStageResult
    inference_stage: InferenceStageResult
    relax_stage: RelaxStageResult
    #: Which scheduler produced this result: ``"barrier"`` (three
    #: sequential stage maps) or ``"streaming"`` (one dependency-driven
    #: dataflow).  Scientific outputs are bit-identical either way; the
    #: operational numbers below differ.
    schedule: str = "barrier"
    #: Unified dependency-driven campaign simulation (streaming runs
    #: only): one scheduler startup, CPU/GPU pools, chains overlapping
    #: in time.  ``None`` under the barrier schedule, whose operational
    #: model is the three per-stage simulations.
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
    #: Campaign scheduler: ``"barrier"`` (default — three sequential
    #: stage maps, each joining before the next) or ``"streaming"``
    #: (the whole campaign as per-sequence dependency chains on one
    #: executor of pool-less workers; each sequence flows to its next
    #: stage the moment its predecessors finish, on the worker that
    #: holds its inputs, and idle workers steal).  Outputs are
    #: bit-identical; streaming collapses the stage-boundary bubbles
    #: and time-to-first-structure.
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
    #: ``metrics.json`` on completion.  Stage methods always emit spans
    #: and metrics to whatever tracer/registry is active; without a
    #: session that is the no-op tracer and the default registry.
    telemetry: TelemetrySession | None = None
    #: Durable campaign state (write-ahead completion ledger + artifact
    #: store).  When set, every stage filters its task list against the
    #: ledger before submission — already-completed keys are restored
    #: from the artifact store, counted on ``<stage>.task.skipped_resume``
    #: and never recomputed — and records completions durably as results
    #: land, so a killed campaign resumes where it died.
    run_state: RunState | None = None
    #: Observer called once per task attempt, *after* the run state (if
    #: any) has durably recorded it: ``observer(stage, record, value)``.
    #: The CLI's fault-injection kill switch hangs off this; it runs on
    #: executor worker threads, so keep it cheap and thread-safe.
    task_observer: Callable[[str, TaskRecord, Any], None] | None = None

    def _extend_sim_spans(self, tracer, sim, span, stage: str) -> None:
        """Attach a stage's simulated task spans to the active trace.

        Each ``simulate_dataflow`` run starts its clock at 0, but the
        campaign's stages executed sequentially; a cumulative offset
        places every stage after the previous one on the simulated
        timeline, so lanes never overlap and trace-derived utilization
        stays physical.  (``_run_stages`` resets the offset per run.)
        """
        offset = getattr(self, "_sim_offset", 0.0)
        tracer.extend(
            spans_from_records(
                sim.records,
                parent=span,
                clock="sim",
                offset=offset,
                attrs={"stage": stage},
            )
        )
        self._sim_offset = offset + sim.walltime_seconds

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
        """Artifacts for this stage's already-ledgered keys (resume path).

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

    def _stage_callback(
        self, stage: str
    ) -> Callable[[TaskRecord, Any], None] | None:
        """Executor ``on_complete``: durable record first, observer second."""
        state, observer = self.run_state, self.task_observer
        if state is None and observer is None:
            return None
        persist = state.on_complete(stage) if state is not None else None

        def callback(record: TaskRecord, value: Any) -> None:
            if persist is not None:
                persist(record, value)
            if observer is not None:
                observer(stage, record, value)

        return callback

    # -- Stage 1 -----------------------------------------------------------
    def run_feature_stage(
        self, proteome: Proteome, suite: LibrarySuite
    ) -> FeatureStageResult:
        """MSA search for every target; Andes CPU workflow.

        The searches themselves run on the threaded executor — one task
        per target, the same decomposition the simulated workflow uses —
        and consult :attr:`feature_cache` when one is configured.
        """
        plan = self.replication_plan or paper_plan(REDUCED_DATASET_BYTES)
        contention = plan.contention()
        dataset_fraction = suite.total_modeled_bytes / 2.1e12
        records = list(proteome)
        tasks = [
            TaskSpec(
                key=record.record_id,
                payload=record,
                size_hint=record.length,
            )
            for record in records
        ]
        tracer = get_tracer()
        metrics = get_metrics()
        counters_before = metrics.counter_values()
        with tracer.span(
            "stage",
            "features",
            ambient=True,
            attrs={
                "n_tasks": len(tasks),
                "machine": self.feature_machine.name,
                "n_nodes": self.feature_nodes,
            },
        ) as span:
            if self.index_dir is not None:
                # Swap every library onto its memory-mapped disk-index
                # artifact before any worker starts (or forks): workers
                # then share one page-cache copy of the postings and
                # never rebuild a CSR index per process.
                attach_suite_index(suite, self.index_dir)
            restored = self._restore_completed(
                "feature", [t.key for t in tasks]
            )
            pending = [t for t in tasks if t.key not in restored]
            execution = self._executor(len(pending)).map(
                stagework.feature_task,
                pending,
                stage="feature",
                on_complete=self._stage_callback("feature"),
                initializer=stagework.init_feature_stage,
                initargs=(suite, self.feature_config, self.feature_cache),
            )
            _raise_on_failures(execution.records, "feature generation")
            bundles = {**restored, **execution.results}
            features = {r.record_id: bundles[r.record_id] for r in records}
            # One search job per concurrent slot: the plan's replica layout
            # bounds useful concurrency regardless of node count.  Never
            # exceed the plan's slot count — running more concurrent
            # searches than replicas support breaks the §3.2.1 contention
            # bound the cost model assumes.
            n_workers = min(plan.n_concurrent_jobs, self.feature_nodes * 4)
            n_nodes = min(self.feature_nodes, n_workers)
            per_node = -(-n_workers // n_nodes)  # ceil
            workers = make_workers(n_nodes, per_node)[:n_workers]

            def duration(task: TaskSpec) -> float:
                return feature_task_seconds(
                    int(task.size_hint),
                    dataset_fraction=max(dataset_fraction, 1e-3),
                    io_contention=contention,
                )

            sim = simulate_dataflow(tasks, workers, duration)
            if span is not None:
                span.set_attr("n_workers", n_workers)
                span.set_attr("sim_walltime_seconds", sim.walltime_seconds)
                span.set_attr("n_skipped_resume", len(restored))
            if tracer.enabled:
                self._extend_sim_spans(tracer, sim, span, "features")
        return FeatureStageResult(
            features=features,
            simulation=sim,
            n_nodes=self.feature_nodes,
            machine=self.feature_machine,
            plan=plan,
            stage_metrics=metrics.delta(
                counters_before, metrics.counter_values()
            ),
            execution=execution,
        )

    # -- Stage 2 -----------------------------------------------------------
    def run_inference_stage(
        self,
        features: dict[str, FeatureBundle],
        factory: NativeFactory,
        preset_name: str | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> InferenceStageResult:
        """Five models per target on the dataflow executor.

        Tasks are (model, target) pairs — the paper's decomposition for
        load balance (§3.3).  With highmem routing, tasks that exceed
        standard worker memory are flagged ``requires_highmem`` and only
        dispatch to high-memory workers; tasks that exceed even those
        fail for real — their simulation records carry ``ok=False``, so
        ``n_failed`` matches ``oom_failures``, as the casp14 benchmark
        rows did.  A ``retry_policy`` additionally re-runs OOM-failed
        attempts on high-memory workers (provisioned even when routing
        is off, since escalation needs somewhere to escalate to).
        """
        preset = get_preset(preset_name or self.preset_name)
        tracer = get_tracer()
        metrics = get_metrics()
        counters_before = metrics.counter_values()
        bank = [SurrogateFoldModel(factory, i) for i in range(5)]
        tasks: list[TaskSpec] = []
        memory_needed: dict[str, int] = {}
        std_budget = standard_worker_memory_bytes()
        hm_budget = highmem_worker_memory_bytes()
        highmem_nodes = (
            self.inference_highmem_nodes
            if (self.use_highmem_routing or retry_policy is not None)
            else 0
        )
        for record_id, bundle in features.items():
            bias = kingdom_bias_for(bundle.record.species)
            needed = inference_memory_bytes(
                bundle.length, preset.n_ensembles, bundle.msa_depth
            )
            requires_highmem = self.use_highmem_routing and needed > std_budget
            for model in bank:
                key = f"{record_id}/{model.name}"
                memory_needed[key] = needed
                # Payload carries the model *index*, not the model: the
                # worker-side bank (stagework.init_inference_stage) owns
                # the factory, so a process worker never re-pickles it
                # per task.  The budget follows the current attempt's
                # placement class (see stagework.inference_task), so
                # ``model.predict`` raises OOM exactly when the paper's
                # deployment would have lost (or re-routed) the task.
                tasks.append(
                    TaskSpec(
                        key=key,
                        payload=(bundle, model.model_index, bias),
                        size_hint=bundle.length,
                        requires_highmem=requires_highmem,
                    )
                )

        # Escalation needs a highmem slot in the executor whenever the
        # simulation provisions highmem nodes or routing is on; backoff
        # is an operational (simulated-time) concern, so the science
        # executor retries immediately.
        exec_policy = (
            replace(retry_policy, backoff_seconds=0.0)
            if retry_policy is not None
            else None
        )
        exec_highmem = 1 if (self.use_highmem_routing or highmem_nodes > 0) else 0
        with tracer.span(
            "stage",
            "inference",
            ambient=True,
            attrs={
                "n_tasks": len(tasks),
                "preset": preset.name,
                "machine": self.gpu_machine.name,
                "n_nodes": self.inference_nodes,
                "highmem_nodes": highmem_nodes,
            },
        ) as span:
            restored = self._restore_completed(
                "inference", [t.key for t in tasks]
            )
            pending = [t for t in tasks if t.key not in restored]
            execution = self._executor(
                len(pending), highmem_workers=exec_highmem
            ).map(
                stagework.inference_task,
                pending,
                retry_policy=exec_policy,
                pass_spec=True,
                stage="inference",
                on_complete=self._stage_callback("inference"),
                initializer=stagework.init_inference_stage,
                initargs=(factory, preset.name),
            )
            _raise_on_failures(
                execution.records, "inference", allow=is_oom_error
            )

            preds_by_key = {**restored, **execution.results}
            predictions, oom, durations = _assemble_inference(
                features, bank, preset, preds_by_key
            )
            if oom:
                metrics.counter("inference.oom.lost_tasks").inc(len(oom))
            workers = make_workers(
                self.inference_nodes,
                self.gpu_machine.gpus_per_node,
                highmem_nodes=highmem_nodes,
            )

            def oom_failure(task: TaskSpec, worker: WorkerInfo) -> str | None:
                budget = hm_budget if worker.highmem else std_budget
                if memory_needed[task.key] > budget:
                    return (
                        f"OutOfMemoryError: {task.key} needs "
                        f"{memory_needed[task.key] / 2**30:.1f} GiB, worker "
                        f"budget is {budget / 2**30:.1f} GiB"
                    )
                return None

            sim = simulate_dataflow(
                tasks,
                workers,
                lambda t: durations[t.key],
                failure_fn=oom_failure,
                retry_policy=retry_policy,
            )
            if span is not None:
                span.set_attr("n_workers", len(workers))
                span.set_attr("sim_walltime_seconds", sim.walltime_seconds)
                span.set_attr("n_oom_failures", len(oom))
                span.set_attr("n_skipped_resume", len(restored))
            if tracer.enabled:
                self._extend_sim_spans(tracer, sim, span, "inference")
        top = {
            rid: max(preds, key=lambda p: p.ptms)
            for rid, preds in predictions.items()
            if preds
        }
        return InferenceStageResult(
            predictions=predictions,
            top_models=top,
            oom_failures=oom,
            simulation=sim,
            n_nodes=self.inference_nodes,
            machine=self.gpu_machine,
            preset=preset,
            stage_metrics=metrics.delta(
                counters_before, metrics.counter_values()
            ),
            execution=execution,
        )

    # -- Stage 3 -----------------------------------------------------------
    def run_relax_stage(
        self, structures: dict[str, Structure]
    ) -> RelaxStageResult:
        """Single-pass GPU relaxation of the top models (§3.4).

        The science is :func:`repro.relax.batch.relax_many`: systems
        prepared once, minimisations run on the threaded executor, one
        task per structure — the same decomposition the simulated
        workflow uses.
        """
        tracer = get_tracer()
        metrics = get_metrics()
        counters_before = metrics.counter_values()
        with tracer.span(
            "stage",
            "relax",
            ambient=True,
            attrs={
                "n_tasks": len(structures),
                "machine": self.gpu_machine.name,
                "n_nodes": self.relax_nodes,
            },
        ) as span:
            restored = self._restore_completed("relax", list(structures))
            pending = {
                key: structure
                for key, structure in structures.items()
                if key not in restored
            }
            batch = relax_many(
                pending,
                device="gpu",
                executor=self._executor(len(pending)),
                on_complete=self._stage_callback("relax"),
            )
            outcomes: dict[str, RelaxOutcome] = {**restored, **batch.outcomes}
            tasks = [
                TaskSpec(
                    key=record_id, payload=structure, size_hint=len(structure)
                )
                for record_id, structure in structures.items()
            ]
            durations = {
                record_id: relax_task_seconds(
                    outcome.n_heavy_atoms, outcome.n_minimizations, device="gpu"
                )
                for record_id, outcome in outcomes.items()
            }
            workers = make_workers(
                self.relax_nodes, self.gpu_machine.gpus_per_node
            )
            sim = simulate_dataflow(tasks, workers, lambda t: durations[t.key])
            if span is not None:
                span.set_attr("n_workers", len(workers))
                span.set_attr("sim_walltime_seconds", sim.walltime_seconds)
                span.set_attr("n_skipped_resume", len(restored))
            if tracer.enabled:
                self._extend_sim_spans(tracer, sim, span, "relax")
        return RelaxStageResult(
            outcomes=outcomes,
            simulation=sim,
            n_nodes=self.relax_nodes,
            machine=self.gpu_machine,
            stage_metrics=metrics.delta(
                counters_before, metrics.counter_values()
            ),
            execution=batch.execution,
        )

    # -- Streaming schedule --------------------------------------------------
    def _streaming_callback(
        self,
    ) -> Callable[[TaskRecord, Any], None] | None:
        """Per-record callback that de-prefixes keys before persistence.

        Streaming task keys carry their stage prefix
        (``inference/P001/model_3``); the ledger, artifact store and
        task observer all speak the barrier path's bare per-stage keys
        (``P001/model_3`` under stage ``inference``).  Stripping here
        keeps the on-disk state byte-compatible across schedules, so a
        barrier campaign can resume a killed streaming one and vice
        versa.
        """
        state, observer = self.run_state, self.task_observer
        if state is None and observer is None:
            return None
        persists = {
            stage: (state.on_complete(stage) if state is not None else None)
            for stage in streaming.STREAM_STAGES
        }

        def callback(record: TaskRecord, value: Any) -> None:
            stage, bare = stagework.split_streaming_key(record.key)
            bare_record = replace(record, key=bare)
            persist = persists.get(stage)
            if persist is not None:
                persist(bare_record, value)
            if observer is not None:
                observer(stage, bare_record, value)

        return callback

    def _run_streaming(
        self,
        proteome: Proteome,
        suite: LibrarySuite,
        factory: NativeFactory,
    ) -> PipelineResult:
        """The whole campaign as one dependency-driven dataflow.

        One executor map over every ``feature → inference×5 → relax``
        chain: tasks are held until their predecessors complete, every
        worker runs all three stages — a chain stays on the worker that
        built its features unless a peer would otherwise idle — and each
        sequence's relaxation can finish while another sequence's MSA
        search is still running.  Scientific outputs are bit-identical to
        :meth:`_run_stages` (same task functions, same tie-breaks, same
        budgets); the per-stage *simulations* are also computed exactly
        as the barrier path computes them — so node-hour accounting is
        schedule-invariant — plus one unified dependency-driven
        simulation that models the streaming timeline itself.
        """
        plan = self.replication_plan or paper_plan(REDUCED_DATASET_BYTES)
        contention = plan.contention()
        dataset_fraction = suite.total_modeled_bytes / 2.1e12
        preset = get_preset(self.preset_name)
        records = list(proteome)
        rids = [r.record_id for r in records]
        bank = [SurrogateFoldModel(factory, i) for i in range(5)]
        model_names = [m.name for m in bank]
        std_budget = standard_worker_memory_bytes()
        hm_budget = highmem_worker_memory_bytes()
        tracer = get_tracer()
        metrics = get_metrics()
        counters_before = metrics.counter_values()

        specs = streaming.build_campaign_specs(
            records, model_names, lambda r: kingdom_bias_for(r.species)
        )
        if self.index_dir is not None:
            attach_suite_index(suite, self.index_dir)

        # Resume: restore every stage's ledgered keys up front; their
        # results seed the dependency-resolution map, so chains resume
        # mid-flight (a ledgered feature feeds a pending inference).
        restored_f = self._restore_completed("feature", rids)
        restored_i = self._restore_completed(
            "inference",
            [f"{rid}/{name}" for rid in rids for name in model_names],
        )
        restored_r = self._restore_completed("relax", rids)
        preresolved: dict[str, Any] = {}
        preresolved.update(
            {f"feature/{k}": v for k, v in restored_f.items()}
        )
        preresolved.update(
            {f"inference/{k}": v for k, v in restored_i.items()}
        )
        preresolved.update({f"relax/{k}": v for k, v in restored_r.items()})
        pending = [s for s in specs if s.key not in preresolved]
        n_tasks_of = {
            stage: sum(1 for s in specs if streaming.stage_of(s) == stage)
            for stage in streaming.STREAM_STAGES
        }

        # Three *sibling* stage spans stay open for the whole map: task
        # spans parent onto their stage explicitly (the thread-stack
        # rule would nest interleaved stages into each other).
        stage_spans = None
        if tracer.enabled:
            parent = tracer.current_span()
            stage_spans = {
                stage: tracer.start_span(
                    "stage",
                    label,
                    parent=parent,
                    stacked=False,
                    attrs={
                        "n_tasks": n_tasks_of[stage],
                        "schedule": "streaming",
                    },
                )
                for stage, label in (
                    ("feature", "features"),
                    ("inference", "inference"),
                    ("relax", "relax"),
                )
            }
        try:
            # Local compute workers are identical, so none is fenced into
            # a pool: each walks whole chains from its local lane.  The
            # last worker plays the 2 TB node for highmem-routed inference.
            execution = self._executor(
                len(pending),
                highmem_workers=1 if self.use_highmem_routing else 0,
            ).map(
                stagework.streaming_task,
                pending,
                pass_spec=True,
                stage="dataflow",
                stage_of=streaming.stage_of,
                stage_spans=stage_spans,
                finalize_fn=streaming.make_inference_finalizer(
                    preset.n_ensembles, std_budget, self.use_highmem_routing
                ),
                inject_deps=True,
                preresolved=preresolved,
                on_complete=self._streaming_callback(),
                initializer=stagework.init_streaming,
                initargs=(
                    suite,
                    self.feature_config,
                    self.feature_cache,
                    factory,
                    preset.name,
                ),
            )

            records_of: dict[str, list[TaskRecord]] = {
                stage: [] for stage in streaming.STREAM_STAGES
            }
            for r in execution.records:
                stage, _ = stagework.split_streaming_key(r.key)
                if stage in records_of:
                    records_of[stage].append(r)
            _raise_on_failures(records_of["feature"], "feature generation")
            _raise_on_failures(
                records_of["inference"], "inference", allow=is_oom_error
            )
            _raise_on_failures(
                records_of["relax"],
                "relax",
                allow=lambda e: e.startswith("SkippedDependency"),
            )

            def value_of(key: str) -> Any:
                if key in execution.results:
                    return execution.results[key]
                return preresolved.get(key)

            features = {
                rid: value_of(f"feature/{rid}") for rid in rids
            }
            preds_by_key = {}
            for rid in rids:
                for name in model_names:
                    pred = value_of(f"inference/{rid}/{name}")
                    if pred is not None:
                        preds_by_key[f"{rid}/{name}"] = pred
            predictions, oom, inference_durations = _assemble_inference(
                features, bank, preset, preds_by_key
            )
            if oom:
                metrics.counter("inference.oom.lost_tasks").inc(len(oom))
            top = {
                rid: max(preds, key=lambda p: p.ptms)
                for rid, preds in predictions.items()
                if preds
            }
            outcomes: dict[str, RelaxOutcome] = {}
            for rid in top:
                outcome = value_of(f"relax/{rid}")
                if outcome is not None:
                    outcomes[rid] = outcome

            # -- Operational model, barrier-identical per stage ---------
            # (node-hour accounting must not depend on the schedule).
            self._sim_offset = 0.0
            feature_tasks = [
                TaskSpec(
                    key=record.record_id,
                    payload=record,
                    size_hint=record.length,
                )
                for record in records
            ]
            n_feature_workers = min(
                plan.n_concurrent_jobs, self.feature_nodes * 4
            )
            feature_nodes = min(self.feature_nodes, n_feature_workers)
            per_node = -(-n_feature_workers // feature_nodes)  # ceil
            feature_workers = make_workers(feature_nodes, per_node)[
                :n_feature_workers
            ]

            def feature_duration(task: TaskSpec) -> float:
                return feature_task_seconds(
                    int(task.size_hint),
                    dataset_fraction=max(dataset_fraction, 1e-3),
                    io_contention=contention,
                )

            feature_sim = simulate_dataflow(
                feature_tasks, feature_workers, feature_duration
            )

            memory_needed = {}
            inference_tasks = []
            for rid in rids:
                bundle = features[rid]
                needed = inference_memory_bytes(
                    bundle.length, preset.n_ensembles, bundle.msa_depth
                )
                for name in model_names:
                    key = f"{rid}/{name}"
                    memory_needed[key] = needed
                    inference_tasks.append(
                        TaskSpec(
                            key=key,
                            payload=None,
                            size_hint=bundle.length,
                            requires_highmem=(
                                self.use_highmem_routing
                                and needed > std_budget
                            ),
                        )
                    )
            highmem_nodes = (
                self.inference_highmem_nodes
                if self.use_highmem_routing
                else 0
            )
            inference_workers = make_workers(
                self.inference_nodes,
                self.gpu_machine.gpus_per_node,
                highmem_nodes=highmem_nodes,
            )

            def oom_failure(task: TaskSpec, worker: WorkerInfo) -> str | None:
                bare = task.key.partition("/")[2] or task.key
                needed = memory_needed.get(
                    bare if task.key.startswith("inference/") else task.key
                )
                if needed is None:
                    return None
                budget = hm_budget if worker.highmem else std_budget
                if needed > budget:
                    return (
                        f"OutOfMemoryError: {task.key} needs "
                        f"{needed / 2**30:.1f} GiB, worker budget is "
                        f"{budget / 2**30:.1f} GiB"
                    )
                return None

            inference_sim = simulate_dataflow(
                inference_tasks,
                inference_workers,
                lambda t: inference_durations[t.key],
                failure_fn=oom_failure,
            )

            relax_tasks = [
                TaskSpec(
                    key=rid,
                    payload=top[rid].structure,
                    size_hint=len(top[rid].structure),
                )
                for rid in top
            ]
            relax_durations = {
                rid: relax_task_seconds(
                    outcome.n_heavy_atoms,
                    outcome.n_minimizations,
                    device="gpu",
                )
                for rid, outcome in outcomes.items()
            }
            relax_workers = make_workers(
                self.relax_nodes, self.gpu_machine.gpus_per_node
            )
            relax_sim = simulate_dataflow(
                relax_tasks, relax_workers, lambda t: relax_durations[t.key]
            )

            # -- Unified streaming simulation + bubble/TTFS -------------
            sim_specs = []
            for s in specs:
                if streaming.stage_of(s) == "inference":
                    bare = s.key.partition("/")[2]
                    s = replace(
                        s,
                        requires_highmem=(
                            self.use_highmem_routing
                            and memory_needed[bare] > std_budget
                        ),
                    )
                sim_specs.append(s)
            durations_all: dict[str, float] = {}
            for task in feature_tasks:
                durations_all[f"feature/{task.key}"] = feature_duration(task)
            for key, seconds in inference_durations.items():
                durations_all[f"inference/{key}"] = seconds
            for rid, seconds in relax_durations.items():
                durations_all[f"relax/{rid}"] = seconds
            cpu_pool = make_workers(feature_nodes, per_node, pool="cpu")[
                :n_feature_workers
            ]
            gpu_pool = make_workers(
                self.inference_nodes,
                self.gpu_machine.gpus_per_node,
                highmem_nodes=highmem_nodes,
                pool="gpu",
            )
            streaming_sim = streaming.simulate_streaming_campaign(
                sim_specs,
                cpu_pool + gpu_pool,
                durations_all,
                failure_fn=oom_failure,
            )
            bubble = compute_bubble_seconds(
                streaming_sim.records, streaming_sim.workers, sim_specs
            )
            ttfs = streaming.time_to_first_structure_seconds(
                streaming_sim.records,
                startup=streaming_sim.startup_seconds,
            )
            metrics.gauge("pipeline.bubble_seconds").set(bubble)
            metrics.gauge("pipeline.time_to_first_structure_seconds").set(
                ttfs
            )

            if stage_spans is not None:
                for stage, sim, label, skipped in (
                    ("feature", feature_sim, "features", len(restored_f)),
                    ("inference", inference_sim, "inference", len(restored_i)),
                    ("relax", relax_sim, "relax", len(restored_r)),
                ):
                    span = stage_spans[stage]
                    span.set_attr("n_workers", len(sim.workers))
                    span.set_attr(
                        "sim_walltime_seconds", sim.walltime_seconds
                    )
                    span.set_attr("n_skipped_resume", skipped)
                    self._extend_sim_spans(tracer, sim, span, label)
                stage_spans["inference"].set_attr("n_oom_failures", len(oom))
        finally:
            if stage_spans is not None:
                for span in stage_spans.values():
                    tracer.finish_span(span)

        stage_metrics = metrics.delta(
            counters_before, metrics.counter_values()
        )
        feature_stage = FeatureStageResult(
            features=features,
            simulation=feature_sim,
            n_nodes=self.feature_nodes,
            machine=self.feature_machine,
            plan=plan,
            stage_metrics=stage_metrics,
            execution=execution,
        )
        inference_stage = InferenceStageResult(
            predictions=predictions,
            top_models=top,
            oom_failures=oom,
            simulation=inference_sim,
            n_nodes=self.inference_nodes,
            machine=self.gpu_machine,
            preset=preset,
            stage_metrics=stage_metrics,
            execution=execution,
        )
        relax_stage = RelaxStageResult(
            outcomes=outcomes,
            simulation=relax_sim,
            n_nodes=self.relax_nodes,
            machine=self.gpu_machine,
            stage_metrics=stage_metrics,
            execution=execution,
        )
        return PipelineResult(
            feature_stage=feature_stage,
            inference_stage=inference_stage,
            relax_stage=relax_stage,
            schedule="streaming",
            streaming_simulation=streaming_sim,
            bubble_seconds=bubble,
            time_to_first_structure_seconds=ttfs,
        )

    # -- Full campaign -------------------------------------------------------
    def _run_stages(
        self,
        proteome: Proteome,
        suite: LibrarySuite,
        factory: NativeFactory,
    ) -> PipelineResult:
        self._sim_offset = 0.0
        feature_stage = self.run_feature_stage(proteome, suite)
        inference_stage = self.run_inference_stage(
            feature_stage.features, factory
        )
        relax_stage = self.run_relax_stage(
            {
                rid: pred.structure
                for rid, pred in inference_stage.top_models.items()
            }
        )
        # Score the barrier schedule's bubbles on the same dependency
        # DAG the streaming scheduler executes: per-stage simulations
        # stitched onto one timeline, workers scoped to their stage —
        # the idle-while-ready-work-waited seconds the barriers cost.
        specs = streaming.build_campaign_specs(
            list(proteome),
            [m.name for m in (SurrogateFoldModel(factory, i) for i in range(5))],
            lambda r: kingdom_bias_for(r.species),
        )
        composite_records, composite_workers, composite_specs = (
            streaming.barrier_composite(
                [
                    ("feature", feature_stage.simulation),
                    ("inference", inference_stage.simulation),
                    ("relax", relax_stage.simulation),
                ],
                specs,
            )
        )
        bubble = compute_bubble_seconds(
            composite_records, composite_workers, composite_specs
        )
        ttfs = streaming.time_to_first_structure_seconds(composite_records)
        metrics = get_metrics()
        metrics.gauge("pipeline.bubble_seconds").set(bubble)
        metrics.gauge("pipeline.time_to_first_structure_seconds").set(ttfs)
        return PipelineResult(
            feature_stage=feature_stage,
            inference_stage=inference_stage,
            relax_stage=relax_stage,
            schedule="barrier",
            bubble_seconds=bubble,
            time_to_first_structure_seconds=ttfs,
        )

    def _run_campaign(
        self,
        proteome: Proteome,
        suite: LibrarySuite,
        factory: NativeFactory,
    ) -> PipelineResult:
        if self.schedule == "streaming":
            return self._run_streaming(proteome, suite, factory)
        if self.schedule != "barrier":
            raise ValueError(
                f"unknown schedule {self.schedule!r}; "
                "expected 'barrier' or 'streaming'"
            )
        return self._run_stages(proteome, suite, factory)

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
