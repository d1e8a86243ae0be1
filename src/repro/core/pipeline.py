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
* a **stage** is a row of :data:`stagework.STAGES` — its task body,
  failure rule, span name, pool and result assembly; the wave loop
  below runs whatever rows a wave names;
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
time (:meth:`stagework.Campaign.replay`).  The replay is a function of
the science alone, so node-hours cannot depend on the schedule; only
the campaign *timeline* (makespan, bubbles, time to first structure) is
scored per plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from ..cache import FeatureCache
from ..cluster.machine import ANDES, SUMMIT, MachineSpec
from ..constants import REDUCED_DATASET_BYTES
from ..dataflow.bubbles import bubble_seconds as compute_bubble_seconds
from ..dataflow.engine import ThreadedExecutor, auto_worker_count
from ..dataflow.faults import RetryPolicy
from ..dataflow.process import ProcessExecutor
from ..dataflow.scheduler import TaskRecord, WorkerInfo
from ..dataflow.simulated import SimulationResult
from ..fold.generator import NativeFactory
from ..fold.model import MODEL_NAMES
from ..iosim.replication import ReplicationPlan, paper_plan
from ..msa.databases import LibrarySuite
from ..msa.diskindex import attach_suite_index
from ..msa.features import FeatureBundle, FeatureGenConfig
from ..runstate import RunState
from ..sequences.proteome import Proteome
from ..telemetry.metrics import get_metrics
from ..telemetry.session import TelemetrySession
from ..telemetry.tracer import get_tracer, spans_from_records
from . import stagework, streaming
from .presets import get_preset
from .stagework import (
    STAGES,
    Campaign,
    FeatureStageResult,
    InferenceStageResult,
    RelaxStageResult,
    StageDef,
    StageResult,
    kingdom_bias_for,
    split_streaming_key,
    with_stage_prefix,
)

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
#: between waves is a fence.  Both plans follow :data:`STAGES`: barrier
#: gives every stage its own wave, streaming runs them all in one.
WAVE_PLANS: dict[str, tuple[tuple[str, ...], ...]] = {
    "barrier": tuple((name,) for name in STAGES),
    "streaming": (tuple(STAGES),),
}


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

    def _stage_results(self) -> list[tuple[StageDef, StageResult]]:
        """Each stage's row and its ``<stage>_stage`` result, in order."""
        return [(row, getattr(self, f"{row.name}_stage")) for row in STAGES.values()]

    @property
    def total_node_hours(self) -> float:
        return sum(r.node_hours for _, r in self._stage_results())

    @property
    def campaign_walltime_seconds(self) -> float:
        """Modelled campaign wall time under the schedule that ran."""
        if self.streaming_simulation is not None:
            return self.streaming_simulation.walltime_seconds
        return sum(r.simulation.walltime_seconds for _, r in self._stage_results())


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
    #: The CLI's fault-injection kill switch hangs off this.  On the
    #: threaded backend it runs on executor worker threads; on the
    #: process backend, in the coordinating process.  Keep it cheap and
    #: thread-safe.
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
            persists = {name: state.on_complete(name) for name in STAGES}

        def callback(record: TaskRecord, value: Any) -> None:
            stage, bare = split_streaming_key(record.key)
            bare_record = replace(record, key=bare)
            if stage in persists:
                persists[stage](bare_record, value)
            if observer is not None:
                observer(stage, bare_record, value)

        return callback

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
    ) -> Campaign:
        """Run the stages named by ``waves`` over ``records``' chains.

        ``seeded`` maps prefixed keys to results the caller already has
        (a standalone inference stage is handed its features).  A wave
        restores its stages' ledgered keys, runs what is still pending,
        and assembles its stages' results; its stage spans and its
        counter delta cover exactly that.  The map's workers are all
        alike — every worker runs every stage of the wave, a chain stays
        on the worker that holds its inputs unless a peer would
        otherwise idle, and the last worker plays the 2 TB node for
        memory-routed stages and for ``retry_policy`` escalations
        (:meth:`run_inference_stage`).
        """
        preset = get_preset(preset_name or self.preset_name)
        tracer = get_tracer()
        metrics = get_metrics()
        campaign = Campaign(
            pipeline=self,
            specs=streaming.build_campaign_specs(
                records, list(MODEL_NAMES), lambda r: kingdom_bias_for(r.species)
            ),
            preset=preset,
            plan=self.replication_plan or paper_plan(REDUCED_DATASET_BYTES),
            suite=suite,
            retry_policy=retry_policy,
            resolved=dict(seeded or {}),
        )
        resolved = campaign.resolved
        if self.index_dir is not None and suite is not None:
            # Swap every library onto its memory-mapped disk-index
            # artifact before any worker starts (or forks): workers then
            # share one page-cache copy of the postings and never
            # rebuild a CSR index per process.
            attach_suite_index(suite, self.index_dir)
        # Escalation needs a highmem slot in the executor whenever the
        # simulation provisions highmem nodes or routing is on; backoff
        # is an operational (simulated-time) concern, so the science
        # executor retries immediately.
        highmem_worker = self.use_highmem_routing or (
            retry_policy is not None and self.inference_highmem_nodes > 0
        )
        exec_policy = None
        if retry_policy is not None:
            exec_policy = replace(retry_policy, backoff_seconds=0.0)
        on_complete = self._on_complete()

        # Each stage's replay starts its clock at 0, but the jobs ran one
        # after another; a cumulative offset places every stage after
        # the previous one on the simulated timeline, so lanes never
        # overlap and trace-derived utilization stays physical.
        sim_offset = 0.0
        for wave in waves:
            rows = [STAGES[name] for name in wave]
            counters_before = metrics.counter_values()
            # The wave's stage spans are siblings open for the whole wave:
            # task spans parent onto their stage explicitly (the
            # thread-stack rule would nest interleaved stages).
            stage_spans: dict[str, Any] = {}
            if tracer.enabled:
                parent = tracer.current_span()
                for row in rows:
                    stage_spans[row.name] = tracer.start_span(
                        "stage",
                        row.span,
                        parent=parent,
                        stacked=False,
                        attrs={"n_tasks": len(campaign.bare_keys[row.name])},
                    )
            try:
                # Resume: ledgered results seed the resolution map, so
                # chains resume mid-flight (a ledgered feature feeds a
                # pending inference).
                for row in rows:
                    restored = self._restore_completed(
                        row.name, campaign.bare_keys[row.name]
                    )
                    resolved.update(with_stage_prefix(row.name, restored))
                pending = streaming.wave_specs(campaign.specs, wave, resolved)
                execution = self._executor(
                    len(pending),
                    highmem_workers=int(
                        highmem_worker and any(row.memory_routed for row in rows)
                    ),
                ).map(
                    stagework.streaming_task,
                    pending,
                    retry_policy=exec_policy,
                    pass_spec=True,
                    stage_of=streaming.stage_of,
                    stage_spans=stage_spans or None,
                    finalize_fn=campaign.finalize,
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
                for row in rows:
                    row.raise_on_failures(execution.records)
                for row in rows:
                    campaign.stages[row.name] = row.assemble(campaign)
                # One counter delta per wave, shared by its stages.
                wave_metrics = metrics.delta(
                    counters_before, metrics.counter_values()
                )
                for row in rows:
                    result = campaign.stages[row.name]
                    result.stage_metrics = wave_metrics
                    result.execution = execution
                    sim = result.simulation
                    span = stage_spans.get(row.name)
                    if span is not None:
                        span.attrs.update(result.span_attrs())
                        tracer.extend(
                            spans_from_records(
                                sim.records,
                                parent=span,
                                clock="sim",
                                offset=sim_offset,
                                attrs={"stage": row.span},
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
            with_stage_prefix("feature", features),
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
            # pool plus the Summit GPU pool, one scheduler startup.  Each
            # pool is provisioned by the first stage on it, so relax
            # shares the feature stage's CPU nodes.
            pools: dict[str, list[WorkerInfo]] = {}
            for row in STAGES.values():
                pools.setdefault(row.pool, row.workers(campaign, row.pool))
            specs = campaign.routed_specs
            streaming_sim = streaming.simulate_streaming_campaign(
                specs,
                [worker for workers in pools.values() for worker in workers],
                campaign.durations,
                failure_fn=campaign.oom_failure,
            )
            records, workers = streaming_sim.records, streaming_sim.workers
            startup = streaming_sim.startup_seconds
        bubble = compute_bubble_seconds(records, workers, specs)
        ttfs = streaming.time_to_first_structure_seconds(records, startup)
        metrics = get_metrics()
        metrics.gauge("pipeline.bubble_seconds").set(bubble)
        metrics.gauge("pipeline.time_to_first_structure_seconds").set(ttfs)
        return PipelineResult(
            **{f"{name}_stage": result for name, result in campaign.stages.items()},
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
        stage_results = result._stage_results()
        session.annotate(
            preset=self.preset_name,
            n_targets=len(proteome),
            schedule=result.schedule,
            library_fingerprint=suite.fingerprint(),
            resume={
                "enabled": state is not None,
                "resumed": bool(state is not None and state.resumed),
                "skipped": {
                    row.span: stage.skipped_resume for row, stage in stage_results
                },
            },
            wall_seconds=wall_seconds,
            sim_walltime_seconds={
                row.span: stage.simulation.walltime_seconds
                for row, stage in stage_results
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
