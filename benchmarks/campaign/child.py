"""One fresh-subprocess run: a campaign, its set-up alone, or a serial probe.

A campaign is a one-shot batch job, so every run is its own process:
caches cold, RSS isolated, fork state clean.  The last line of stdout is
one JSON document for the parent harness.

    python -m benchmarks.campaign.child campaign --workload W ...
    python -m benchmarks.campaign.child setup --workload W ...
    python -m benchmarks.campaign.child probe --input mixed|tiny ...
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import resource
import struct
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .workloads import (
    COMPUTE_WORKERS,
    PRESET_OF_INPUT,
    WORKLOADS,
    build_proteome,
    build_suite_for,
)

STAGES = ("feature", "inference", "relax")
#: No-op tasks per executor for the per-task dispatch cost.
NOOP_TASKS = 3000


class SpanRecorder:
    """In-memory spans around the calls the harness itself makes."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return math.fsum(self.durations(name))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def science_digests(top_models: dict, outcomes: dict) -> dict[str, str]:
    """Per-target digest of everything the campaign exists to produce:
    the top model's confidence and recycle count, the relaxation's step
    count, energy and convergence, and the relaxed coordinate bytes."""
    digests = {}
    for rid in sorted(outcomes):
        top, outcome = top_models[rid], outcomes[rid]
        h = hashlib.sha256()
        h.update(
            struct.pack(
                "<ddqqd?",
                top.ptms,
                top.mean_plddt,
                top.n_recycles,
                outcome.total_steps,
                outcome.final_energy,
                outcome.converged,
            )
        )
        h.update(outcome.structure.ca.tobytes())
        digests[rid] = h.hexdigest()[:20]
    return digests


def _shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm"))


def _noop(_payload) -> None:
    return None


def _tree_cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children
    (``os.times`` at ``getrusage`` resolution)."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(
            resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
    )


# -- Campaign -----------------------------------------------------------------
def _uncovered_seconds(records: list, walltime: float) -> float:
    """Seconds of ``[0, walltime]`` that none of one worker's records cover."""
    idle, clock = 0.0, 0.0
    for record in sorted(records, key=lambda r: r.start):
        idle += max(0.0, record.start - clock)
        clock = max(clock, record.end)
    return idle + max(0.0, walltime - clock)


def _campaign_layers(result, wall: float) -> dict:
    """Layer metrics read off the campaign's own per-attempt records."""
    from repro.core.stagework import split_streaming_key

    executions = []  # distinct objects: streaming shares one across stages
    for stage, stage_result in zip(
        STAGES, (result.feature_stage, result.inference_stage, result.relax_stage)
    ):
        if all(stage_result.execution is not e for _, e in executions):
            executions.append((stage, stage_result.execution))
    busy = dict.fromkeys(STAGES, 0.0)
    keys = {stage: set() for stage in STAGES}
    worker_busy: dict[str, float] = {}
    worker_span: dict[str, float] = {}
    attempts = lost = 0
    idle = 0.0
    for stage_name, execution in executions:
        by_worker: dict[str, list] = {w.worker_id: [] for w in execution.workers}
        lost += len(execution.lost_keys())
        for record in execution.records:
            stage = stage_name
            if result.schedule == "streaming":
                stage = split_streaming_key(record.key)[0]
            attempts += 1
            keys[stage].add(record.key)
            busy[stage] += record.duration
            # A task no worker could take has a record but no worker.
            if record.worker_id in by_worker:
                by_worker[record.worker_id].append(record)
        for worker_id, records in by_worker.items():
            # Idle is measured, not derived: the gaps between the worker's
            # own records, so that busy + idle only adds up to workers x
            # executor time if the records tile it without overlap.
            idle += _uncovered_seconds(records, execution.walltime_seconds)
            worker_busy[worker_id] = worker_busy.get(worker_id, 0.0) + math.fsum(
                r.duration for r in records
            )
            worker_span[worker_id] = (
                worker_span.get(worker_id, 0.0) + execution.walltime_seconds
            )
    n_tasks = sum(len(k) for k in keys.values())
    executor_s = math.fsum(e.walltime_seconds for _, e in executions)
    utils = [worker_busy[w] / span for w, span in worker_span.items() if span > 0]
    return {
        "dataflow.tasks": n_tasks,
        "dataflow.attempts": attempts,
        "dataflow.retries": attempts - n_tasks,
        "dataflow.lost_keys": lost,
        **{f"dataflow.busy_s.{stage}": busy[stage] for stage in STAGES},
        "dataflow.idle_s": idle,
        "dataflow.worker_util_min": min(utils),
        "dataflow.worker_util_max": max(utils),
        "core.orchestration_s": wall - executor_s,
        "cluster.sim_bubble_s": result.bubble_seconds,
        "cluster.sim_ttfs_s": result.time_to_first_structure_seconds,
        "tasks_by_stage": {stage: len(keys[stage]) for stage in STAGES},
    }


def set_up(args: argparse.Namespace, observer=None):
    """Everything a campaign does before ``pipeline.run``: imports, inputs,
    suite, ``NativeFactory``, temp dirs.  No index pre-build: the program
    builds indexes lazily and the benchmark must not change that."""
    from repro.core import ProteomePipeline
    from repro.fold import NativeFactory
    from repro.runstate import RunState
    from repro.telemetry import TelemetrySession

    workload = WORKLOADS[args.workload]
    work = Path(args.work_dir)
    universe, proteome = build_proteome(workload.input, args.seed, args.n_targets)
    suite = build_suite_for(workload.input, universe, args.n_targets)
    factory = NativeFactory(universe)
    session = None
    if workload.durable:
        session = TelemetrySession(work / "telemetry")
    elif args.traced:
        session = TelemetrySession()  # in memory; exported outside the wall
    pipeline = ProteomePipeline(
        preset_name=workload.preset,
        inference_nodes=16,  # `repro campaign` defaults
        relax_nodes=4,
        compute_workers=COMPUTE_WORKERS,
        executor_backend=workload.backend,
        schedule=workload.schedule,
        telemetry=session,
        run_state=RunState(work / "state") if workload.durable else None,
        task_observer=observer,
    )
    return pipeline, (proteome, suite, factory), time.time() - args.t0


def run_setup(args: argparse.Namespace) -> dict:
    """One more sample of ``setup_s``: set up as a campaign does, then stop."""
    pipeline, _, setup_s = set_up(args)
    if pipeline.run_state is not None:
        pipeline.run_state.close()
    return {"workload": args.workload, "metrics": {"setup_s": setup_s}}


def run_campaign(args: argparse.Namespace) -> dict:
    from repro.runstate import RunState

    workload = WORKLOADS[args.workload]
    recorder = SpanRecorder(workload.name)
    work = Path(args.work_dir)
    first_structure: list[float] = []

    def observer(stage, record, _value) -> None:
        if stage == "relax" and record.ok and not first_structure:
            first_structure.append(time.perf_counter())

    pipeline, inputs, setup_s = set_up(args, observer)
    session, state = pipeline.telemetry, pipeline.run_state
    n = len(inputs[0])
    shm_before = _shm_entries()
    cpu_before = _tree_cpu_seconds()
    with recorder.span("pipeline.run"):
        run_started = time.perf_counter()
        result = pipeline.run(*inputs)
        wall = time.perf_counter() - run_started
    cpu_s = _tree_cpu_seconds() - cpu_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    shm_leaked = len(_shm_entries() - shm_before)

    outcomes = result.relax_stage.outcomes
    digests = science_digests(result.inference_stage.top_models, outcomes)
    layers = _campaign_layers(result, wall)
    layers["dataflow.worker_peak_rss_mb"] = worker_rss_mb
    layers["dataflow.shm_leaked"] = shm_leaked

    resume = None
    if state is not None:
        # Re-open the state dir and resume under the *other* schedule: a
        # read path and a cross-schedule resume.  It must restore every
        # key, recompute nothing and reproduce the digest.
        state.close()
        with RunState(work / "state") as reopened, recorder.span("resume"):
            started = time.perf_counter()
            resumed = replace(
                pipeline,
                schedule="barrier",
                run_state=reopened,
                telemetry=None,
                task_observer=None,
            ).run(*inputs)
            layers["core.resume_wall_s"] = time.perf_counter() - started
        stages = (resumed.feature_stage, resumed.inference_stage, resumed.relax_stage)
        resume = {
            "restored": [s.skipped_resume for s in stages],
            "recomputed": sum(len(s.execution.records) for s in stages),
            "digest_equal": science_digests(
                resumed.inference_stage.top_models, resumed.relax_stage.outcomes
            )
            == digests,
        }
        resume["ok"] = (
            resume["restored"] == [n, 5 * n, n]
            and resume["recomputed"] == 0
            and resume["digest_equal"]
        )

    if args.traced:
        if session.run_dir is None:
            session.run_dir = work / "telemetry"
        with recorder.span("telemetry.export") as span:
            session.export()
        waits = session.metrics.histogram("dataflow.task.wait_seconds")
        layers["telemetry.export_s"] = span["end"] - span["start"]
        layers["telemetry.spans"] = len(session.tracer.spans)
        layers["dataflow.wait_p50_ms"] = waits.quantile(0.5) * 1e3
        layers["dataflow.wait_p95_ms"] = waits.quantile(0.95) * 1e3

    return {
        "workload": workload.name,
        "n_targets": n,
        "wall_s": wall,
        "metrics": {
            "setup_s": setup_s,
            "targets_per_s": len(outcomes) / wall,
            # No structure at all leaves nothing to time; failed_share
            # carries the failure.
            "ttfs_s": first_structure[0] - run_started if first_structure else None,
            "cpu_s_per_target": cpu_s / n,
            "peak_rss_mb": peak_rss_mb,
            "sim_node_hours": result.total_node_hours,
            "sim_makespan_s": result.campaign_walltime_seconds,
        },
        "layers": layers,
        "digests": digests,
        "resume": resume,
        "spans": recorder.spans,
    }


# -- Serial probe ---------------------------------------------------------------
def run_probe(args: argparse.Namespace) -> dict:
    """Replay the campaign's work single-threaded through public functions.

    The single-thread baseline, the per-layer probe, and — because it
    computes the same science by the plainest route — the reference
    digest every campaign run of this input must match.
    """
    import numpy as np
    from repro.core import get_preset, kingdom_bias_for
    from repro.dataflow import (
        ProcessExecutor,
        TaskRecord,
        ThreadedExecutor,
        decode_payload,
        encode_payload,
    )
    from repro.fold import (
        NativeFactory,
        SurrogateFoldModel,
        highmem_worker_memory_bytes,
        inference_memory_bytes,
        standard_worker_memory_bytes,
    )
    from repro.msa import FeatureGenConfig, generate_features, search_suite
    from repro.relax import SinglePassRelaxProtocol
    from repro.runstate import RunState

    kind = args.input
    rec = SpanRecorder(kind)
    preset = get_preset(PRESET_OF_INPUT[kind])
    with rec.span("sequences.generate"):
        universe, proteome = build_proteome(kind, args.seed, args.n_targets)
    with rec.span("msa.suite_build"):
        suite = build_suite_for(kind, universe, args.n_targets)
    factory = NativeFactory(universe)
    template_floor = FeatureGenConfig().template_min_identity
    bank = [SurrogateFoldModel(factory, i) for i in range(5)]
    protocol = SinglePassRelaxProtocol(device="gpu")
    std_budget = standard_worker_memory_bytes()
    hm_budget = highmem_worker_memory_bytes()

    with rec.span("msa.index_build"):
        indexes = [library.index for library in suite.libraries]
    index_bytes = sum(
        value.nbytes
        for index in indexes
        for value in vars(index).values()
        if isinstance(value, np.ndarray)
    )

    # What crosses the process boundary, as streaming dispatch shapes it:
    # ``(payload, {dep_key: result})`` out, the bare result back.
    messages: list = []
    values: dict[str, dict] = {stage: {} for stage in STAGES}
    top_models, outcomes = {}, {}
    hits = recycles = 0
    for record in proteome:
        rid = record.record_id
        with rec.span("msa.search"):
            found = search_suite(record, suite)
        # What generate_features does with a search result, timed on its
        # own through the result's public methods.
        with rec.span("msa.assemble"):
            found.template_hits(min_identity=template_floor)
            found.effective_depth()
        hits += len(found.hits)
        # The bundle itself comes by the campaign's route, so that the
        # probe's science is the campaign's.
        with rec.span("msa.features"):
            bundle = generate_features(record, suite)
        values["feature"][rid] = bundle
        messages += [(record, {}), bundle]
        needed = inference_memory_bytes(
            bundle.length, preset.n_ensembles, bundle.msa_depth
        )
        config = preset.config(
            kingdom_bias=kingdom_bias_for(record.species),
            memory_budget_bytes=hm_budget if needed > std_budget else std_budget,
        )
        predictions = {}
        for model in bank:
            with rec.span("fold.native"):
                factory.native(record)
            with rec.span("fold.predict"):
                prediction = model.predict(bundle, config)
            key = f"{rid}/{model.name}"
            predictions[f"inference/{key}"] = prediction
            values["inference"][key] = prediction
            recycles += prediction.n_recycles
            messages += [
                ((model.model_index, config.kingdom_bias), {f"feature/{rid}": bundle}),
                prediction,
            ]
        top = max(predictions.values(), key=lambda p: p.ptms)
        with rec.span("relax.prepare"):
            prepared = protocol.prepare(top.structure)
        with rec.span("relax.minimize"):
            outcome = protocol.run_prepared(prepared)
        top_models[rid], outcomes[rid] = top, outcome
        values["relax"][rid] = outcome
        messages += [(None, predictions), outcome]

    payload_bytes = segments = 0
    for message in messages:
        with rec.span("dataflow.encode"):
            encoded = encode_payload(message)
        payload_bytes += len(pickle.dumps(encoded.skeleton)) + encoded.nbytes
        segments += encoded.segment is not None
        with rec.span("dataflow.decode"):
            decode_payload(encoded)

    state_dir = Path(args.work_dir) / "probe-state"
    with RunState(state_dir) as state:
        for stage in STAGES:
            commit = state.on_complete(stage)
            for key, value in values[stage].items():
                record = TaskRecord(key=key, worker_id="probe", start=0.0, end=0.0)
                with rec.span("runstate.commit"):
                    commit(record, value)
    state_bytes = sum(
        p.stat().st_size for p in state_dir.rglob("*") if p.is_file()
    )
    restored = 0
    with RunState(state_dir) as state:
        for stage in STAGES:
            with rec.span("runstate.restore"):
                restored += len(state.restore(stage, list(values[stage])))

    noop_us = {}
    tasks = [(f"noop-{i}", i, 0.0) for i in range(NOOP_TASKS)]
    for name, executor in (
        ("threaded", ThreadedExecutor(COMPUTE_WORKERS)),
        ("process", ProcessExecutor(COMPUTE_WORKERS)),
    ):
        with rec.span(f"dataflow.noop.{name}") as span:
            executor.map(_noop, tasks)
        noop_us[name] = (span["end"] - span["start"]) / len(tasks) * 1e6

    predict = rec.durations("fold.predict")
    layers = {
        "sequences.generate_s": rec.total("sequences.generate"),
        "sequences.residues": int(proteome.lengths().sum()),
        "msa.suite_build_s": rec.total("msa.suite_build"),
        "msa.index_build_s": rec.total("msa.index_build"),
        "msa.index_bytes": index_bytes,
        "msa.search_s": rec.total("msa.search"),
        "msa.search_p95_ms": percentile(rec.durations("msa.search"), 0.95) * 1e3,
        "msa.assemble_s": rec.total("msa.assemble"),
        "msa.hits": hits,
        "fold.native_s": rec.total("fold.native"),
        "fold.predict_s": math.fsum(predict),
        "fold.predict_p50_ms": percentile(predict, 0.5) * 1e3,
        "fold.predict_p95_ms": percentile(predict, 0.95) * 1e3,
        "fold.recycles": recycles,
        "fold.ms_per_recycle": math.fsum(predict) / recycles * 1e3,
        "relax.prepare_s": rec.total("relax.prepare"),
        "relax.minimize_s": rec.total("relax.minimize"),
        "relax.minimize_p95_ms": percentile(rec.durations("relax.minimize"), 0.95)
        * 1e3,
        "relax.lbfgs_steps": sum(o.total_steps for o in outcomes.values()),
        "relax.unconverged": sum(not o.converged for o in outcomes.values()),
        "dataflow.noop_task_us.threaded": noop_us["threaded"],
        "dataflow.noop_task_us.process": noop_us["process"],
        "dataflow.encode_s": rec.total("dataflow.encode"),
        "dataflow.decode_s": rec.total("dataflow.decode"),
        "dataflow.payload_bytes": payload_bytes,
        "dataflow.shm_segments": segments,
        "runstate.commit_s": rec.total("runstate.commit"),
        "runstate.commits": len(rec.durations("runstate.commit")),
        "runstate.commit_p95_ms": percentile(rec.durations("runstate.commit"), 0.95)
        * 1e3,
        "runstate.bytes": state_bytes,
        "runstate.restore_s": rec.total("runstate.restore"),
        "runstate.restored": restored,
    }
    # The single-thread baseline: what one worker with nothing else
    # contending spends computing this input's science.
    layers["core.serial_compute_s"] = math.fsum(
        layers[name]
        for name in (
            "msa.index_build_s",
            "msa.search_s",
            "msa.assemble_s",
            "fold.native_s",
            "fold.predict_s",
            "relax.prepare_s",
            "relax.minimize_s",
        )
    )
    return {
        "input": kind,
        "n_targets": len(proteome),
        "layers": layers,
        "calls_by_stage": {stage: len(values[stage]) for stage in STAGES},
        "digests": science_digests(top_models, outcomes),
        "spans": rec.spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.campaign.child")
    sub = parser.add_subparsers(dest="mode", required=True)
    campaign = sub.add_parser("campaign")
    campaign.add_argument("--traced", action="store_true")
    setup = sub.add_parser("setup")
    setup.set_defaults(traced=False)
    for p in (campaign, setup):
        p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        # Wall-clock reading taken by the parent just before it spawned
        # this process, so set-up time includes interpreter start and imports.
        p.add_argument("--t0", type=float, required=True)
    probe = sub.add_parser("probe")
    probe.add_argument("--input", required=True, choices=sorted(PRESET_OF_INPUT))
    for p in (campaign, setup, probe):
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--n-targets", type=int, required=True)
        p.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)
    run = {"campaign": run_campaign, "setup": run_setup, "probe": run_probe}
    print(json.dumps(run[args.mode](args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
