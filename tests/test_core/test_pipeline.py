"""Pipeline stage tests on a miniature proteome."""

import gc
import sys
import threading
from collections import Counter
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest

from repro.core import ProteomePipeline, get_preset, kingdom_bias_for
from repro.core.stagework import Campaign
from repro.core.streaming import build_campaign_specs
from repro.core.stats import (
    benchmark_row,
    improvement_concentration,
    summarize_proteome,
)
from repro.fold import NativeFactory, Prediction
from repro.fold.model import MODEL_NAMES
from repro.msa import build_suite
from repro.sequences import Proteome, SequenceUniverse, synthetic_proteome


@pytest.fixture(scope="module")
def mini():
    uni = SequenceUniverse(13)
    prot = synthetic_proteome("D_vulgaris", universe=uni, seed=13, scale=0.006)
    suite = build_suite(uni, ["D_vulgaris"], seed=13, scale=0.006)
    factory = NativeFactory(uni)
    return uni, prot, suite, factory


@pytest.fixture(scope="module")
def pipeline():
    return ProteomePipeline(
        preset_name="genome",
        feature_nodes=4,
        inference_nodes=2,
        relax_nodes=1,
    )


@pytest.fixture(scope="module")
def full_run(mini, pipeline):
    uni, prot, suite, factory = mini
    return pipeline.run(prot, suite, factory)


def test_kingdom_bias():
    assert kingdom_bias_for("S_divinum") > 0
    assert kingdom_bias_for("D_vulgaris") == 0.0
    assert kingdom_bias_for("unknown") == 0.0


def test_pipeline_fields_are_the_product_settings():
    """Every campaign setting is one the CLI, the benchmarks or the
    examples set: preset, node counts, highmem routing, the executor
    and schedule, the disk index and the run's observers."""
    assert {f.name for f in fields(ProteomePipeline)} == {
        "preset_name",
        "feature_nodes",
        "inference_nodes",
        "relax_nodes",
        "use_highmem_routing",
        "compute_workers",
        "executor_backend",
        "schedule",
        "index_dir",
        "telemetry",
        "run_state",
        "task_observer",
    }


def test_plant_target_predicts_under_the_kingdom_bias():
    """A plant target's top model is the model head's own prediction
    under the plant bias (0.08), which the inference task reads off its
    feature bundle's record; the unbiased prediction differs."""
    from repro.fold.memory import standard_worker_memory_bytes
    from repro.fold.model import MODEL_NAMES, SurrogateFoldModel

    uni = SequenceUniverse(3)
    prot = synthetic_proteome("S_divinum", universe=uni, seed=3, scale=0.002)[:1]
    suite = build_suite(uni, ["S_divinum"], seed=3, scale=0.002)
    factory = NativeFactory(uni)
    result = ProteomePipeline(compute_workers=1).run(prot, suite, factory)
    (rid,) = result.inference_stage.top_models
    top = result.inference_stage.top_models[rid]
    bundle = result.feature_stage.features[rid]
    head = SurrogateFoldModel(factory, MODEL_NAMES.index(top.model_name))

    def predict(bias):
        config = get_preset("genome").config(
            kingdom_bias=bias, memory_budget_bytes=standard_worker_memory_bytes()
        )
        return head.predict(bundle, config)

    expected = predict(0.08)
    assert kingdom_bias_for("S_divinum") == 0.08
    assert (top.ptms, top.mean_plddt, top.n_recycles) == (
        expected.ptms,
        expected.mean_plddt,
        expected.n_recycles,
    )
    assert top.structure.ca.tobytes() == expected.structure.ca.tobytes()
    assert predict(0.0).ptms != top.ptms


def test_feature_stage(full_run, mini):
    _, prot, _, _ = mini
    fs = full_run.feature_stage
    assert set(fs.features) == {r.record_id for r in prot}
    assert fs.node_hours > 0
    assert fs.simulation.walltime_seconds > 0
    assert fs.plan.n_replicas == 24


def test_inference_stage(full_run, mini):
    _, prot, _, _ = mini
    inf = full_run.inference_stage
    assert len(inf.top_models) == len(prot)
    for rid, heads in inf.predictions.items():
        assert 1 <= len(heads) <= 5
        # Head summaries in bank order; the top model is the first head
        # of maximal pTMS, and its numbers are its head's.
        names = [h.model_name for h in heads]
        assert names == sorted(names, key=MODEL_NAMES.index)
        top = inf.top_models[rid]
        first_max = max(heads, key=lambda h: h.ptms)
        assert top.model_name == first_max.model_name
        assert (top.ptms, top.mean_plddt, top.n_recycles, top.true_tm) == (
            first_max.ptms,
            first_max.mean_plddt,
            first_max.n_recycles,
            first_max.true_tm,
        )
        assert top.record_id == rid
    # five tasks per target in the simulation
    assert len(inf.simulation.records) == 5 * len(prot)


def test_relax_stage(full_run):
    rx = full_run.relax_stage
    assert set(rx.outcomes) == set(full_run.inference_stage.top_models)
    for outcome in rx.outcomes.values():
        assert outcome.violations_after.n_clashes == 0


def test_node_hours_additive(full_run):
    assert full_run.total_node_hours == pytest.approx(
        full_run.feature_stage.node_hours
        + full_run.inference_stage.node_hours
        + full_run.relax_stage.node_hours
    )


def test_run_requires_factory(mini, pipeline):
    _, prot, suite, _ = mini
    with pytest.raises(ValueError):
        pipeline.run(prot, suite, None)


def test_stats_row(full_run):
    inf = full_run.inference_stage
    row = benchmark_row("genome", inf.top_models, 10.0)
    assert row.count == len(inf.top_models)
    assert 0 <= row.frac_plddt_high <= 1
    assert 0 < row.mean_ptms <= 1


def test_summarize_proteome(full_run):
    summary = summarize_proteome(full_run.inference_stage.top_models)
    assert summary.n_targets == len(full_run.inference_stage.top_models)
    assert 0 <= summary.residue_coverage_plddt_ultra <= summary.residue_coverage_plddt_high <= 1


def test_improvement_concentration_requires_overlap(full_run):
    top = full_run.inference_stage.top_models
    conc = improvement_concentration(top, top)
    assert conc.mean_delta == 0.0
    with pytest.raises(ValueError):
        improvement_concentration(top, {})


def test_stats_validation():
    with pytest.raises(ValueError):
        benchmark_row("x", {}, 0.0)
    with pytest.raises(ValueError):
        summarize_proteome({})


def _long_target_features(mini):
    """One 1000-residue target: over the casp14 memory wall on a
    standard worker, under it on a high-memory one."""
    from repro.msa import generate_features
    from repro.sequences import ProteinRecord, random_sequence, rng_for

    uni, _prot, suite, factory = mini
    rng = rng_for(99, "highmem-test")
    long_rec = ProteinRecord(
        record_id="highmem_target",
        encoded=random_sequence(1000, rng),
        family_id=None,
        divergence=1.0,
        annotated=False,
    )
    return {long_rec.record_id: generate_features(long_rec, suite)}, factory


def test_oom_failure_accounting(mini):
    """OOM tasks are failed in the records, not logged as successes:
    ``n_failed`` matches ``oom_failures`` and the keys are lost."""
    feats, factory = _long_target_features(mini)
    bare = ProteomePipeline(
        preset_name="casp14", inference_nodes=1, use_highmem_routing=False
    )
    run = bare.run_inference_stage(feats, factory)
    assert len(run.oom_failures) == 5
    assert run.simulation.n_failed == 5
    failed = [r for r in run.simulation.records if not r.ok]
    assert {r.key for r in failed} == set(run.simulation.lost_keys())
    assert all("OutOfMemoryError" in r.error for r in failed)
    assert all(r.attempt == 1 for r in failed)


def test_feature_stage_respects_plan_concurrency(mini):
    """The replication plan's slot count caps concurrent searches even
    when the nodes offer more slots (§3.2.1 contention bound): 30 Andes
    nodes hold 120 search slots, the reduced dataset's plan allows 96."""
    from repro.constants import REDUCED_DATASET_BYTES
    from repro.iosim.replication import paper_plan

    _uni, prot, suite, factory = mini
    pipeline = ProteomePipeline(feature_nodes=30, inference_nodes=2, relax_nodes=1)
    result = pipeline.run(prot, suite, factory).feature_stage
    assert result.plan == paper_plan(REDUCED_DATASET_BYTES)
    assert 30 * 4 > len(result.simulation.workers)
    assert len(result.simulation.workers) == result.plan.n_concurrent_jobs == 96


def test_highmem_routing_rescues_casp14(mini):
    """With routing on, casp14-style memory pressure goes to 2 TB nodes
    instead of failing — the paper's §3.3 high-memory node story."""
    from repro.msa import generate_features
    from repro.sequences import ProteinRecord, random_sequence, rng_for

    uni, _prot, suite, factory = mini
    # A designed 1000-residue target: over the casp14 (8-ensemble)
    # memory wall on a standard worker, under it on a high-memory one.
    rng = rng_for(99, "highmem-test")
    long_rec = ProteinRecord(
        record_id="highmem_target",
        encoded=random_sequence(1000, rng),
        family_id=None,
        divergence=1.0,
        annotated=False,
    )
    feats = {long_rec.record_id: generate_features(long_rec, suite)}
    routed = ProteomePipeline(
        preset_name="casp14", inference_nodes=1, use_highmem_routing=True
    )
    bare = ProteomePipeline(
        preset_name="casp14", inference_nodes=1, use_highmem_routing=False
    )
    r1 = routed.run_inference_stage(feats, factory)
    r2 = bare.run_inference_stage(feats, factory)
    assert not r1.oom_failures
    assert len(r2.oom_failures) == 5  # all five model tasks fail


@pytest.mark.parametrize("routing, n_highmem", [(True, 2), (False, 0)])
def test_inference_job_highmem_nodes(full_run, mini, routing, n_highmem):
    """With routing on, the simulated inference job's last two nodes
    are 2 TB ones (§3.3); with routing off it has none."""
    _, _, _, factory = mini
    pipeline = ProteomePipeline(inference_nodes=4, use_highmem_routing=routing)
    run = pipeline.run_inference_stage(full_run.feature_stage.features, factory)
    workers = run.simulation.workers
    assert len({w.node_id for w in workers}) == 4
    assert len({w.node_id for w in workers if w.highmem}) == n_highmem


def test_executor_stages_deterministic_across_worker_counts(mini):
    """Threaded stages must not change the science: every stochastic
    kernel draws from a per-(record, model) keyed stream, so 1 worker
    and 4 workers produce identical outputs in any completion order."""
    uni, prot, suite, factory = mini

    def run(workers):
        return ProteomePipeline(
            preset_name="genome",
            feature_nodes=4,
            inference_nodes=2,
            relax_nodes=1,
            compute_workers=workers,
        ).run(prot, suite, factory)

    serial = run(1)
    threaded = run(4)
    fs, ft = serial.feature_stage.features, threaded.feature_stage.features
    assert list(fs) == list(ft)  # proteome order, not completion order
    for rid, bundle in fs.items():
        assert ft[rid].msa_depth == bundle.msa_depth
        assert ft[rid].effective_depth == bundle.effective_depth
        assert ft[rid].n_templates == bundle.n_templates
    tops_s = serial.inference_stage.top_models
    tops_t = threaded.inference_stage.top_models
    assert set(tops_s) == set(tops_t)
    for rid, pred in tops_s.items():
        assert tops_t[rid].ptms == pred.ptms
        assert tops_t[rid].mean_plddt == pred.mean_plddt
    for rid, outcome in serial.relax_stage.outcomes.items():
        other = threaded.relax_stage.outcomes[rid]
        assert other.final_energy == outcome.final_energy
        assert other.total_steps == outcome.total_steps
        assert (
            other.violations_after.n_clashes
            == outcome.violations_after.n_clashes
        )


def test_stage_results_carry_execution_records(full_run, mini):
    """Each stage reports the executor map (the wave) that did its work;
    its records carry the stage-prefixed keys the map ran under."""
    from repro.core.stagework import split_streaming_key

    def bare_keys(execution):
        return {split_streaming_key(r.key)[1] for r in execution.records}

    _, prot, _, _ = mini
    record_ids = {r.record_id for r in prot}
    fs = full_run.feature_stage
    assert fs.execution is not None
    assert bare_keys(fs.execution) == record_ids
    assert fs.execution.n_failed == 0
    inf = full_run.inference_stage
    assert inf.execution is not None
    assert len(inf.execution.records) == 5 * len(prot)
    rx = full_run.relax_stage
    assert rx.execution is not None
    assert bare_keys(rx.execution) == set(full_run.inference_stage.top_models)
    # Barrier: one map per stage, and with it one counter delta per
    # stage — a stage's metrics hold only what moved during its wave.
    assert len({id(s.execution) for s in (fs, inf, rx)}) == 3
    assert len({id(s.stage_metrics) for s in (fs, inf, rx)}) == 3
    assert any(k.startswith("relax.") for k in rx.stage_metrics)
    assert not any(k.startswith("relax.") for k in fs.stage_metrics)
    assert not any(k.startswith("feature.") for k in rx.stage_metrics)


def test_standalone_stage_calls_start_their_sim_timeline_at_zero(full_run, mini):
    """The simulated-timeline offset belongs to one call, not to the
    pipeline object: two stage calls on one pipeline under one tracer
    both place their first sim span at the stage's own start, instead of
    the second landing after the first's walltime."""
    from repro.telemetry import TelemetrySession

    _, _, _, factory = mini
    features = full_run.feature_stage.features
    pipeline = ProteomePipeline(inference_nodes=2)
    session = TelemetrySession()
    with session.activate():
        first = pipeline.run_inference_stage(features, factory)
        second = pipeline.run_inference_stage(features, factory)
    sim_spans = [
        s for s in session.tracer.spans if s.attrs.get("clock") == "sim"
    ]
    n = len(first.simulation.records)
    assert len(sim_spans) == 2 * n
    starts = [min(s.start for s in call) for call in (sim_spans[:n], sim_spans[n:])]
    assert starts[0] == starts[1] == min(
        r.start for r in second.simulation.records
    )


def _live_predictions(tag: str) -> list[Prediction]:
    """Live predictions of the records whose id starts with ``tag``."""
    gc.collect()
    return [
        o
        for o in gc.get_objects()
        if isinstance(o, Prediction) and o.record_id.startswith(tag)
    ]


@pytest.mark.parametrize("schedule", ["streaming", "barrier"])
def test_campaign_keeps_one_prediction_per_target(mini, schedule):
    """Once a campaign on threads returns, the only predictions of its
    targets still alive are its top models, one per target — under
    streaming and behind the barrier fence alike — and each head's
    summary carries the numbers that head computed.  Under streaming a
    target is down to its top model as soon as its relax is terminal:
    the chain's intermediates leave the scheduler as it drains."""
    _, prot, suite, factory = mini
    tag = f"lifetime-{schedule}-"
    prot = Proteome(
        prot.species,
        [replace(r, record_id=tag + r.record_id) for r in prot[:6]],
    )
    computed = {}
    relaxed: list[str] = []
    mid_run: dict[str, int] = {}

    def observer(stage, record, value):
        if stage == "inference" and record.ok:
            computed[record.key] = (value.ptms, value.n_recycles)
        elif stage == "relax" and schedule == "streaming":
            live = Counter(p.record_id for p in _live_predictions(tag))
            mid_run.update({rid: live[rid] for rid in relaxed})
            relaxed.append(record.key)

    result = ProteomePipeline(
        schedule=schedule,
        feature_nodes=4,
        inference_nodes=2,
        relax_nodes=1,
        # One worker: each callback runs after the previous task's
        # completion was published.
        compute_workers=1,
        task_observer=observer,
    ).run(prot, suite, factory)
    live = _live_predictions(tag)
    tops = result.inference_stage.top_models
    assert sorted(p.record_id for p in live) == sorted(r.record_id for r in prot)
    assert {id(p) for p in live} == {id(p) for p in tops.values()}
    if schedule == "streaming":
        assert mid_run == {rid: 1 for rid in relaxed[:-1]}
        assert len(mid_run) == len(prot) - 1
    summaries = {
        f"{rid}/{head.model_name}": (head.ptms, head.n_recycles)
        for rid, heads in result.inference_stage.predictions.items()
        for head in heads
    }
    assert len(computed) == 5 * len(prot)
    assert summaries == computed


def test_campaign_take_from_many_threads():
    """On threads, ``Campaign.take`` runs on the executor's workers, so
    the heads of one target land concurrently: one thread per head,
    each walking the targets in the same order under a short switch
    interval, loses no summary, leaves no target held, and still keeps
    the bank-order first maximum (pTMS ties are common here) as each
    target's top model."""
    records = [SimpleNamespace(record_id=f"T{i:04d}", length=9) for i in range(500)]
    campaign = Campaign(
        pipeline=None,
        specs=build_campaign_specs(records),
        preset=None,
        plan=None,
        suite=None,
    )
    by_target = {
        r.record_id: [
            SimpleNamespace(
                record_id=r.record_id,
                model_name=name,
                ptms=float((i * j) % 3),
                mean_plddt=50.0 + j,
                n_recycles=j,
                true_tm=0.5,
            )
            for j, name in enumerate(MODEL_NAMES)
        ]
        for i, r in enumerate(records)
    }
    errors: list[BaseException] = []
    start = threading.Barrier(len(MODEL_NAMES), timeout=30)

    def land(head):
        try:
            start.wait()
            for rid, preds in by_target.items():
                campaign.take(f"inference/{rid}/{MODEL_NAMES[head]}", preds[head])
        except Exception as exc:  # a lost race surfaces as a KeyError
            errors.append(exc)

    threads = [
        threading.Thread(target=land, args=(head,)) for head in range(len(MODEL_NAMES))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(campaign.heads) == len(MODEL_NAMES) * len(records)
    assert campaign._held == {}
    assert {rid: id(p) for rid, p in campaign.top_models.items()} == {
        rid: id(max(preds, key=lambda p: p.ptms)) for rid, preds in by_target.items()
    }
