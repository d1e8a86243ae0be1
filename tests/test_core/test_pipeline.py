"""Pipeline stage tests on a miniature proteome."""

import pytest

from repro.core import ProteomePipeline, kingdom_bias_for
from repro.core.stats import (
    benchmark_row,
    improvement_concentration,
    summarize_proteome,
)
from repro.fold import NativeFactory
from repro.msa import build_suite
from repro.sequences import SequenceUniverse, synthetic_proteome


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
    for rid, preds in inf.predictions.items():
        assert 1 <= len(preds) <= 5
        top = inf.top_models[rid]
        assert top.ptms == max(p.ptms for p in preds)
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
    bare = ProteomePipeline(inference_nodes=1, use_highmem_routing=False)
    run = bare.run_inference_stage(feats, factory, preset_name="casp14")
    assert len(run.oom_failures) == 5
    assert run.simulation.n_failed == 5
    failed = [r for r in run.simulation.records if not r.ok]
    assert {r.key for r in failed} == set(run.simulation.lost_keys())
    assert all("OutOfMemoryError" in r.error for r in failed)
    assert all(r.attempt == 1 for r in failed)


def test_retry_policy_recovers_oom_tasks(mini):
    """With retries, OOM tasks re-run on highmem workers: zero lost
    targets, failed-then-ok attempt pairs, no oom_failures."""
    from repro.dataflow import RetryPolicy

    feats, factory = _long_target_features(mini)
    pipeline = ProteomePipeline(
        inference_nodes=4, inference_highmem_nodes=1, use_highmem_routing=False
    )
    run = pipeline.run_inference_stage(
        feats,
        factory,
        preset_name="casp14",
        retry_policy=RetryPolicy(max_attempts=3, backoff_seconds=10.0),
    )
    assert run.oom_failures == []
    assert run.simulation.lost_keys() == []
    assert len(run.top_models) == 1
    hm_ids = {w.worker_id for w in run.simulation.workers if w.highmem}
    recovered = 0
    for key in {r.key for r in run.simulation.records}:
        attempts = sorted(
            (r for r in run.simulation.records if r.key == key),
            key=lambda r: r.attempt,
        )
        assert attempts[-1].ok
        if len(attempts) > 1:
            recovered += 1
            assert not attempts[0].ok
            assert attempts[-1].worker_id in hm_ids
    assert recovered > 0


def test_feature_stage_respects_plan_concurrency(mini):
    """The replication plan's slot count caps concurrent searches even
    when it is below the node count (§3.2.1 contention bound)."""
    from repro.iosim.replication import ReplicationPlan

    _uni, prot, suite, _factory = mini
    plan = ReplicationPlan(
        dataset_bytes=420_000_000_000, n_replicas=2, jobs_per_replica=1
    )
    pipeline = ProteomePipeline(feature_nodes=8, replication_plan=plan)
    result = pipeline.run_feature_stage(prot, suite)
    worker_ids = {r.worker_id for r in result.simulation.records}
    assert len(worker_ids) <= plan.n_concurrent_jobs == 2


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
    routed = ProteomePipeline(inference_nodes=1, use_highmem_routing=True)
    bare = ProteomePipeline(inference_nodes=1, use_highmem_routing=False)
    r1 = routed.run_inference_stage(feats, factory, preset_name="casp14")
    r2 = bare.run_inference_stage(feats, factory, preset_name="casp14")
    assert not r1.oom_failures
    assert len(r2.oom_failures) == 5  # all five model tasks fail


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


def test_feature_stage_cache_counters(mini):
    """A pipeline-attached FeatureCache turns repeat campaigns into
    pure cache hits, and the stage result reports the split."""
    from repro import FeatureCache

    _, prot, suite, _ = mini
    cache = FeatureCache()
    pipeline = ProteomePipeline(feature_nodes=2, feature_cache=cache)
    first = pipeline.run_feature_stage(prot, suite)
    assert first.cache_misses == len(prot)
    assert first.cache_hits == 0
    second = pipeline.run_feature_stage(prot, suite)
    assert second.cache_hits == len(prot)
    assert second.cache_misses == 0
    for rid, bundle in first.features.items():
        assert second.features[rid].msa_depth == bundle.msa_depth
    uncached = ProteomePipeline(feature_nodes=2).run_feature_stage(prot, suite)
    assert uncached.cache_hits == 0 and uncached.cache_misses == 0


def test_standalone_stage_calls_start_their_sim_timeline_at_zero(mini):
    """The simulated-timeline offset belongs to one call, not to the
    pipeline object: two stage calls on one pipeline under one tracer
    both place their first sim span at the stage's own start, instead of
    the second landing after the first's walltime."""
    from repro.telemetry import TelemetrySession

    _, prot, suite, _ = mini
    pipeline = ProteomePipeline(feature_nodes=2)
    session = TelemetrySession()
    with session.activate():
        first = pipeline.run_feature_stage(prot, suite)
        second = pipeline.run_feature_stage(prot, suite)
    sim_spans = [
        s for s in session.tracer.spans if s.attrs.get("clock") == "sim"
    ]
    n = len(first.simulation.records)
    assert len(sim_spans) == 2 * n
    starts = [min(s.start for s in call) for call in (sim_spans[:n], sim_spans[n:])]
    assert starts[0] == starts[1] == min(
        r.start for r in second.simulation.records
    )
