"""A real streaming campaign runs each chain where its inputs live.

Two pool-less worker processes: each takes a feature task from the
shared lane, then walks that target's five inference tasks and its
relaxation from its own local lane; a peer only takes over part of a
chain once the shared lane has run dry (the tail).
"""

from __future__ import annotations

import pytest

from repro.core import ProteomePipeline, get_preset
from repro.fold import NativeFactory
from repro.fold.memory import (
    inference_memory_bytes,
    standard_worker_memory_bytes,
)
from repro.msa import build_suite
from repro.sequences import SequenceUniverse, synthetic_proteome
from repro.telemetry import MetricsRegistry, use_metrics


@pytest.fixture(scope="module")
def campaign():
    uni = SequenceUniverse(33)
    prot = synthetic_proteome("P_mercurii", universe=uni, seed=33, scale=0.002)
    suite = build_suite(uni, ["P_mercurii"], seed=33, scale=0.002)
    pipeline = ProteomePipeline(
        feature_nodes=4,
        inference_nodes=2,
        relax_nodes=1,
        compute_workers=2,
        executor_backend="process",
        schedule="streaming",
    )
    registry = MetricsRegistry()
    with use_metrics(registry):
        result = pipeline.run(prot, suite, NativeFactory(uni))
    return result, registry


def test_chains_stay_on_the_worker_that_built_their_features(campaign):
    result, registry = campaign
    execution = result.feature_stage.execution
    assert len(execution.workers) == 2
    assert all(not w.pool for w in execution.workers)
    ran_on = {r.key: r.worker_id for r in execution.records if r.ok}
    ends = {r.key: r.end for r in execution.records if r.ok}
    starts = {r.key: r.start for r in execution.records}
    last_feature_dispatch = max(
        start for key, start in starts.items() if key.startswith("feature/")
    )
    n_ensembles = get_preset("genome").n_ensembles
    std_budget = standard_worker_memory_bytes()
    rerouted = moved = 0
    for rid, bundle in result.feature_stage.features.items():
        needed = inference_memory_bytes(
            bundle.length, n_ensembles, bundle.msa_depth
        )
        feature = f"feature/{rid}"
        inference = [k for k in ran_on if k.startswith(f"inference/{rid}/")]
        assert len(inference) == 5
        if needed > std_budget:
            rerouted += sum(ran_on[k] != ran_on[feature] for k in inference)
            continue
        for key in inference + [f"relax/{rid}"]:
            # The queue homes a task on the worker that completed its
            # latest-finishing dependency: a relax follows a stolen head
            # into the thief's lane, and that is local, not moved.
            deps = [feature] if key in inference else inference
            home = ran_on[max(deps, key=ends.__getitem__)]
            if ran_on[key] != home:
                # Only a steal moves a task, and a worker only steals
                # once the shared lane (every feature task) is empty.
                moved += 1
                assert starts[key] >= last_feature_dispatch
    counters = registry.counter_values("dataflow.dispatch.")
    assert moved <= counters["dataflow.dispatch.stolen"]
    n_chained = 6 * len(result.feature_stage.features)
    assert (
        counters["dataflow.dispatch.local"]
        + counters["dataflow.dispatch.stolen"]
        == n_chained - rerouted
    )
    assert counters["dataflow.dispatch.local"] >= 0.8 * n_chained


def test_both_workers_run_all_three_stages(campaign):
    result, _ = campaign
    execution = result.feature_stage.execution
    for worker in execution.workers:
        stages = {
            r.key.partition("/")[0]
            for r in execution.records
            if r.worker_id == worker.worker_id
        }
        assert stages == {"feature", "inference", "relax"}
