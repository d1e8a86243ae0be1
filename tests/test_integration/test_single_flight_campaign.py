"""Lazy shared state is built once per process, however many threads race.

A barrier stage queues a target's five heads back to back, so two
threads routinely miss the same native (and the same k-mer index) at
the same instant.  The builds are counted where they happen —
``compact_chain`` for family folds and member re-settles,
``KmerIndex.freeze`` (``msa.index.rebuild``) for indexes — and must
equal what one thread alone does.  The same objects must still cross a
``spawn`` process boundary by pickle.
"""

from __future__ import annotations

import pytest

from repro.core import ProteomePipeline
from repro.dataflow import ProcessExecutor
from repro.fold import NativeFactory
from repro.msa import build_suite
from repro.sequences import SequenceUniverse, synthetic_proteome
from repro.telemetry import MetricsRegistry, use_metrics

from ..bounded import run_bounded

COALESCED = (
    "fold.native.coalesced",
    "fold.family_fold.coalesced",
    "msa.index.coalesced",
)


def make_pipeline(**kwargs) -> ProteomePipeline:
    return ProteomePipeline(
        feature_nodes=4, inference_nodes=2, relax_nodes=1, **kwargs
    )


@pytest.fixture(scope="module")
def world():
    uni = SequenceUniverse(33)
    prot = synthetic_proteome("P_mercurii", universe=uni, seed=33, scale=0.002)
    return uni, prot


def fresh_suite(uni):
    return build_suite(uni, ["P_mercurii"], seed=33, scale=0.002)


@pytest.mark.parametrize("n_threads", [2, 4])
def test_barrier_threads_build_each_index_fold_and_native_once(
    world, compact_calls, n_threads
):
    uni, prot = world
    serial = NativeFactory(uni)
    for record in prot:
        serial.native(record)
    expected = sorted(compact_calls)
    assert expected.count("fold") == len(serial._fold_cache)
    assert expected.count("resettle") <= len(prot)
    compact_calls.clear()

    suite, factory = fresh_suite(uni), NativeFactory(uni)
    pipeline = make_pipeline(compute_workers=n_threads)
    registry = MetricsRegistry()

    def stages():
        return pipeline.run(prot, suite, factory).inference_stage

    with use_metrics(registry):
        (inference,) = run_bounded([stages], timeout=300.0)
    assert len(inference.top_models) == len(prot)
    counters = registry.counter_values()
    assert counters["msa.index.rebuild"] == len(suite.libraries)
    assert sorted(compact_calls) == expected
    assert len(factory._native_cache) == len(prot)


def science(result) -> dict[str, tuple]:
    tops, outcomes = result.inference_stage.top_models, result.relax_stage.outcomes
    return {
        rid: (
            tops[rid].model_name,
            tops[rid].ptms,
            tops[rid].mean_plddt,
            outcomes[rid].final_energy,
            outcomes[rid].structure.ca.tobytes(),
        )
        for rid in sorted(outcomes)
    }


class SpawnPipeline(ProteomePipeline):
    """No pipeline field selects the start method (fork is the default
    where it exists), so the spawn run swaps the executor itself."""

    def _executor(self, n_items: int, highmem_workers: int = 0):
        return ProcessExecutor(
            2, highmem_workers=min(highmem_workers, 2), start_method="spawn"
        )


def test_spawned_streaming_campaign_matches_threaded(world):
    """Suite and factory reach spawned workers as pickled initargs, flight
    tables and all; single-threaded workers never wait on a build."""
    uni, prot = world
    threaded = make_pipeline(compute_workers=2).run(
        prot, fresh_suite(uni), NativeFactory(uni)
    )
    spawned = SpawnPipeline(
        feature_nodes=4,
        inference_nodes=2,
        relax_nodes=1,
        executor_backend="process",
        schedule="streaming",
    )
    registry = MetricsRegistry()
    with use_metrics(registry):
        (result,) = run_bounded(
            [lambda: spawned.run(prot, fresh_suite(uni), NativeFactory(uni))],
            timeout=300.0,
        )
    assert len(result.feature_stage.execution.workers) == 2
    assert science(result) == science(threaded)
    counters = registry.counter_values()
    assert [counters.get(name, 0) for name in COALESCED] == [0, 0, 0]
