"""Shared benchmark fixtures.

The heavyweight workloads (the 559-sequence Table 1 set, the CASP-like
model census) are built once per session and shared across benchmark
modules.  Every module writes its regenerated table/figure data to
``benchmarks/results/`` so EXPERIMENTS.md can quote it.

Feature generation goes through a session-scoped, disk-backed
:class:`~repro.cache.FeatureCache` (``benchmarks/.feature_cache/``):
the 559-target Table 1 feature set is computed once ever, not once per
benchmark session — repeat sessions hit the on-disk bundles.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import FeatureCache
from repro.core import benchmark_set, benchmark_suite, casp_targets
from repro.core.pipeline import ProteomePipeline
from repro.fold import NativeFactory
from repro.msa import generate_features
from repro.sequences import SequenceUniverse

RESULTS_DIR = Path(__file__).resolve().parent / "results"
FEATURE_CACHE_DIR = Path(__file__).resolve().parent / ".feature_cache"


def save_result(name: str, text: str) -> None:
    """Persist a regenerated table/figure for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
    print(f"\n{text}")


@pytest.fixture(scope="session")
def bench_universe() -> SequenceUniverse:
    return SequenceUniverse(seed=0)


@pytest.fixture(scope="session")
def feature_cache() -> FeatureCache:
    """Disk-backed feature cache shared by every benchmark module."""
    return FeatureCache(directory=FEATURE_CACHE_DIR)


@pytest.fixture(scope="session")
def table1_workload(bench_universe, feature_cache):
    """The 559-sequence benchmark set with precomputed features."""
    bench = benchmark_set(bench_universe, seed=0)
    suite = benchmark_suite(bench_universe, seed=0)
    features = {
        r.record_id: generate_features(r, suite, cache=feature_cache)
        for r in bench
    }
    return bench, suite, features


@pytest.fixture(scope="session")
def bench_factory(bench_universe) -> NativeFactory:
    return NativeFactory(bench_universe)


@pytest.fixture(scope="session")
def table1_runs(table1_workload, bench_factory):
    """All four preset runs over the Table 1 workload.

    casp14 runs without high-memory routing (as the paper's benchmark
    did), which is what loses its longest sequences to OOM.
    """
    _bench, _suite, features = table1_workload
    runs = {}
    for preset, nodes in (
        ("reduced_db", 32),
        ("genome", 32),
        ("super", 32),
        ("casp14", 91),
    ):
        pipeline = ProteomePipeline(
            preset_name=preset, inference_nodes=nodes, use_highmem_routing=False
        )
        runs[preset] = pipeline.run_inference_stage(features, bench_factory)
    return runs


@pytest.fixture(scope="session")
def casp19():
    """19 CASP-like targets with natives (Fig. 3 / Fig. 4 set)."""
    return casp_targets(n_targets=19, models_per_target=1, seed=11)


@pytest.fixture(scope="session")
def casp_census():
    """The §4.4 census: 5 models for each of 32 targets = 160 models."""
    return casp_targets(
        n_targets=32, models_per_target=5, seed=12, include_outlier=False
    )
