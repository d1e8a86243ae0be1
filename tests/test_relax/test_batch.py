"""Batched relaxation (:func:`relax_many`) vs the serial protocol loop."""

import numpy as np
import pytest

from repro.dataflow import ThreadedExecutor
from repro.fold import NativeFactory, PredictionConfig, SurrogateFoldModel
from repro.msa import generate_features
from repro.relax import SinglePassRelaxProtocol, relax_many


@pytest.fixture(scope="module")
def structures(universe, proteome, suite):
    factory = NativeFactory(universe)
    model = SurrogateFoldModel(factory, 1)
    cfg = PredictionConfig(max_recycles=3)
    out = {}
    for rec in list(proteome)[:5]:
        pred = model.predict(generate_features(rec, suite), cfg)
        out[rec.record_id] = pred.structure
    return out


def test_batched_matches_serial(structures):
    """Worker threads and dispatch order must not change any outcome."""
    serial = {
        key: SinglePassRelaxProtocol(device="gpu").run(s)
        for key, s in structures.items()
    }
    batch = relax_many(structures, executor=ThreadedExecutor(4))
    assert set(batch.outcomes) == set(serial)
    for key, expected in serial.items():
        got = batch.outcomes[key]
        np.testing.assert_array_equal(got.structure.ca, expected.structure.ca)
        assert got.violations_before == expected.violations_before
        assert got.violations_after == expected.violations_after
        assert got.final_energy == expected.final_energy
        assert got.total_steps == expected.total_steps
        assert got.converged == expected.converged


def test_auto_worker_count_follows_the_affinity_mask(structures, monkeypatch):
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
    )
    batch = relax_many(structures)
    assert len(batch.execution.workers) == 3


def test_worker_count_invariance(structures):
    one = relax_many(structures, executor=ThreadedExecutor(1))
    four = relax_many(structures, executor=ThreadedExecutor(4))
    for key in structures:
        np.testing.assert_array_equal(
            one.outcomes[key].structure.ca, four.outcomes[key].structure.ca
        )


def test_outcomes_keyed_like_the_input(structures):
    """Mapping keys, not record ids, key the outcomes and the tasks."""
    renamed = {f"model_{i}": s for i, s in enumerate(structures.values())}
    batch = relax_many(renamed, executor=ThreadedExecutor(2))
    assert list(batch.outcomes) == list(renamed)
    assert {r.key for r in batch.execution.records} == set(renamed)


def test_duplicate_structure_under_two_keys(structures):
    """One structure under two keys relaxes twice, to the same result."""
    first = next(iter(structures.values()))
    batch = relax_many({"a": first, "b": first}, executor=ThreadedExecutor(2))
    assert len(batch.outcomes) == 2
    np.testing.assert_array_equal(
        batch.outcomes["a"].structure.ca, batch.outcomes["b"].structure.ca
    )


def test_batch_result_accounting(structures):
    batch = relax_many(structures)
    assert batch.walltime_seconds > 0
    assert batch.models_per_second > 0
    clashes, bumps = batch.total_violations_after()
    assert clashes == 0
    assert bumps >= 0
    assert len(batch.execution.records) == len(structures)
    assert all(r.ok for r in batch.execution.records)
