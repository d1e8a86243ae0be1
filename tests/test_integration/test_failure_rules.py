"""Per-stage failure rules: which task errors a campaign survives.

The executor isolates exceptions per task; the pipeline then decides
per stage whether a failed task is an operational event the paper's
runs lived with (an inference head lost to OOM, a relax task skipped
because every head was lost) or an error it must surface.  Faults are
injected only through public inputs — a record too short for the MSA
search, a :class:`NativeFactory` whose native raises — so the checks
hold whatever the pipeline's internals look like.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import ProteomePipeline
from repro.fold import NativeFactory, OutOfMemoryError
from repro.msa import build_suite
from repro.sequences import Proteome, SequenceUniverse, synthetic_proteome

SCHEDULES = ("barrier", "streaming")


@pytest.fixture(scope="module")
def world():
    uni = SequenceUniverse(33)
    prot = synthetic_proteome("P_mercurii", universe=uni, seed=33, scale=0.002)
    suite = build_suite(uni, ["P_mercurii"], seed=33, scale=0.002)
    return uni, Proteome(prot.species, list(prot[:3])), suite


def _pipeline(schedule: str) -> ProteomePipeline:
    return ProteomePipeline(
        feature_nodes=4,
        inference_nodes=2,
        relax_nodes=1,
        compute_workers=2,
        executor_backend="threaded",
        schedule=schedule,
    )


class _FailingFactory(NativeFactory):
    """A factory whose native build raises ``error`` for one record."""

    def __init__(self, universe, bad_id: str, error: Exception) -> None:
        super().__init__(universe)
        self.bad_id = bad_id
        self.error = error

    def native(self, record):
        if record.record_id == self.bad_id:
            raise self.error
        return super().native(record)


def _short_query_fault(uni, prot, bad):
    """Cut one record to 5 residues: the k-mer search refuses it."""
    records = [
        replace(r, encoded=r.encoded[:5]) if r.record_id == bad else r
        for r in prot
    ]
    return Proteome(prot.species, records), NativeFactory(uni)


def _native_fault(uni, prot, bad):
    return prot, _FailingFactory(uni, bad, ValueError("corrupt native"))


def _oom_fault(uni, prot, bad):
    return prot, _FailingFactory(uni, bad, OutOfMemoryError(bad, 2**40, 2**34))


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize(
    "inject, raises",
    [
        (_short_query_fault, r"^feature generation stage: 1 task\(s\) failed"),
        (_native_fault, r"^inference stage: 5 task\(s\) failed"),
        (_oom_fault, None),
    ],
    ids=["feature", "inference", "oom"],
)
def test_stage_failure_rules(world, schedule, inject, raises):
    """Feature errors and non-OOM inference errors abort the run with
    the stage's label; a target whose five heads are lost to OOM is
    survived, and is not relaxed."""
    uni, prot, suite = world
    bad = prot[1].record_id
    prot, factory = inject(uni, prot, bad)
    pipeline = _pipeline(schedule)
    if raises is not None:
        with pytest.raises(RuntimeError, match=raises) as info:
            pipeline.run(prot, suite, factory)
        assert bad in str(info.value)
        return
    result = pipeline.run(prot, suite, factory)
    survivors = {r.record_id for r in prot} - {bad}
    inference = result.inference_stage
    assert [rid for rid, _ in inference.oom_failures] == [bad] * 5
    assert set(inference.top_models) == survivors
    assert set(result.relax_stage.outcomes) == survivors
