"""Kill-and-resume: the acceptance test for durable campaign state.

A campaign with a ``RunState`` is killed mid-inference (a patched model
head starts throwing after N successes — the in-process stand-in for a
node failure taking the job down).  Resuming against the same state
directory must

* recompute **zero** ledgered task keys (counted search/predict calls),
* produce results **bit-identical** to an uninterrupted run,
* account every skip on ``<stage>.task.skipped_resume`` and the
  provenance manifest.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core import ProteomePipeline
from repro.fold import NativeFactory
from repro.fold.model import SurrogateFoldModel
from repro.msa import build_suite
from repro.runstate import RunState
from repro.sequences import SequenceUniverse, synthetic_proteome
from repro.telemetry import TelemetrySession

N_MODELS = 5
CRASH_AFTER = 6  # successful inference tasks before the injected failure


def make_pipeline(**kwargs) -> ProteomePipeline:
    return ProteomePipeline(
        feature_nodes=4, inference_nodes=2, relax_nodes=1, **kwargs
    )


@pytest.fixture(scope="module")
def mini():
    uni = SequenceUniverse(21)
    prot = synthetic_proteome(
        "P_mercurii", universe=uni, seed=21, scale=0.002
    )
    suite = build_suite(uni, ["P_mercurii"], seed=21, scale=0.002)
    return uni, prot, suite, NativeFactory(uni)


@pytest.fixture(scope="module")
def reference(mini):
    """The uninterrupted run every resumed run must match bit-for-bit."""
    _, prot, suite, factory = mini
    return make_pipeline().run(prot, suite, factory)


@pytest.fixture(scope="module")
def crashed(mini, tmp_path_factory):
    """Run with durable state, crash mid-inference; yield the state dir."""
    _, prot, suite, factory = mini
    state_dir = tmp_path_factory.mktemp("campaign-state")
    state = RunState(state_dir)
    pipeline = make_pipeline(run_state=state)

    original = SurrogateFoldModel.predict
    lock = threading.Lock()
    progress = {"ok": 0, "tripped": False}

    def failing_predict(self, bundle, config):
        with lock:
            if progress["tripped"]:
                raise RuntimeError("InjectedNodeFailure: allocation died")
        out = original(self, bundle, config)
        with lock:
            progress["ok"] += 1
            if progress["ok"] >= CRASH_AFTER:
                progress["tripped"] = True
        return out

    SurrogateFoldModel.predict = failing_predict
    try:
        with pytest.raises(RuntimeError, match="inference stage"):
            pipeline.run(prot, suite, factory)
    finally:
        SurrogateFoldModel.predict = original
        state.close()
    return state_dir


@pytest.fixture(scope="module")
def resumed(mini, crashed):
    """Resume the crashed campaign, counting every real compute call."""
    _, prot, suite, factory = mini
    state = RunState(crashed)
    assert state.resumed
    ledgered_inference = set(state.ledger.completed("inference"))

    import repro.msa.features as features_mod

    calls = {"search": 0, "predict": 0}
    original_search = features_mod.search_suite
    original_predict = SurrogateFoldModel.predict
    lock = threading.Lock()

    def counting_search(*args, **kwargs):
        with lock:
            calls["search"] += 1
        return original_search(*args, **kwargs)

    def counting_predict(self, bundle, config):
        with lock:
            calls["predict"] += 1
        return original_predict(self, bundle, config)

    features_mod.search_suite = counting_search
    SurrogateFoldModel.predict = counting_predict
    try:
        result = make_pipeline(run_state=state).run(prot, suite, factory)
    finally:
        features_mod.search_suite = original_search
        SurrogateFoldModel.predict = original_predict
        state.close()
    return result, calls, ledgered_inference


def assert_science_identical(a, b) -> None:
    """Every scientific output of two campaign runs is bit-identical."""
    assert set(a.feature_stage.features) == set(b.feature_stage.features)
    for rid, fa in a.feature_stage.features.items():
        fb = b.feature_stage.features[rid]
        assert fa.msa_depth == fb.msa_depth
        assert fa.effective_depth == fb.effective_depth
        assert fa.n_templates == fb.n_templates
        assert fa.best_template_identity == fb.best_template_identity
        assert np.array_equal(fa.record.encoded, fb.record.encoded)
    assert a.inference_stage.oom_failures == b.inference_stage.oom_failures
    assert set(a.inference_stage.predictions) == set(
        b.inference_stage.predictions
    )
    # Per-head summaries (``true_tm`` scores each head's structure
    # against the native) plus the top model's coordinates: all the
    # campaign keeps of the five predictions.
    for rid, preds_a in a.inference_stage.predictions.items():
        assert preds_a == b.inference_stage.predictions[rid]
    tops_a, tops_b = a.inference_stage.top_models, b.inference_stage.top_models
    assert list(tops_a) == list(tops_b)
    for rid, top_a in tops_a.items():
        top_b = tops_b[rid]
        assert top_a.model_name == top_b.model_name
        assert np.array_equal(top_a.structure.ca, top_b.structure.ca)
        assert np.array_equal(top_a.structure.plddt, top_b.structure.plddt)
    assert set(a.relax_stage.outcomes) == set(b.relax_stage.outcomes)
    for rid, oa in a.relax_stage.outcomes.items():
        ob = b.relax_stage.outcomes[rid]
        assert np.array_equal(oa.structure.ca, ob.structure.ca)
        assert oa.final_energy == ob.final_energy
        assert oa.total_steps == ob.total_steps
        assert oa.converged == ob.converged
    assert a.total_node_hours == b.total_node_hours


class TestCrash:
    def test_partial_ledger_survives_the_kill(self, mini, crashed):
        _, prot, _, _ = mini
        state = RunState(crashed)
        try:
            assert state.ledger.completed("feature") == {
                r.record_id for r in prot
            }
            done = state.ledger.completed("inference")
            total = N_MODELS * len(prot)
            assert 0 < len(done) < total
            # Every ledgered-ok key has its artifact (write-ahead order).
            assert set(state.restore("inference", done)) == done
            assert state.ledger.completed("relax") == set()
        finally:
            state.close()


class TestResume:
    def test_results_bit_identical_to_uninterrupted(self, reference, resumed):
        result, _, _ = resumed
        assert_science_identical(reference, result)

    def test_zero_recomputation_of_ledgered_keys(self, mini, resumed):
        _, prot, _, _ = mini
        result, calls, ledgered = resumed
        assert calls["search"] == 0  # whole feature stage restored
        assert calls["predict"] == N_MODELS * len(prot) - len(ledgered)

    def test_skipped_accounting(self, mini, resumed):
        _, prot, _, _ = mini
        result, _, ledgered = resumed
        assert result.feature_stage.skipped_resume == len(prot)
        assert result.inference_stage.skipped_resume == len(ledgered)
        assert result.relax_stage.skipped_resume == 0
        assert result.feature_stage.stage_metrics[
            "feature.task.skipped_resume"
        ] == len(prot)

    def test_second_resume_skips_everything(
        self, mini, reference, resumed, crashed, tmp_path
    ):
        """Re-running a finished campaign recomputes nothing at all."""
        _, prot, suite, factory = mini
        state = RunState(crashed)
        original = SurrogateFoldModel.predict

        def exploding_predict(self, bundle, config):
            raise AssertionError("resumed run must not re-run inference")

        SurrogateFoldModel.predict = exploding_predict
        session = TelemetrySession(tmp_path / "telemetry")
        try:
            result = make_pipeline(run_state=state, telemetry=session).run(
                prot, suite, factory
            )
        finally:
            SurrogateFoldModel.predict = original
            state.close()
        assert_science_identical(reference, result)
        assert result.inference_stage.skipped_resume == N_MODELS * len(prot)
        assert result.relax_stage.skipped_resume == len(
            result.relax_stage.outcomes
        )
        manifest = json.loads(
            (tmp_path / "telemetry" / "manifest.json").read_text()
        )
        assert manifest["resume"]["enabled"] is True
        assert manifest["resume"]["resumed"] is True
        assert manifest["resume"]["skipped"] == {
            "features": len(prot),
            "inference": N_MODELS * len(prot),
            "relax": len(result.relax_stage.outcomes),
        }
