"""Recycle controller and distogram convergence tests."""

import numpy as np
import pytest

from repro.fold import (
    NativeFactory,
    RecycleController,
    distogram_change,
    distogram_signature,
)
from repro.sequences import SequenceUniverse


@pytest.fixture(scope="module")
def fold():
    return NativeFactory(SequenceUniverse(9)).family_fold(77, 120)


def test_signature_shape_small(fold):
    sig = distogram_signature(fold)
    assert sig.shape == (120, 120)
    assert np.allclose(sig, sig.T)
    assert np.allclose(np.diag(sig), 0.0)


def test_signature_subsamples_long_chains():
    factory = NativeFactory(SequenceUniverse(9))
    big = factory.family_fold(78, 900)
    sig = distogram_signature(big)
    assert sig.shape[0] <= 450


@pytest.mark.parametrize("length", [5, 120, 399, 400, 401, 900])
def test_gemm_matches_reference_across_subsample_threshold(length):
    """The GEMM distogram equals the broadcast reference for lengths on
    both sides of the 400-row subsample threshold."""
    from ..reference_kernels import distogram_signature_reference

    factory = NativeFactory(SequenceUniverse(9))
    ca = factory.family_fold(1000 + length, length)
    fast = distogram_signature(ca)
    ref = distogram_signature_reference(ca)
    assert fast.shape == ref.shape
    np.testing.assert_allclose(fast, ref, rtol=1e-9, atol=1e-6)


def test_gemm_reuses_caller_buffer(fold):
    sig = distogram_signature(fold)
    out = np.empty_like(sig)
    again = distogram_signature(fold, out=out)
    assert again is out
    np.testing.assert_array_equal(again, sig)
    # Mismatched buffers are ignored, not an error.
    wrong = np.empty((3, 3))
    fresh = distogram_signature(fold, out=wrong)
    assert fresh is not wrong
    np.testing.assert_array_equal(fresh, sig)


def test_change_zero_for_identical(fold):
    sig = distogram_signature(fold)
    assert distogram_change(sig, sig) == 0.0


def test_change_positive_for_perturbation(fold):
    rng = np.random.default_rng(0)
    moved = fold + rng.normal(scale=1.0, size=fold.shape)
    a, b = distogram_signature(fold), distogram_signature(moved)
    assert distogram_change(a, b) > 0.1


def test_change_shape_mismatch_raises(fold):
    with pytest.raises(ValueError):
        distogram_change(np.zeros((3, 3)), np.zeros((4, 4)))


class TestController:
    def test_fixed_mode_runs_to_cap(self, fold):
        ctrl = RecycleController(tolerance=None, cap=4)
        rng = np.random.default_rng(1)
        stops = []
        for _ in range(4):
            stops.append(ctrl.update(fold + rng.normal(scale=2, size=fold.shape)))
        assert stops == [False, False, False, True]
        assert ctrl.n_recycles == 4

    def test_adaptive_stops_on_convergence(self, fold):
        ctrl = RecycleController(tolerance=0.5, cap=20)
        # Identical coordinates each pass -> change 0 after pass 2.
        assert ctrl.update(fold) is False
        assert ctrl.update(fold) is True
        assert ctrl.last_change == 0.0

    def test_adaptive_keeps_going_while_changing(self, fold):
        ctrl = RecycleController(tolerance=0.01, cap=20)
        rng = np.random.default_rng(2)
        n = 0
        while not ctrl.update(fold + rng.normal(scale=3, size=fold.shape)):
            n += 1
            if n > 25:
                break
        # big fresh noise every pass: should run to the cap
        assert ctrl.n_recycles == 20

    def test_never_stops_before_two_passes(self, fold):
        ctrl = RecycleController(tolerance=1e9, cap=20)
        assert ctrl.update(fold) is False
        assert ctrl.update(fold) is True
