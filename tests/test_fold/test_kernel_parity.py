"""The scaffolding kernels equal their oracles bit for bit, and stay cheap.

``build_ca_chain`` / ``extend_ca_chain``, ``compact_chain`` and
``tm_score`` were rewritten for fewer interpreter round-trips under the
contract that no output bit moves (every golden in the repo hangs off
them).  The oracles are the previous implementations, kept verbatim in
``tests/reference_kernels.py``; equality here is ``np.array_equal`` on
arrays and ``==`` on floats, never a tolerance.  Whether a stacked
LAPACK/BLAS call matches its per-item form on the BLAS in use is
decided by these tests, not by reading the code.

The second half guards the speed-up without a clock: it counts the
numpy calls the rewrites removed, so per-element Python cannot creep
back unnoticed and the guard cannot flake.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fold import NativeFactory, geometry
from repro.fold.geometry import (
    build_ca_chain,
    compact_chain,
    resolve_overlaps,
    ss_segments,
    torsions_for_segments,
)
from repro.sequences import SequenceUniverse, rng_for
from repro.structure import tm_score, tmscore

from .. import reference_kernels as oracle


def _internal_coordinates(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    if n == 0:
        return np.zeros(0), np.zeros(0)
    rng = np.random.default_rng(seed)
    angles, torsions, _ = torsions_for_segments(ss_segments(n, rng), rng)
    return angles, torsions


def _both_fallback_coordinates(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Internal coordinates whose chain turns out of the xy-plane onto
    the z axis and then runs straight: from residue 5 on the history is
    collinear (no plane normal) *and* the bond is parallel to z, so the
    z-cross fallback vanishes too and the y-cross one is taken."""
    angles = np.full(n, np.pi)  # pi - angle = 0: continue straight on
    torsions = np.zeros(n)
    angles[2] = angles[3] = np.pi / 2
    torsions[3] = np.pi / 2
    return angles, torsions


class TestBuildChain:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 700), seed=st.integers(0, 2**32 - 1))
    def test_equals_oracle(self, n, seed):
        angles, torsions = _internal_coordinates(n, seed)
        expected = oracle.build_ca_chain(angles, torsions)
        got = build_ca_chain(angles, torsions)
        assert got.shape == expected.shape == (n, 3)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_shortest_chains(self, n):
        angles, torsions = _internal_coordinates(n, seed=n)
        assert np.array_equal(
            build_ca_chain(angles, torsions), oracle.build_ca_chain(angles, torsions)
        )

    def test_collinear_history_takes_both_fallbacks(self, monkeypatch):
        angles, torsions = _both_fallback_coordinates(12)
        fallback_axes = []
        real_cross = np.cross

        def spying_cross(a, b, *args, **kwargs):
            if isinstance(b, list):
                fallback_axes.append(tuple(b))
            return real_cross(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "cross", spying_cross)
        expected = oracle.build_ca_chain(angles, torsions)
        monkeypatch.undo()
        assert (0.0, 0.0, 1.0) in fallback_axes and (0.0, 1.0, 0.0) in fallback_axes
        got = build_ca_chain(angles, torsions)
        assert np.array_equal(got, expected)
        assert np.isfinite(got).all()
        bonds = np.sqrt(((got[1:] - got[:-1]) ** 2).sum(axis=1))
        np.testing.assert_allclose(bonds, geometry.CA_BOND, atol=1e-9)

    def test_straight_chain_takes_first_fallback(self):
        angles, torsions = np.full(9, np.pi), np.zeros(9)
        assert np.array_equal(
            build_ca_chain(angles, torsions), oracle.build_ca_chain(angles, torsions)
        )

    def test_extension_needs_a_frame_and_room(self):
        coords = np.zeros((6, 3))
        with pytest.raises(ValueError):
            geometry.extend_ca_chain(coords, 2, np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            geometry.extend_ca_chain(coords, 3, np.ones(4), np.ones(4))
        with pytest.raises(ValueError):
            geometry.extend_ca_chain(coords, 3, np.ones(3), np.ones(2))


class TestMemberFoldExtension:
    @pytest.mark.parametrize(
        "fold_seed, natural, target", [(11, 40, 41), (12, 60, 75), (13, 33, 90)]
    )
    def test_equals_inline_loop(self, fold_seed, natural, target):
        factory = NativeFactory(SequenceUniverse(9), compaction_steps=30)
        base = factory.family_fold(fold_seed, natural)
        # What member_fold draws, replayed for the oracle.
        rng = rng_for(fold_seed, "extension", target)
        segments = ss_segments(target - natural, rng, helix_bias=0.4)
        angles, torsions, ext_labels = torsions_for_segments(segments, rng)
        expected = resolve_overlaps(oracle.extend_member_chain(base, angles, torsions))
        coords, labels = factory.member_fold(fold_seed, natural, target)
        assert np.array_equal(coords, expected)
        assert np.array_equal(labels[natural:], ext_labels)


class TestCompactChain:
    @staticmethod
    def _assert_same(chain, n_steps, seed=5):
        rng_fast, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = oracle.compact_chain(chain, rng_oracle, n_steps=n_steps)
        before = chain.copy()
        got = compact_chain(chain, rng_fast, n_steps=n_steps)
        assert np.array_equal(got, expected)
        assert np.array_equal(chain, before), "input must not be modified"
        # Same draws consumed: whoever shares the generator next sees
        # the same stream.
        assert rng_fast.bit_generator.state == rng_oracle.bit_generator.state

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(5, 260),
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.sampled_from([None, 40]),
    )
    def test_equals_oracle(self, n, seed, n_steps):
        chain = oracle.build_ca_chain(*_internal_coordinates(n, seed))
        self._assert_same(chain, n_steps, seed=seed)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_short_chains_returned_as_a_copy(self, n):
        chain = oracle.build_ca_chain(*_internal_coordinates(n, 3))
        got = compact_chain(chain, np.random.default_rng(0))
        assert np.array_equal(got, chain) and got is not chain
        self._assert_same(chain, None)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_chains_shorter_than_the_retention_window_allows(self, n):
        chain = oracle.build_ca_chain(*_internal_coordinates(n, 8))
        self._assert_same(chain, None)
        self._assert_same(chain, 40)

    def test_perturbed_native_resettles_identically(self):
        """The member-level call: a compact fold plus noise, 40 steps."""
        fold = NativeFactory(SequenceUniverse(9), compaction_steps=60).family_fold(5, 150)
        noisy = fold + np.random.default_rng(2).normal(0.0, 1.5, fold.shape)
        self._assert_same(noisy, 40)

    def test_other_window_and_step_arguments(self):
        chain = oracle.build_ca_chain(*_internal_coordinates(50, 4))
        for kwargs in (
            {"local_window": 1},
            {"local_window": 6, "rg_gain": 0.8},
            {"step_size": 0.05},
        ):
            expected = oracle.compact_chain(
                chain, np.random.default_rng(1), n_steps=25, **kwargs
            )
            got = compact_chain(chain, np.random.default_rng(1), n_steps=25, **kwargs)
            assert np.array_equal(got, expected), kwargs


def _pair(kind: str, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    native = np.cumsum(rng.normal(0.0, 2.2, (n, 3)), axis=0)
    if kind == "near":
        return native + rng.normal(0.0, 0.3, (n, 3)), native
    if kind == "noisy":
        return native + rng.normal(0.0, 3.0, (n, 3)), native
    if kind == "hinge":
        hinge = n // 2
        theta = rng.uniform(0.3, 2.0)
        c, s = np.cos(theta), np.sin(theta)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        model = native.copy()
        model[hinge:] = (native[hinge:] - native[hinge]) @ rotation.T + native[hinge]
        return model + rng.normal(0.0, 0.5, (n, 3)), native
    if kind == "unrelated":
        return np.cumsum(rng.normal(0.0, 2.2, (n, 3)), axis=0), native
    if kind == "scattered":  # nothing lands within the cutoff of anything
        return native * 50.0 + rng.normal(0.0, 30.0, (n, 3)), native
    raise AssertionError(kind)


class TestTmScore:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["near", "noisy", "hinge", "unrelated", "scattered"]),
        n=st.integers(3, 400),
        seed=st.integers(0, 2**32 - 1),
        extra_norm=st.sampled_from([None, 0, 37, 400]),
        max_iterations=st.sampled_from([20, 20, 1, 2, 3]),
    )
    def test_equals_oracle(self, kind, n, seed, extra_norm, max_iterations):
        model, native = _pair(kind, n, np.random.default_rng(seed))
        norm_length = None if extra_norm is None else n + extra_norm
        expected = oracle.tm_score(
            model, native, norm_length=norm_length, max_iterations=max_iterations
        )
        got = tm_score(
            model, native, norm_length=norm_length, max_iterations=max_iterations
        )
        assert got == expected
        assert type(got) is float

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_short_to_superpose(self, n):
        model, native = _pair("near", n, np.random.default_rng(n))
        assert tm_score(model, native) == oracle.tm_score(model, native) == 0.0

    def test_argsort_fallback_is_exercised_and_equal(self, monkeypatch):
        model, native = _pair("scattered", 60, np.random.default_rng(7))
        calls = []
        real_argsort = np.argsort
        monkeypatch.setattr(
            np, "argsort", lambda *a, **k: calls.append(1) or real_argsort(*a, **k)
        )
        got = tm_score(model, native)
        monkeypatch.undo()
        assert calls, "case no longer reaches the within.size < 3 fallback"
        assert got == oracle.tm_score(model, native)

    def test_predicted_structures_against_their_natives(self, factory, proteome):
        """The production call: natives from the factory, model-like error."""
        rng = np.random.default_rng(3)
        for record in proteome.records[:6]:
            native = factory.native(record).ca
            model = native + rng.normal(0.0, 1.2, native.shape)
            assert tm_score(model, native) == oracle.tm_score(model, native)


class _CountingAdd:
    """Stands in for ``np.add`` and counts its ``.at`` calls (a ufunc's
    attributes are read-only, so the method cannot be patched in place)."""

    def __init__(self):
        self.at_calls = 0

    def at(self, *args, **kwargs):
        self.at_calls += 1
        return np.add.at(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np.add, name)


class _NumpyWith:
    def __init__(self, **overrides):
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(np, name)


class TestCallCounts:
    def test_build_ca_chain_makes_no_cross_calls(self, monkeypatch):
        angles, torsions = _internal_coordinates(300, 1)
        calls = []
        monkeypatch.setattr(np, "cross", lambda *a, **k: calls.append(1))
        chain = build_ca_chain(angles, torsions)
        assert calls == []
        assert chain.shape == (300, 3)

    def test_member_extension_makes_no_cross_calls(self, monkeypatch):
        factory = NativeFactory(SequenceUniverse(9), compaction_steps=30)
        factory.family_fold(21, 40)
        calls = []
        monkeypatch.setattr(np, "cross", lambda *a, **k: calls.append(1))
        coords, _ = factory.member_fold(21, 40, 70)
        assert calls == []
        assert coords.shape == (70, 3)

    def test_compact_chain_scatters_at_most_twice_per_step(self, monkeypatch):
        # A compact fold: every step has excluded-volume pairs to scatter.
        chain = oracle.compact_chain(
            oracle.build_ca_chain(*_internal_coordinates(120, 2)),
            np.random.default_rng(0),
            n_steps=80,
        )
        counting_add = _CountingAdd()
        monkeypatch.setattr(geometry, "np", _NumpyWith(add=counting_add))
        n_steps = 12
        compact_chain(chain, np.random.default_rng(0), n_steps=n_steps)
        assert 0 < counting_add.at_calls <= 2 * n_steps

    def test_tm_score_decomposes_once_per_sweep(self, monkeypatch):
        model, native = _pair("noisy", 200, np.random.default_rng(11))
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for max_iterations in (20, 3):
            calls.clear()
            tm_score(model, native, max_iterations=max_iterations)
            assert 0 < len(calls) <= max_iterations

    def test_tm_score_does_not_go_through_kabsch(self):
        assert "kabsch" not in tmscore.tm_score.__code__.co_names
