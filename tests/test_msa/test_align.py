"""Sequence alignment tests."""

import numpy as np
import pytest

from repro.msa import global_align, pairwise_identity
from repro.sequences import encode, mutate_sequence, random_sequence

from ..reference_kernels import reference_traceback as _reference_traceback


def test_identical_sequences_full_identity(rng):
    seq = random_sequence(120, rng)
    aln = global_align(seq, seq)
    assert aln.identity == pytest.approx(1.0)
    assert aln.n_aligned == 120
    assert (aln.pairs[:, 0] == aln.pairs[:, 1]).all()


def test_empty_rejected():
    with pytest.raises(ValueError):
        global_align(np.empty(0, dtype=np.uint8), encode("ACD"))


def test_substitutions_reduce_identity(rng):
    seq = random_sequence(300, rng)
    mut = mutate_sequence(seq, rng, 0.3, indel_rate=0.0)
    identity = pairwise_identity(seq, mut)
    assert 0.6 < identity < 0.85


def test_indels_handled(rng):
    seq = random_sequence(200, rng)
    # Delete a 10-residue block: alignment should recover the rest.
    deleted = np.concatenate([seq[:50], seq[60:]])
    aln = global_align(seq, deleted)
    assert aln.identity > 0.95
    assert aln.n_aligned >= 185


def test_unrelated_low_identity(rng):
    a = random_sequence(200, rng)
    b = random_sequence(200, rng)
    assert pairwise_identity(a, b) < 0.35


def test_alignment_pairs_monotone(rng):
    a = random_sequence(80, rng)
    b = mutate_sequence(a, rng, 0.2, indel_rate=0.05)
    aln = global_align(a, b)
    assert (np.diff(aln.pairs[:, 0]) > 0).all()
    assert (np.diff(aln.pairs[:, 1]) > 0).all()


def test_score_symmetric_identity(rng):
    a = random_sequence(150, rng)
    b = mutate_sequence(a, rng, 0.25, indel_rate=0.0)
    assert pairwise_identity(a, b) == pytest.approx(
        pairwise_identity(b, a), abs=0.03
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 17, 101])
def test_traceback_matches_isclose_reference(seed):
    """The precomputed-tolerance traceback reproduces the seed's
    np.isclose traceback exactly: same pairs, score, and identity."""
    from repro.msa.align import GAP_PENALTY

    rng = np.random.default_rng(seed)
    a = random_sequence(int(rng.integers(20, 250)), rng)
    b = mutate_sequence(a, rng, float(rng.uniform(0.0, 0.5)), indel_rate=0.05)
    aln = global_align(a, b)
    ref_pairs, ref_score, ref_identity = _reference_traceback(a, b, GAP_PENALTY)
    assert aln.score == ref_score
    assert aln.identity == ref_identity
    assert (aln.pairs == ref_pairs).all()
