"""K-mer index tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.msa import KmerIndex, kmer_codes
from repro.sequences import encode, mutate_sequence, random_sequence


def test_kmer_codes_count():
    seq = encode("ACDEFGHIKL")
    codes = kmer_codes(seq, k=5)
    assert codes.size == 6


def test_kmer_codes_short_sequence_empty():
    assert kmer_codes(encode("ACD"), k=5).size == 0


def test_kmer_codes_deterministic_and_positional():
    a = kmer_codes(encode("ACDEFG"), k=3)
    b = kmer_codes(encode("ACDEFG"), k=3)
    assert (a == b).all()
    # shifted window -> different code unless sequence repeats
    assert a[0] != a[1]


def test_identical_kmers_share_codes():
    codes = kmer_codes(encode("ACDACD"), k=3)
    assert codes[0] == codes[3]


class TestKmerIndex:
    def _build(self, seqs):
        idx = KmerIndex()
        for i, s in enumerate(seqs):
            idx.add(i, s)
        idx.freeze()
        return idx

    def test_self_containment_is_one(self, rng):
        seq = random_sequence(200, rng)
        idx = self._build([seq])
        assert idx.containment(seq)[0] == pytest.approx(1.0)

    def test_unrelated_containment_near_zero(self, rng):
        a = random_sequence(300, rng)
        b = random_sequence(300, rng)
        idx = self._build([b])
        assert idx.containment(a)[0] < 0.01

    def test_homolog_containment_tracks_identity(self, rng):
        ancestor = random_sequence(400, rng)
        close = mutate_sequence(ancestor, rng, 0.1, indel_rate=0.0)
        far = mutate_sequence(ancestor, rng, 0.5, indel_rate=0.0)
        idx = self._build([close, far])
        sims = idx.containment(ancestor)
        assert sims[0] > sims[1] > 0.0

    def test_requires_consecutive_ids(self, rng):
        idx = KmerIndex()
        idx.add(0, random_sequence(50, rng))
        with pytest.raises(ValueError):
            idx.add(2, random_sequence(50, rng))

    def test_frozen_rejects_add(self, rng):
        idx = self._build([random_sequence(50, rng)])
        with pytest.raises(RuntimeError):
            idx.add(1, random_sequence(50, rng))

    def test_count_hits_shape(self, rng):
        seqs = [random_sequence(100, rng) for _ in range(5)]
        idx = self._build(seqs)
        hits = idx.count_hits(seqs[0])
        assert hits.shape == (5,)
        assert hits[0] == idx.kmer_count(0)

    def test_count_hits_many_matches_single(self, rng):
        seqs = [random_sequence(int(rng.integers(30, 200)), rng) for _ in range(20)]
        idx = self._build(seqs)
        queries = [mutate_sequence(seqs[i % 20], rng, 0.2) for i in range(7)]
        queries.append(encode("ACD"))  # shorter than k: zero row
        matrix = idx.count_hits_many(queries)
        assert matrix.shape == (len(queries), 20)
        for row, q in zip(matrix, queries):
            assert (row == idx.count_hits(q)).all()
        assert (matrix[-1] == 0).all()

    def test_count_hits_many_precomputed_codes(self, rng):
        seqs = [random_sequence(80, rng) for _ in range(6)]
        idx = self._build(seqs)
        queries = [random_sequence(120, rng) for _ in range(4)]
        codes = [idx.query_codes(q) for q in queries]
        direct = idx.count_hits_many(queries)
        precomp = idx.count_hits_many(codes, precomputed_codes=True)
        assert (direct == precomp).all()

    def test_count_hits_many_empty_inputs(self, rng):
        idx = self._build([random_sequence(60, rng)])
        assert idx.count_hits_many([]).shape == (0, 1)
        empty_idx = KmerIndex()
        empty_idx.freeze()
        assert empty_idx.count_hits(random_sequence(60, rng)).shape == (0,)
        assert empty_idx.count_hits_many([random_sequence(60, rng)]).shape == (1, 0)

    def test_count_hits_codes_ignores_foreign_codes(self, rng):
        idx = self._build([random_sequence(90, rng)])
        junk = np.array([-7, 10**12, 0], dtype=np.int64)
        assert idx.count_hits_codes(junk).shape == (1,)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_rank_table_answers_foreign_codes_like_searchsorted(self, rng, k):
        # Negative codes, codes past the span and codes in the last
        # bitmap word's slack (20**k is not a multiple of 16 for k < 4)
        # match nothing, exactly as on the binary-search path.
        idx = KmerIndex(k=k)
        for i in range(4):
            idx.add(i, random_sequence(60, rng))
        idx.freeze()
        span = 20**k
        codes = np.concatenate(
            [
                np.array([-(2**40), -17, -1, span, span + 11, 2**62]),
                np.arange(max(0, span - 40), span + 40),
                rng.integers(0, span, size=200),
            ]
        ).astype(np.int64)
        fallback = KmerIndex.from_arrays(
            k, idx._codes, idx._offsets, idx._ids, idx._counts_f64
        )
        pos, matched = idx._vocab_positions(codes)
        expected_pos, expected_matched = fallback._vocab_positions(codes)
        assert np.array_equal(matched, expected_matched)
        assert np.array_equal(pos, expected_pos)

    def test_rank_table_fits_its_budget_at_k5(self, rng):
        seqs = [random_sequence(400, rng) for _ in range(200)]
        idx = self._build(seqs)
        csr = sum(
            a.nbytes for a in (idx._codes, idx._offsets, idx._ids, idx._counts_f64)
        )
        assert idx._bitmap is not None
        assert idx.nbytes <= csr + 1.5 * 2**20

    def test_empty_index_vocab_positions(self, rng):
        # Regression: the searchsorted fallback used to clamp positions
        # to ``size - 1 == -1`` on an empty vocabulary and fault on the
        # gather.  An empty index has no LUT (k=6 would not either), so
        # this hits the fallback directly.
        idx = KmerIndex()
        idx.freeze()
        codes = np.array([0, 17, 10**9], dtype=np.int64)
        pos, matched = idx._vocab_positions(codes)
        assert pos.size == 0
        assert matched.shape == (3,) and not matched.any()

    def test_empty_index_public_surfaces(self, rng):
        query = random_sequence(80, rng)
        idx = KmerIndex()
        idx.freeze()
        assert idx.count_hits(query).shape == (0,)
        assert idx.count_hits_many([query]).shape == (1, 0)
        assert idx.containment(query).shape == (0,)

    def test_pickle_roundtrip(self, rng):
        import pickle

        seqs = [random_sequence(100, rng) for _ in range(6)]
        idx = self._build(seqs)
        clone = pickle.loads(pickle.dumps(idx))
        query = mutate_sequence(seqs[2], rng, 0.2)
        assert (clone.count_hits(query) == idx.count_hits(query)).all()
        assert (clone.containment(query) == idx.containment(query)).all()
        # The rank table travels in the pickle.
        for name in ("_bitmap", "_rank"):
            original, copied = getattr(idx, name), getattr(clone, name)
            assert copied.dtype == original.dtype
            assert np.array_equal(copied, original)

    def test_pickle_freezes_pending_sequences(self, rng):
        import pickle

        seqs = [random_sequence(60, rng) for _ in range(3)]
        idx = KmerIndex()
        for i, s in enumerate(seqs):
            idx.add(i, s)  # not frozen yet
        clone = pickle.loads(pickle.dumps(idx))
        assert clone.n_sequences == 3
        assert clone.containment(seqs[1])[1] == pytest.approx(1.0)

    def test_pickle_empty_index(self, rng):
        import pickle

        clone = pickle.loads(pickle.dumps(KmerIndex()))
        assert clone.n_sequences == 0
        assert clone.count_hits(random_sequence(40, rng)).shape == (0,)

    @given(rate=st.floats(0.0, 0.6), seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_containment_inverts_to_identity(self, rate, seed):
        rng = np.random.default_rng(seed)
        ancestor = random_sequence(600, rng)
        mutant = mutate_sequence(ancestor, rng, rate, indel_rate=0.0)
        idx = KmerIndex()
        idx.add(0, mutant)
        idx.freeze()
        containment = float(idx.containment(ancestor)[0])
        estimated = containment ** (1 / 5) if containment > 0 else 0.0
        true_identity = float((ancestor == mutant).mean())
        if true_identity > 0.5:
            assert estimated == pytest.approx(true_identity, abs=0.12)


def _dict_count_hits(library, query, k):
    """The seed's dict-of-lists implementation, as the reference oracle."""
    postings: dict[int, list[int]] = {}
    for seq_id, seq in enumerate(library):
        for code in np.unique(kmer_codes(seq, k)).tolist():
            postings.setdefault(code, []).append(seq_id)
    counts = np.zeros(len(library), dtype=np.int64)
    for code in np.unique(kmer_codes(query, k)).tolist():
        for seq_id in postings.get(code, ()):
            counts[seq_id] += 1
    return counts


# k=5 exercises the dense lookup-table path, k=6 the searchsorted
# fallback (span > _LUT_MAX_SPAN).
@given(
    seed=st.integers(0, 10_000),
    n_seqs=st.integers(1, 12),
    k=st.sampled_from([5, 6]),
)
@settings(max_examples=25, deadline=None)
def test_csr_count_hits_matches_dict_reference(seed, n_seqs, k):
    rng = np.random.default_rng(seed)
    library = [
        random_sequence(int(rng.integers(3, 120)), rng) for _ in range(n_seqs)
    ]
    queries = [
        mutate_sequence(library[int(rng.integers(0, n_seqs))], rng, 0.3),
        random_sequence(int(rng.integers(3, 120)), rng),
    ]
    idx = KmerIndex(k=k)
    for i, seq in enumerate(library):
        idx.add(i, seq)
    idx.freeze()
    expected = [_dict_count_hits(library, q, k) for q in queries]
    for q, ref in zip(queries, expected):
        assert (idx.count_hits(q) == ref).all()
    matrix = idx.count_hits_many(queries)
    for row, ref in zip(matrix, expected):
        assert (row == ref).all()
