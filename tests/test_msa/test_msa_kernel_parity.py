"""The MSA kernels equal their oracles bit for bit, and stay cheap.

``global_align_many`` (batched exact-integer Needleman-Wunsch) and the
one-sort ``KmerIndex`` build replaced a float64 per-target aligner and a
per-entry ``np.unique`` build under the contract that no output bit
moves: every hit list, feature bundle and golden downstream hangs off
them.  The oracles are the previous implementations, kept verbatim in
``tests/reference_kernels.py``; equality here is ``np.array_equal`` on
arrays and ``==`` on floats, never a tolerance.

The last class guards the speed-up without a clock: it counts kernel
passes and ``np.unique`` calls, so per-target or per-entry work cannot
creep back unnoticed and the guard cannot flake.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.msa import KmerIndex, build_disk_index, global_align_many, search_suite
from repro.msa import align as align_mod
from repro.msa import search as search_mod
from repro.msa.align import BATCH_TARGETS
from repro.sequences import ALPHABET_SIZE, mutate_sequence, random_sequence

from .. import reference_kernels as oracle

TARGET_KINDS = ("identical", "unrelated", "indels", "longer", "shorter")


def _target(kind: str, query: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if kind == "identical":
        return query.copy()
    if kind == "unrelated":
        return random_sequence(int(rng.integers(1, 701)), rng)
    if kind == "indels":
        return mutate_sequence(query, rng, 0.15, indel_rate=0.3)
    if kind == "longer":
        head = random_sequence(int(rng.integers(1, 60)), rng)
        tail = random_sequence(int(rng.integers(1, 60)), rng)
        body = mutate_sequence(query, rng, 0.2, indel_rate=0.05)
        return np.concatenate([head, body, tail])
    # "shorter": a mutated stretch of the query.
    start = int(rng.integers(0, query.size))
    stop = int(rng.integers(start + 1, query.size + 1))
    return mutate_sequence(query[start:stop], rng, 0.2)


@st.composite
def alignment_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n_query = draw(st.integers(1, 700))
    kinds = draw(st.lists(st.sampled_from(TARGET_KINDS), min_size=1, max_size=20))
    rng = np.random.default_rng(seed)
    query = random_sequence(n_query, rng)
    return query, [_target(kind, query, rng) for kind in kinds]


def _assert_same(got, expected):
    assert got.pairs.dtype == expected.pairs.dtype == np.int64
    assert got.pairs.shape == expected.pairs.shape
    assert got.pairs.shape[1:] == (2,)
    assert np.array_equal(got.pairs, expected.pairs)
    assert got.score == expected.score
    assert got.identity == expected.identity


class TestAlignMany:
    @settings(max_examples=12, deadline=None)
    @given(case=alignment_cases())
    def test_equals_oracle_per_target(self, case):
        query, targets = case
        got = global_align_many(query, targets)
        assert len(got) == len(targets)
        for aln, target in zip(got, targets):
            _assert_same(aln, oracle.global_align(query, target))

    @settings(max_examples=12, deadline=None)
    @given(case=alignment_cases(), seed=st.integers(0, 2**32 - 1))
    def test_result_does_not_depend_on_the_batch(self, case, seed):
        query, targets = case
        together = global_align_many(query, targets)
        order = np.random.default_rng(seed).permutation(len(targets))
        shuffled = global_align_many(query, [targets[k] for k in order])
        for position, k in enumerate(order):
            _assert_same(shuffled[position], together[k])
            _assert_same(global_align_many(query, [targets[k]])[0], together[k])

    def test_batch_split_by_the_memory_cap(self, monkeypatch):
        rng = np.random.default_rng(3)
        query = random_sequence(90, rng)
        targets = [
            _target(TARGET_KINDS[k % len(TARGET_KINDS)], query, rng)
            for k in range(2 * BATCH_TARGETS + 3)
        ]
        batches = []
        real = align_mod._align_batch

        def spying(q, letters, q_rows, batch):
            batches.append(len(batch))
            return real(q, letters, q_rows, batch)

        monkeypatch.setattr(align_mod, "_align_batch", spying)
        got = global_align_many(query, targets)
        assert batches == [BATCH_TARGETS, BATCH_TARGETS, 3]
        for aln, target in zip(got, targets):
            _assert_same(aln, oracle.global_align(query, target))

    def test_full_pass_peaks_below_one_float_alignment(self):
        # A full batch keeps 2 bits per cell per target; with its row
        # buffers it must still peak below the 16 bytes per cell (float64
        # scores + substitutions) of aligning its widest target alone.
        rng = np.random.default_rng(4)
        query = random_sequence(300, rng)
        targets = [random_sequence(600, rng) for _ in range(BATCH_TARGETS)]
        tracemalloc.start()
        try:
            global_align_many(query, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * (query.size + 1) * (600 + 1)

    @pytest.mark.parametrize("n_query, n_target", [(1, 1), (1, 9), (9, 1), (2, 700)])
    def test_shortest_sequences(self, n_query, n_target):
        rng = np.random.default_rng(n_query * 1000 + n_target)
        query = random_sequence(n_query, rng)
        target = random_sequence(n_target, rng)
        _assert_same(
            global_align_many(query, [target])[0], oracle.global_align(query, target)
        )

    def test_empty_inputs(self):
        query = random_sequence(5, np.random.default_rng(0))
        assert global_align_many(query, []) == []
        with pytest.raises(ValueError):
            global_align_many(query, [query, np.empty(0, dtype=np.uint8)])
        with pytest.raises(ValueError):
            global_align_many(np.empty(0, dtype=np.uint8), [query])


def _library(seed: int, n_seqs: int, k: int) -> list[np.ndarray]:
    """Random lengths 1..120 plus exact duplicates; unless empty, the
    library opens with a sequence one residue shorter than k."""
    if n_seqs == 0:
        return []
    rng = np.random.default_rng(seed)
    seqs = [random_sequence(int(rng.integers(1, 121)), rng) for _ in range(n_seqs)]
    for _ in range(n_seqs // 3):
        seqs.insert(
            int(rng.integers(0, len(seqs) + 1)), seqs[int(rng.integers(0, n_seqs))]
        )
    return [random_sequence(max(1, k - 1), rng), *seqs]


def _build(index, seqs):
    for i, seq in enumerate(seqs):
        index.add(i, seq)
    index.freeze()
    return index


class TestIndexBuild:
    # k=1 and 3 and 5 take the rank table, k=6 the searchsorted fallback.
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_seqs=st.integers(0, 30),
        k=st.sampled_from([1, 3, 5, 6]),
    )
    def test_equals_oracle(self, seed, n_seqs, k):
        seqs = _library(seed, n_seqs, k)
        ref = _build(oracle.ReferenceKmerIndex(k=k), seqs)
        new = _build(KmerIndex(k=k), seqs)
        for name in ("_codes", "_offsets", "_ids"):
            got, expected = getattr(new, name), getattr(ref, name)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
        assert new._ids.dtype == np.int32
        assert new.n_sequences == ref.n_sequences == len(seqs)
        assert new.kmer_counts.dtype == ref.kmer_counts.dtype == np.float64
        assert np.array_equal(new.kmer_counts, ref.kmer_counts)
        # The rank table answers every code of the span as the
        # oracle's dense code -> position table does; k=6 has neither.
        assert (new._bitmap is None) == (new._rank is None)
        assert (new._bitmap is None) == (ref._lut is None)
        if ref._lut is not None:
            span = np.arange(ALPHABET_SIZE**k, dtype=np.int64)
            pos, matched = new._vocab_positions(span)
            assert np.array_equal(matched, ref._lut >= 0)
            assert np.array_equal(pos, ref._lut[matched])

    def test_keys_that_would_overflow_int64_are_refused(self):
        # code * n_sequences + id keys at k=14 (20**14 = 1.6e18 codes)
        # fit int64 for five sequences and not for six.
        rng = np.random.default_rng(2)
        seqs = [random_sequence(30, rng) for _ in range(6)]
        new = _build(KmerIndex(k=14), seqs[:5])
        ref = _build(oracle.ReferenceKmerIndex(k=14), seqs[:5])
        assert np.array_equal(new._ids, ref._ids)
        assert np.array_equal(new._codes, ref._codes)
        with pytest.raises(OverflowError):
            _build(KmerIndex(k=14), seqs)

    def test_disk_manifest_checksums(self, tmp_path):
        seqs = _library(11, 40, 5)
        for name, index in (
            ("reference", _build(oracle.ReferenceKmerIndex(), seqs)),
            ("new", _build(KmerIndex(), seqs)),
        ):
            build_disk_index(
                index, tmp_path / name, library_name="lib", fingerprint="f" * 64
            )
        manifests = [
            json.loads((tmp_path / name / "manifest.json").read_text())
            for name in ("reference", "new")
        ]
        assert manifests[0]["arrays"] == manifests[1]["arrays"]
        assert manifests[0] == manifests[1]


def _hit_rows(result):
    return [
        (h.entry.entry_id, h.library, h.kmer_similarity, h.identity, h.verified)
        for h in result.hits
    ]


class TestSearchParity:
    def test_search_suite_equals_oracle_aligner(self, proteome, suite, monkeypatch):
        records = list(proteome)[:6] + [r for r in proteome if r.family_id is None][:1]
        new = [_hit_rows(search_suite(r, suite)) for r in records]
        monkeypatch.setattr(
            search_mod,
            "global_align_many",
            lambda query, targets: [oracle.global_align(query, t) for t in targets],
        )
        expected = [_hit_rows(search_suite(r, suite)) for r in records]
        assert any(row[4] for rows in new for row in rows)
        assert new == expected


class TestCallCounts:
    def test_search_suite_passes_per_batch_not_per_target(
        self, proteome, suite, monkeypatch
    ):
        record = max(
            (r for r in proteome if r.family_id is not None and r.length <= 600),
            key=lambda r: r.length,
        )
        passes = []
        real = align_mod._align_batch

        def counting(q, letters, q_rows, batch):
            passes.append(len(batch))
            return real(q, letters, q_rows, batch)

        monkeypatch.setattr(align_mod, "_align_batch", counting)
        result = search_suite(record, suite)
        n_verified = sum(h.verified for h in result.hits)
        assert n_verified > 1
        assert sum(passes) == n_verified
        assert len(passes) <= math.ceil(n_verified / BATCH_TARGETS) < n_verified

    def test_index_build_calls_unique_a_constant_number_of_times(self, monkeypatch):
        calls = []
        real = np.unique

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        per_size = {}
        for n_entries in (10, 1000):
            rng = np.random.default_rng(n_entries)
            seqs = [random_sequence(int(rng.integers(20, 80)), rng) for _ in range(n_entries)]
            calls.clear()
            _build(KmerIndex(), seqs)
            per_size[n_entries] = len(calls)
        assert per_size[1000] == per_size[10] <= 2
