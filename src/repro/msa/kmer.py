"""K-mer indexing for fast homology prefiltering.

The real pipeline's sequence search (HMMER/HHblits) is profile-based;
what matters for the reproduction is the *selectivity structure*: a
query must retrieve its family members from a large library quickly and
with an identity-correlated score.  A k-mer inverted index gives exactly
that with fully vectorized k-mer extraction.

The index stores its postings in a frozen CSR (compressed sparse row)
layout — one sorted int64 array of distinct k-mer codes, an int64
offsets array, and one flat int32 array of sequence ids — plus, for
k <= 5, a rank table (presence bitmap + per-word running count) that
maps a code to its vocabulary row in three gathers, so a query is one
vectorized lookup (``np.searchsorted`` for larger k) followed by a
vectorized gather + ``np.bincount`` over the hit postings.  No Python
loop touches a posting list on either the build or the query path.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..sequences.alphabet import ALPHABET_SIZE
from ..telemetry.metrics import get_metrics

__all__ = ["kmer_codes", "KmerIndex"]

#: Default k-mer length.  20^5 = 3.2M possible 5-mers: the shared-k-mer
#: *containment* of unrelated sequences is then ~1e-4 while homologs at
#: 35% identity retain ~0.5% of k-mers — enough dynamic range to invert
#: containment into an identity estimate (see ``repro.msa.search``).
DEFAULT_K: int = 5

#: Largest code span (ALPHABET_SIZE**k) for which freeze() builds a
#: rank table (see :func:`_rank_table`) mapping a code to its vocabulary
#: position.  Binary search over a multi-MB vocabulary is all cache
#: misses; three gathers into a table of 6 bits per code are not.  8.4M
#: codes = 3.1 MB, so k=5 (3.2M codes, 1.2 MB) qualifies and k>=6 falls
#: back to searchsorted.
_LUT_MAX_SPAN: int = 1 << 23

#: Bits per rank-table word: one ``uint16`` of the presence bitmap.
_WORD_BITS: int = 16


def _popcount_table(bits: int) -> np.ndarray:
    """Set bits of every ``bits``-bit value.  Each doubling appends the
    table so far plus one (the new top bit), so building it allocates
    little more than the table itself."""
    table = np.zeros(1, dtype=np.uint8)
    for _ in range(bits):
        table = np.concatenate([table, table + 1])
    return table


#: Set bits of every 16-bit value (64 KiB, shared by every index).
_POPCOUNT16 = _popcount_table(_WORD_BITS)


def kmer_codes(encoded: np.ndarray, k: int = DEFAULT_K) -> np.ndarray:
    """Integer codes of all overlapping k-mers of an encoded sequence.

    Codes are base-``ALPHABET_SIZE`` numbers; the output has length
    ``len(seq) - k + 1`` (empty for shorter sequences).
    """
    arr = np.asarray(encoded, dtype=np.int64)
    n = arr.size
    if n < k:
        return np.empty(0, dtype=np.int64)
    weights = ALPHABET_SIZE ** np.arange(k, dtype=np.int64)
    # Sliding windows via stride trick avoided for clarity: a k-term sum
    # is cheap because k is tiny.
    codes = np.zeros(n - k + 1, dtype=np.int64)
    for offset in range(k):
        codes += arr[offset : offset + n - k + 1] * weights[offset]
    return codes


def _batched_query_codes(
    queries: list[np.ndarray], k: int, precomputed_codes: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated ``(codes, query_of_code)`` for a query batch.

    ``queries`` holds encoded sequences (default) or, with
    ``precomputed_codes=True``, per-query *distinct* code arrays.  For
    encoded inputs the per-query dedup collapses into one sort over
    ``query_id * span + code`` tags — the trick that makes the batched
    query path fast.
    """
    n_q = len(queries)
    if precomputed_codes:
        code_sets = [np.asarray(q, dtype=np.int64) for q in queries]
        all_codes = (
            np.concatenate(code_sets)
            if code_sets
            else np.empty(0, dtype=np.int64)
        )
        query_of_code = np.repeat(
            np.arange(n_q, dtype=np.int64),
            [c.size for c in code_sets],
        )
        return all_codes, query_of_code
    # Tag every raw code with its query id in the high digits; one
    # global sort + dedup then replaces a per-query ``np.unique`` loop.
    span = np.int64(ALPHABET_SIZE) ** k
    raw = [kmer_codes(q, k) for q in queries]
    tags = np.repeat(
        np.arange(n_q, dtype=np.int64) * span,
        [r.size for r in raw],
    )
    tagged = (
        np.concatenate(raw) + tags if raw else np.empty(0, dtype=np.int64)
    )
    tagged.sort()
    tagged = tagged[_first_of_runs(tagged)]
    query_of_code = tagged // span
    return tagged - query_of_code * span, query_of_code


class KmerIndex:
    """Inverted index: k-mer code -> array of sequence ids containing it.

    Build once per library (:meth:`add` every sequence, then
    :meth:`freeze`); query with :meth:`count_hits`, which returns the
    number of *distinct shared k-mer types* per library sequence — a
    robust proxy for alignment score that is monotone in sequence
    identity for fixed lengths.

    :meth:`freeze` builds the CSR layout from one sort of
    ``code * n_sequences + seq_id`` keys over every sequence's raw
    k-mers; a query then looks the codes up in the vocabulary
    (``_codes``), slices the posting ranges out of ``_offsets``, and
    bin-counts the gathered ids.  The batched :meth:`count_hits_many`
    amortises the lookup and the gather over many queries at once.

    The same class serves a library's on-disk artifact:
    :func:`~repro.msa.diskindex.open_disk_index` wraps the artifact's
    memory-mapped arrays with :meth:`from_arrays` and sets :attr:`path`
    and :attr:`fingerprint`, so there is one query implementation.
    """

    def __init__(self, k: int = DEFAULT_K) -> None:
        self.k = k
        #: Encoded sequences, pending freeze.
        self._pending: list[np.ndarray] = []
        self._n_sequences = 0
        # CSR layout, populated by freeze().
        self._codes: np.ndarray | None = None  # sorted distinct codes
        self._offsets: np.ndarray | None = None  # len(_codes) + 1
        self._ids: np.ndarray | None = None  # flat int32 postings
        self._counts_f64: np.ndarray | None = None  # distinct codes per seq
        # Rank table over the code span (None above _LUT_MAX_SPAN).
        self._bitmap: np.ndarray | None = None  # uint16 presence words
        self._rank: np.ndarray | None = None  # codes before each word
        #: Artifact directory, when the arrays are memory-mapped from
        #: disk; ``None`` for an index built in memory.
        self.path: Path | None = None
        #: Fingerprint of the library a disk artifact was built from.
        self.fingerprint: str | None = None

    @classmethod
    def from_arrays(
        cls,
        k: int,
        codes: np.ndarray,
        offsets: np.ndarray,
        ids: np.ndarray,
        counts: np.ndarray,
        bitmap: np.ndarray | None = None,
        rank: np.ndarray | None = None,
    ) -> "KmerIndex":
        """A frozen index over existing CSR and rank-table arrays, used
        as given (a memory-mapped array stays mapped)."""
        index = cls(k)
        index._codes, index._offsets, index._ids = codes, offsets, ids
        index._counts_f64, index._bitmap, index._rank = counts, bitmap, rank
        index._n_sequences = int(counts.size)
        return index

    def add(self, seq_id: int, encoded: np.ndarray) -> None:
        """Index one sequence under integer id ``seq_id``."""
        if self._codes is not None:
            raise RuntimeError("index is frozen; cannot add more sequences")
        if seq_id != self._n_sequences:
            raise ValueError("sequences must be added with consecutive ids")
        self._pending.append(np.array(encoded).ravel())
        self._n_sequences += 1

    def freeze(self) -> None:
        """Build the CSR postings; no further additions allowed."""
        if self._codes is not None:
            return
        # Every CSR construction is a paid-for build; the disk-index
        # smoke asserts this stays at zero inside a campaign that
        # attaches a prebuilt artifact instead (workers included —
        # worker counter deltas merge back into the parent registry).
        get_metrics().counter("msa.index.rebuild").inc()
        self._codes, self._offsets, self._ids, self._counts_f64 = _csr_postings(
            self._pending, self.k
        )
        self._pending = []
        self._bitmap, self._rank = _rank_table(self._codes, self.k)

    # -- pickling ------------------------------------------------------------
    # A memory-mapped index pickles as its artifact path: the receiver
    # maps the same files (one more page-cache sharer), so no postings
    # cross the pipe.  An in-memory index ships its frozen arrays, rank
    # table included (1.2 MB at k=5), once per worker process; pending
    # sequences are folded in by freezing before export.
    def __reduce_ex__(self, protocol):
        if self.path is not None:
            from .diskindex import open_disk_index

            return open_disk_index, (str(self.path),)
        return super().__reduce_ex__(protocol)

    def __getstate__(self) -> dict:
        self.freeze()
        return self.__dict__

    def _vocab_positions(
        self, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vocabulary positions of the codes found in the index.

        Returns ``(positions, matched)`` where ``matched`` is a boolean
        mask over ``codes`` and ``positions`` holds the vocabulary row
        of each matched code.  Uses the rank table when the code span is
        small enough, a binary search otherwise.
        """
        assert self._codes is not None
        if self._codes.size == 0:
            # An empty vocabulary matches nothing.  The searchsorted
            # fallback below would clamp positions to ``size - 1 == -1``
            # and fault on the gather, so short-circuit: no positions,
            # all-False mask (callers then report zero hits everywhere).
            return (
                np.empty(0, dtype=np.int64),
                np.zeros(codes.size, dtype=bool),
            )
        if self._bitmap is not None:
            assert self._rank is not None
            # Codes past the span but inside the last word find a zero
            # bit, so only codes outside the bitmap need masking.
            valid = (codes >= 0) & (codes < self._bitmap.size * _WORD_BITS)
            if not valid.all():
                codes = np.where(valid, codes, 0)
            word_of = codes // _WORD_BITS
            bit = (codes % _WORD_BITS).astype(np.uint16)
            words = self._bitmap[word_of]
            matched = ((words >> bit) & 1).astype(bool) & valid
            # Position = codes in earlier words + set bits below ``bit``.
            below = words[matched] & ((np.uint16(1) << bit[matched]) - 1)
            return self._rank[word_of[matched]] + _POPCOUNT16[below], matched
        pos = np.minimum(
            np.searchsorted(self._codes, codes), self._codes.size - 1
        )
        matched = self._codes[pos] == codes
        return pos[matched], matched

    def _postings(
        self, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, lengths, matched)`` of every posting hit by ``codes``.

        ``ids`` is the flat sequence-id gather, ``lengths`` the posting
        count of each matched code (repeat a per-code value by it to
        align it with ``ids``), ``matched`` the mask over ``codes``.
        """
        self.freeze()
        assert self._offsets is not None and self._ids is not None
        pos, matched = self._vocab_positions(codes)
        starts = self._offsets[pos]
        lengths = self._offsets[pos + 1] - starts
        ids = self._ids[_expand_ranges(starts, lengths, int(lengths.sum()))]
        return ids, lengths, matched

    @property
    def n_sequences(self) -> int:
        return self._n_sequences

    def kmer_count(self, seq_id: int) -> int:
        """Distinct k-mer types of an indexed sequence (freezes)."""
        return int(self.kmer_counts[seq_id])

    @property
    def kmer_counts(self) -> np.ndarray:
        """Distinct k-mer types per sequence (float64, cached at freeze)."""
        self.freeze()
        assert self._counts_f64 is not None
        return self._counts_f64

    @property
    def nbytes(self) -> int:
        """Bytes of the frozen arrays — for a mapped index, what every
        attached process shares one page-cache copy of."""
        self.freeze()
        arrays = (
            self._codes,
            self._offsets,
            self._ids,
            self._counts_f64,
            self._bitmap,
            self._rank,
        )
        return sum(a.nbytes for a in arrays if a is not None)

    def query_codes(self, encoded: np.ndarray) -> np.ndarray:
        """Distinct k-mer codes of a query, as :meth:`count_hits` uses them."""
        return np.unique(kmer_codes(encoded, self.k))

    def count_hits(self, encoded: np.ndarray) -> np.ndarray:
        """Distinct shared k-mer types between query and every sequence.

        Returns an int64 array of length ``n_sequences``.
        """
        return self.count_hits_codes(self.query_codes(encoded))

    def containment(self, encoded: np.ndarray) -> np.ndarray:
        """Shared k-mer types / query k-mer types, per library sequence.

        Under independent substitutions at identity ``p``, a k-mer
        survives in a homolog with probability ~``p**k``, so containment
        inverts cleanly to an identity estimate; unlike Jaccard it is not
        diluted by the library sequence being longer than the query.
        """
        codes = self.query_codes(encoded)
        query_kmers = max(1, int(codes.size))
        return self.count_hits_codes(codes) / float(query_kmers)

    def count_hits_codes(self, codes: np.ndarray) -> np.ndarray:
        """:meth:`count_hits` for a precomputed *distinct* code array.

        Lets callers that need the query's code set anyway (e.g. the
        containment denominator in ``repro.msa.search``) extract it once
        instead of recomputing it per library.
        """
        ids, _lengths, _matched = self._postings(
            np.asarray(codes, dtype=np.int64)
        )
        return np.bincount(ids, minlength=self.n_sequences).astype(np.int64)

    def count_hits_many(
        self, queries: list[np.ndarray], precomputed_codes: bool = False
    ) -> np.ndarray:
        """Batched :meth:`count_hits`: one (n_queries, n_sequences) matrix.

        ``queries`` holds encoded sequences (default) or, with
        ``precomputed_codes=True``, per-query *distinct* code arrays.
        All queries share a single vocabulary lookup and a single gather
        over the postings, and for encoded inputs even the per-query
        dedup collapses into one sort over ``query_id * span + code``
        tags — which is where the batched path earns its throughput.
        """
        all_codes, query_of_code = _batched_query_codes(
            queries, self.k, precomputed_codes=precomputed_codes
        )
        ids, lengths, matched = self._postings(all_codes)
        n_q, n_seq = len(queries), self.n_sequences
        hit_query = np.repeat(query_of_code[matched], lengths)
        flat = np.bincount(hit_query * n_seq + ids, minlength=n_q * n_seq)
        return flat.reshape(n_q, n_seq).astype(np.int64, copy=False)


def _csr_postings(
    sequences: list[np.ndarray], k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``(codes, offsets, ids, counts)`` of ``sequences`` from one sort.

    Every k-mer of every sequence becomes the key ``code * n + seq_id``
    (``n`` sequences); sorted, the distinct keys are the postings ordered
    by code, then by ascending id.
    """
    n_seq = len(sequences)
    if n_seq and int(ALPHABET_SIZE) ** k > (2**63 - 1) // n_seq:
        raise OverflowError(f"{n_seq} sequences at k={k} overflow int64 keys")
    residues = (
        np.concatenate(sequences) if sequences else np.empty(0, dtype=np.int64)
    )
    owner = np.repeat(
        np.arange(n_seq, dtype=np.int32), [s.size for s in sequences]
    )
    # k-mers of the concatenation; a window is a k-mer of one sequence
    # when its first and last residue share an owner.
    codes = kmer_codes(residues, k)
    seq_of = owner[: codes.size]
    inside = seq_of == owner[k - 1 :]
    keys = codes[inside]
    keys *= n_seq
    keys += seq_of[inside]
    keys.sort()
    keys = keys[_first_of_runs(keys)]
    vocab = keys // max(n_seq, 1)
    ids = (keys - vocab * n_seq).astype(np.int32)
    starts = np.flatnonzero(_first_of_runs(vocab))
    offsets = np.append(starts, keys.size).astype(np.int64)
    counts = np.bincount(ids, minlength=n_seq).astype(np.float64)
    return vocab[starts], offsets, ids, counts


def _rank_table(
    codes: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
    """``(bitmap, rank)`` mapping a code to its position in ``codes``.

    ``codes`` is a sorted distinct vocabulary over ``ALPHABET_SIZE**k``.
    Bit ``c % 16`` of ``bitmap[c // 16]`` is set when ``c`` is in the
    vocabulary, and ``rank[w]`` counts the codes below word ``w``, so a
    present code sits at ``rank[w]`` plus the set bits below its own.
    ``(None, None)`` for an empty vocabulary or a span above
    ``_LUT_MAX_SPAN``.
    """
    span = int(ALPHABET_SIZE) ** k
    if not codes.size or span > _LUT_MAX_SPAN:
        return None, None
    n_words = -(-span // _WORD_BITS)
    word_of = codes // _WORD_BITS
    bits = np.left_shift(1, codes % _WORD_BITS).astype(np.uint16)
    # Codes are sorted, so each word's codes are one run: OR the run.
    starts = np.flatnonzero(_first_of_runs(word_of))
    bitmap = np.zeros(n_words, dtype=np.uint16)
    bitmap[word_of[starts]] = np.bitwise_or.reduceat(bits, starts)
    rank = np.zeros(n_words, dtype=np.int32)
    np.cumsum(_POPCOUNT16[bitmap[:-1]], dtype=np.int32, out=rank[1:])
    return bitmap, rank


def _first_of_runs(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal sorted values."""
    first = np.empty(sorted_values.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
    return first


def _expand_ranges(
    starts: np.ndarray, lengths: np.ndarray, total: int
) -> np.ndarray:
    """Indices covering ``[starts[j], starts[j]+lengths[j])`` for all j.

    The standard cumsum trick: within the flat output, element ``i`` of
    range ``j`` must read ``starts[j] + (i - cum[j-1])``, so repeating
    ``starts - (cum - lengths)`` and adding ``arange(total)`` yields all
    range members without a Python loop.
    """
    cum = np.cumsum(lengths)
    return np.repeat(starts - (cum - lengths), lengths) + np.arange(
        total, dtype=np.int64
    )
