"""Pairwise sequence alignment (exact-integer Needleman-Wunsch).

Used to turn k-mer prefilter candidates into alignments with exact
identity fractions — the reproduction's stand-in for the HMM alignment
stage.  The recurrence is a full global Needleman-Wunsch with a linear
gap penalty, which allows the same running-maximum row vectorisation as
the structural aligner.

:func:`global_align_many` aligns one query against a batch of targets
in one pass over the query's rows: the targets are padded to the widest
and every row of the dynamic program is a handful of numpy calls over
the whole batch.  Scores are the integers 2 / -1 / -2, so every cell is
an exact int32 and the result does not depend on how the targets are
batched; :func:`global_align` is the one-target case.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SequenceAlignment",
    "global_align",
    "global_align_many",
    "pairwise_identity",
]

#: Simple substitution scoring: match / mismatch.  A full BLOSUM matrix
#: adds nothing for synthetic sequences whose substitutions are uniform.
MATCH_SCORE: int = 2
MISMATCH_SCORE: int = -1
GAP_PENALTY: int = -2

#: Targets aligned per dynamic-programming pass: the four libraries'
#: default ``verify_top`` candidates, so a query is one pass.  A pass
#: keeps two direction bits per cell per target, so a full batch stores
#: 4 bytes per cell of its widest target, a quarter of the float64 score
#: and substitution matrices a one-target alignment used to hold.
BATCH_TARGETS: int = 16

#: Diagonal move into column 0: there is none, so it must lose to the
#: vertical gap without overflowing int32 arithmetic.
_NO_MOVE: int = np.iinfo(np.int32).min // 2


@dataclass(frozen=True)
class SequenceAlignment:
    """A global alignment: aligned index pairs plus summary scores."""

    pairs: np.ndarray  # (K, 2) aligned positions (query_idx, target_idx)
    score: float
    identity: float  # identical residues / aligned pairs

    @property
    def n_aligned(self) -> int:
        return int(self.pairs.shape[0])


def global_align(query: np.ndarray, target: np.ndarray) -> SequenceAlignment:
    """Needleman-Wunsch global alignment of two encoded sequences."""
    return global_align_many(query, [target])[0]


def global_align_many(
    query: np.ndarray, targets: Sequence[np.ndarray]
) -> list[SequenceAlignment]:
    """Align ``query`` against each target; results in target order.

    Targets go through the dynamic program ``BATCH_TARGETS`` at a time.
    Each result is the one :func:`global_align` returns for that target
    alone: padding columns lie right of a target's last column, and
    cells only read cells above and to the left.
    """
    q = np.asarray(query, dtype=np.int16)
    ts = [np.asarray(t, dtype=np.int16) for t in targets]
    if q.size == 0 or any(t.size == 0 for t in ts):
        raise ValueError("cannot align empty sequences")
    letters, q_rows = np.unique(q, return_inverse=True)
    alignments: list[SequenceAlignment] = []
    for start in range(0, len(ts), BATCH_TARGETS):
        batch = ts[start : start + BATCH_TARGETS]
        alignments.extend(_align_batch(q, letters, q_rows, batch))
    return alignments


def _align_batch(
    q: np.ndarray,
    letters: np.ndarray,
    q_rows: np.ndarray,
    targets: list[np.ndarray],
) -> list[SequenceAlignment]:
    """One dynamic-programming pass of ``q`` against padded ``targets``.

    The pass runs on shifted cells ``H'[i, j] = H[i, j] - g*j``: a left
    move then costs nothing, so the horizontal gap is a running maximum
    along the row.  ``profile[a]`` holds the diagonal increment ``s - g``
    of query letter ``letters[a]`` against every target column.
    """
    g = GAP_PENALTY
    n_rows, width = q.size, max(t.size for t in targets)
    padded = np.zeros((len(targets), width), dtype=np.int16)
    for k, t in enumerate(targets):
        padded[k, : t.size] = t
    profile = (padded == letters[:, None, None]).view(np.int8)
    profile *= MATCH_SCORE - MISMATCH_SCORE
    profile += MISMATCH_SCORE - g
    prev = np.zeros((len(targets), width + 1), dtype=np.int32)  # H'[0, :]
    cur = np.empty_like(prev)
    best = np.empty_like(prev)
    moves = np.empty((2, *prev.shape), dtype=np.int32)  # diagonal, up
    moves[0, :, 0] = _NO_MOVE
    # Row i's flags: cell (i, j) equals its diagonal / its up move, for
    # target column j = 1..width, packed eight columns to a byte.
    flags = np.empty((2, len(targets), width), dtype=bool)
    packed_rows = []
    for i in range(n_rows):
        np.add(prev[:, :-1], profile[q_rows[i]], out=moves[0, :, 1:])
        np.add(prev, g, out=moves[1])
        np.maximum(moves[0], moves[1], out=best)
        np.maximum.accumulate(best, axis=1, out=cur)
        np.equal(cur[:, 1:], moves[:, :, 1:], out=flags)
        packed_rows.append(np.packbits(flags, axis=-1))
        prev, cur = cur, prev
    packed = np.stack(packed_rows)
    del packed_rows
    alignments = []
    for k, t in enumerate(targets):
        target_flags = np.unpackbits(packed[:, :, k], axis=-1, count=width)
        pairs = _traceback(target_flags.tobytes(), width, n_rows, t.size)
        if pairs.shape[0]:
            identity = float((q[pairs[:, 0]] == t[pairs[:, 1]]).mean())
        else:
            identity = 0.0
        score = float(prev[k, t.size] + g * t.size)
        alignments.append(
            SequenceAlignment(pairs=pairs, score=score, identity=identity)
        )
    return alignments


def _traceback(flags: bytes, width: int, i: int, j: int) -> np.ndarray:
    """Aligned ``(query, target)`` index pairs on the path into cell (i, j).

    ``flags`` is one target's direction flags, a byte each: row ``i``
    keeps its diagonal flag of column ``j`` at ``2*width*(i-1) + j-1``
    and its up flag ``width`` bytes later.  Moves are tried diagonal
    first, then up, then left.
    """
    row = 2 * width
    path: list[int] = []  # (target, query) per diagonal move, end first
    while i and j:
        at = row * (i - 1) + j - 1
        if flags[at]:
            i -= 1
            j -= 1
            path.append(j)
            path.append(i)
        elif flags[at + width]:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return np.array(path, dtype=np.int64).reshape(-1, 2)


def pairwise_identity(query: np.ndarray, target: np.ndarray) -> float:
    """Global-alignment sequence identity between two encoded sequences."""
    return global_align(query, target).identity
