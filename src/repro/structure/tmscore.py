"""TM-score (Zhang & Skolnick 2004) for matched-length Calpha traces.

TM-score is the paper's primary global model-quality metric (Fig. 3,
§4.6).  This is a faithful implementation of the published algorithm for
pre-aligned (residue-matched) structures: the score is maximised over
rigid superpositions found by an iterative core-refinement search seeded
from multiple fragments.  Sequence-independent alignment (needed for
library search) lives in :mod:`repro.structure.align3d` on top of this.
"""

from __future__ import annotations

import numpy as np

from .superpose import kabsch

__all__ = ["tm_d0", "tm_score", "gdt_ts"]


def tm_d0(n_residues: int) -> float:
    """Length-dependent TM-score normalisation distance d0 (Angstrom)."""
    if n_residues <= 0:
        raise ValueError("n_residues must be positive")
    if n_residues <= 15:
        return 0.5
    return max(0.5, 1.24 * (n_residues - 15) ** (1.0 / 3.0) - 1.8)


def tm_score(
    model: np.ndarray,
    native: np.ndarray,
    norm_length: int | None = None,
    max_iterations: int = 20,
) -> float:
    """TM-score of ``model`` against ``native`` (matched residues).

    Parameters
    ----------
    model, native:
        (N, 3) Calpha coordinates with residue i of one matching residue
        i of the other.
    norm_length:
        Normalisation length L_target; defaults to N (the usual choice
        when scoring a full-length prediction against its native).
    max_iterations:
        Cap on core-refinement sweeps per seed fragment.

    Returns the maximum score found across seed fragments, in (0, 1].

    Every seed's core is refined once per sweep, all seeds in lockstep:
    each core is gathered, centred and reduced to its 3x3 covariance on
    its own (core sizes differ), then the Kabsch rotations, the fitted
    chains and the scores of all cores come from one stacked
    ``svd``/``det``/``matmul`` each — the same LAPACK/BLAS calls a
    per-seed loop makes, so the same bits (pinned against the loop in
    ``tests/test_fold/test_kernel_parity.py``).  What a core refines to
    depends on nothing but the core, so a seed stops as soon as it
    arrives at a core that has been refined already, by itself or by
    another seed: that happened in this sweep or an earlier one, so
    whoever got there first has at least as many sweeps left to follow
    the trajectory, and every score along it is in the maximum without
    this seed.
    """
    mod = np.asarray(model, dtype=np.float64)
    nat = np.asarray(native, dtype=np.float64)
    if mod.shape != nat.shape or mod.ndim != 2 or mod.shape[1] != 3:
        raise ValueError("model and native must be matching (N, 3) arrays")
    n = mod.shape[0]
    if n == 0:
        raise ValueError("empty structures")
    L = norm_length if norm_length is not None else n
    d0 = tm_d0(L)
    d_cut = max(d0, 4.5)
    # Seed fragments: full chain plus progressively shorter windows, as in
    # the reference implementation, so a well-predicted domain can anchor
    # the superposition even when the rest of the chain is wrong.
    cores = [np.arange(0, n)]
    for frac in (2, 4):
        size = max(4, n // frac)
        for start in range(0, n - size + 1, max(1, size // 2)):
            cores.append(np.arange(start, start + size))
    best = 0.0
    refined: set[bytes] = set()
    for _ in range(max_iterations):
        fresh = []
        for idx in cores:
            key = idx.tobytes()
            if idx.size >= 3 and key not in refined:
                refined.add(key)
                fresh.append(idx)
        cores = fresh
        if not cores:
            break
        # Per core: centroids and covariance of the matched sub-chains.
        cov = np.empty((len(cores), 3, 3))
        mob_center = np.empty((len(cores), 3))
        ref_center = np.empty((len(cores), 3))
        for k, idx in enumerate(cores):
            mob, ref = mod[idx], nat[idx]
            mob_center[k] = mob.sum(axis=0) / float(idx.size)
            ref_center[k] = ref.sum(axis=0) / float(idx.size)
            np.matmul((mob - mob_center[k]).T, ref - ref_center[k], out=cov[k])
        # Stacked Kabsch: proper rotation (reflections excluded) and
        # translation of every core, applied to the whole chain.
        u, _s, vt = np.linalg.svd(cov)
        v, ut = vt.transpose(0, 2, 1), u.transpose(0, 2, 1)
        flip = np.zeros_like(cov)
        flip[:, 0, 0] = flip[:, 1, 1] = 1.0
        flip[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
        rotation = v @ flip @ ut
        translation = ref_center - (rotation @ mob_center[:, :, None])[:, :, 0]
        fitted = mod @ rotation.transpose(0, 2, 1) + translation[:, None, :]
        dist2 = ((fitted - nat) ** 2).sum(axis=2)
        scores = (1.0 / (1.0 + dist2 / (d0 * d0))).sum(axis=1) / L
        best = max(best, *scores.tolist())
        # Next core of each seed: the residues its fit brought close.
        close = dist2 < d_cut * d_cut
        for k in range(len(cores)):
            within = np.flatnonzero(close[k])
            if within.size < 3:
                # Loosen the inclusion cutoff rather than giving up.
                within = np.argsort(dist2[k])[: max(3, n // 4)]
            cores[k] = within
    return best


def gdt_ts(model: np.ndarray, native: np.ndarray) -> float:
    """GDT-TS score in [0, 1]: mean coverage at 1/2/4/8 Angstrom cutoffs.

    Uses the TM-score superposition search to pick the frame, then counts
    residues within each cutoff — the standard CASP definition up to the
    single-superposition simplification.
    """
    mod = np.asarray(model, dtype=np.float64)
    nat = np.asarray(native, dtype=np.float64)
    if mod.shape != nat.shape:
        raise ValueError("shape mismatch")
    n = mod.shape[0]
    best_cov = np.zeros(4)
    cutoffs = np.array([1.0, 2.0, 4.0, 8.0])
    # Reuse the same seed/refine loop; track per-cutoff best coverage.
    seeds: list[tuple[int, int]] = [(0, n)]
    size = max(4, n // 2)
    for start in range(0, n - size + 1, max(1, size // 2)):
        seeds.append((start, start + size))
    for start, stop in seeds:
        idx = np.arange(start, stop)
        for _ in range(10):
            if idx.size < 3:
                break
            sup = kabsch(mod[idx], nat[idx])
            dist = np.sqrt(((sup.apply(mod) - nat) ** 2).sum(axis=1))
            cov = (dist[None, :] < cutoffs[:, None]).mean(axis=1)
            best_cov = np.maximum(best_cov, cov)
            new_idx = np.flatnonzero(dist < 4.0)
            if new_idx.size < 3 or new_idx.size == idx.size:
                break
            idx = new_idx
    return float(best_cov.mean())
