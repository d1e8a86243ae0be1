"""Reference kernels: the oracles the fast implementations are pinned to.

``build_ca_chain``, ``extend_member_chain``, ``compact_chain`` and
``tm_score`` are the implementations ``src/repro`` shipped before the
scaffolding kernels were rewritten (commit d3f8b1e), copied verbatim —
``extend_member_chain`` is the extension loop that lived inline in
``NativeFactory.member_fold``.  The rewrites claim the *same bits* from
fewer interpreter round-trips, so ``tests/test_fold/test_kernel_parity.py``
compares against these with ``np.array_equal`` / ``==``, never a
tolerance.  ``distogram_signature_reference`` is the broadcast-temporary
distogram the GEMM version in :mod:`repro.fold.recycling` replaced; that
one changed the arithmetic, so its test uses a tolerance.

The MSA oracles follow the same rule.  ``global_align`` and
``ReferenceKmerIndex`` (``add`` + ``freeze``) are the float64
row-at-a-time aligner and the per-entry ``np.unique`` index build that
:mod:`repro.msa.align` and :mod:`repro.msa.kmer` shipped before the
batched exact-integer aligner and the one-sort build (commit 61b2cfb),
copied verbatim with their scoring constants; ``reference_traceback`` is
the seed's ``np.isclose`` traceback that the first of them was pinned
to.  ``tests/test_msa/test_msa_kernel_parity.py`` compares against them
bit for bit.

``ReferenceForceField`` is the straight-line relaxation force field
that :mod:`repro.relax.forcefield` shipped before its fused kernel,
copied verbatim.  That rewrite changed the arithmetic, so
``tests/test_relax/test_forcefield_fast.py`` pins ``ForceField`` to it
at ``rtol <= 1e-9``; ``benchmarks/bench_relax_throughput.py`` measures
the speedup against it.

Nothing here is tuned and nothing in ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.fold.geometry import (
    _EXCLUDED_RADIUS,
    CA_BOND,
    resolve_overlaps,
    target_radius_of_gyration,
)
from repro.fold.recycling import _subsample
from repro.msa.align import SequenceAlignment
from repro.msa.kmer import _LUT_MAX_SPAN, DEFAULT_K, kmer_codes
from repro.relax.forcefield import (
    _CB_BOND_LENGTH,
    _DIST_FLOOR,
    ForceFieldParams,
    _candidate_pairs,
)
from repro.relax.hydrogens import MMSystem
from repro.sequences.alphabet import ALPHABET_SIZE
from repro.structure.protein import CA_CA_BOND_LENGTH, pseudo_cb
from repro.structure.superpose import kabsch
from repro.structure.tmscore import tm_d0
from repro.telemetry.metrics import get_metrics

__all__ = [
    "build_ca_chain",
    "extend_member_chain",
    "compact_chain",
    "tm_score",
    "distogram_signature_reference",
    "MATCH_SCORE",
    "MISMATCH_SCORE",
    "GAP_PENALTY",
    "global_align",
    "reference_traceback",
    "ReferenceKmerIndex",
    "ReferenceForceField",
]


def build_ca_chain(angles: np.ndarray, torsions: np.ndarray) -> np.ndarray:
    """Build an (N, 3) Calpha trace from virtual internal coordinates."""
    angles = np.asarray(angles, dtype=np.float64)
    torsions = np.asarray(torsions, dtype=np.float64)
    n = angles.size
    if torsions.size != n:
        raise ValueError("angles and torsions must have the same length")
    coords = np.zeros((max(n, 1), 3), dtype=np.float64)
    if n >= 2:
        coords[1] = [CA_BOND, 0.0, 0.0]
    if n >= 3:
        theta = np.pi - angles[2]
        coords[2] = coords[1] + CA_BOND * np.array(
            [np.cos(theta), np.sin(theta), 0.0]
        )
    for i in range(3, n):
        a, b, c = coords[i - 3], coords[i - 2], coords[i - 1]
        bc = c - b
        bc /= np.linalg.norm(bc)
        ab = b - a
        normal = np.cross(ab, bc)
        nn = np.linalg.norm(normal)
        if nn < 1e-9:  # collinear history; pick any perpendicular
            normal = np.cross(bc, [0.0, 0.0, 1.0])
            nn = np.linalg.norm(normal)
            if nn < 1e-9:
                normal = np.cross(bc, [0.0, 1.0, 0.0])
                nn = np.linalg.norm(normal)
        normal /= nn
        m = np.cross(normal, bc)
        ang = np.pi - angles[i]
        tor = torsions[i]
        d = CA_BOND * np.array(
            [
                np.cos(ang),
                np.sin(ang) * np.cos(tor),
                np.sin(ang) * np.sin(tor),
            ]
        )
        coords[i] = c + d[0] * bc + d[1] * m + d[2] * normal
    return coords[:n]


def extend_member_chain(
    base: np.ndarray, angles: np.ndarray, torsions: np.ndarray
) -> np.ndarray:
    """``base`` continued by ``len(angles)`` residues, before overlap
    resolution: the loop ``NativeFactory.member_fold`` ran inline."""
    natural_length = base.shape[0]
    target_length = natural_length + len(angles)
    coords = np.vstack([base, np.zeros((len(angles), 3))])
    for i in range(natural_length, target_length):
        a, b, c = coords[i - 3], coords[i - 2], coords[i - 1]
        bc = c - b
        bc /= max(np.linalg.norm(bc), 1e-9)
        normal = np.cross(b - a, bc)
        nn = np.linalg.norm(normal)
        if nn < 1e-9:
            normal = np.cross(bc, [0.0, 0.0, 1.0])
            nn = max(np.linalg.norm(normal), 1e-9)
        normal /= nn
        m = np.cross(normal, bc)
        k = i - natural_length
        ang = np.pi - angles[k]
        tor = torsions[k]
        d = CA_BOND * np.array(
            [np.cos(ang), np.sin(ang) * np.cos(tor), np.sin(ang) * np.sin(tor)]
        )
        coords[i] = c + d[0] * bc + d[1] * m + d[2] * normal
    return coords


def compact_chain(
    coords: np.ndarray,
    rng: np.random.Generator,
    n_steps: int | None = None,
    step_size: float = 0.12,
    rg_gain: float = 0.5,
    local_window: int = 4,
) -> np.ndarray:
    """Relax a Calpha trace into a compact, clash-free globule."""
    x = np.array(coords, dtype=np.float64)
    n = x.shape[0]
    if n < 5:
        return x
    if n_steps is None:
        # Longer chains start further from globularity; scale the budget.
        n_steps = max(120, int(4.0 * n**0.62))
    target_rg = target_radius_of_gyration(n)
    idx = np.arange(n)
    # Local-geometry reference distances (i, i+k) for k=2..local_window.
    local_refs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for k in range(2, local_window + 1):
        i0 = idx[:-k]
        j0 = idx[k:]
        d0 = np.linalg.norm(x[j0] - x[i0], axis=1)
        local_refs.append((i0, j0, d0))
    for step in range(n_steps):
        grad = np.zeros_like(x)
        # Bond term.
        delta = x[1:] - x[:-1]
        dist = np.linalg.norm(delta, axis=1)
        np.maximum(dist, 1e-9, out=dist)
        coef = 2.0 * (dist - CA_BOND) / dist
        f = coef[:, None] * delta
        grad[1:] += f
        grad[:-1] -= f
        # Excluded volume via KD-tree.
        tree = cKDTree(x)
        pairs = tree.query_pairs(_EXCLUDED_RADIUS, output_type="ndarray")
        if pairs.size:
            nonadj = (pairs[:, 1] - pairs[:, 0]) > 2
            pairs = pairs[nonadj]
        if pairs.size:
            pi, pj = pairs[:, 0], pairs[:, 1]
            dvec = x[pj] - x[pi]
            d = np.linalg.norm(dvec, axis=1)
            np.maximum(d, 1e-9, out=d)
            # Quadratic wall: push apart with force ~ overlap.
            c = -2.0 * 4.0 * (_EXCLUDED_RADIUS - d) / d
            fv = c[:, None] * dvec
            np.add.at(grad, pi, -fv)
            np.add.at(grad, pj, fv)
        # Radius-of-gyration pull (compaction), only when too extended.
        center = x.mean(axis=0)
        centered = x - center
        rg = np.sqrt((centered**2).sum(axis=1).mean())
        if rg > target_rg and step < 3 * n_steps // 4:
            grad += rg_gain * (rg - target_rg) / rg**2 * centered
        # Local geometry retention: dE/dx_j = 2k(d - d0) * (x_j - x_i)/d.
        for i0, j0, d0 in local_refs:
            dvec = x[j0] - x[i0]
            d = np.linalg.norm(dvec, axis=1)
            np.maximum(d, 1e-9, out=d)
            c = 2.0 * 0.3 * (d - d0) / d
            fv = c[:, None] * dvec
            np.add.at(grad, j0, fv)
            np.add.at(grad, i0, -fv)
        # Gradient step with a norm clip for stability.
        gnorm = np.linalg.norm(grad, axis=1, keepdims=True)
        np.clip(gnorm, 1.0, None, out=gnorm)
        x -= step_size * grad / gnorm * np.minimum(gnorm, 5.0)
        # Tiny annealed jitter helps escape knots early on.
        if step < n_steps // 3:
            x += rng.normal(0.0, 0.02, size=x.shape)
    return resolve_overlaps(x)


def _score_from_distances(dist2: np.ndarray, d0: float, norm_length: int) -> float:
    return float((1.0 / (1.0 + dist2 / (d0 * d0))).sum() / norm_length)


def tm_score(
    model: np.ndarray,
    native: np.ndarray,
    norm_length: int | None = None,
    max_iterations: int = 20,
) -> float:
    """TM-score of ``model`` against ``native`` (matched residues)."""
    mod = np.asarray(model, dtype=np.float64)
    nat = np.asarray(native, dtype=np.float64)
    if mod.shape != nat.shape or mod.ndim != 2 or mod.shape[1] != 3:
        raise ValueError("model and native must be matching (N, 3) arrays")
    n = mod.shape[0]
    if n == 0:
        raise ValueError("empty structures")
    L = norm_length if norm_length is not None else n
    d0 = tm_d0(L)
    seeds: list[tuple[int, int]] = [(0, n)]
    for frac in (2, 4):
        size = max(4, n // frac)
        for start in range(0, n - size + 1, max(1, size // 2)):
            seeds.append((start, start + size))
    best = 0.0
    d_cut = max(d0, 4.5)
    for start, stop in seeds:
        idx = np.arange(start, stop)
        prev_idx: np.ndarray | None = None
        for _ in range(max_iterations):
            if idx.size < 3:
                break
            sup = kabsch(mod[idx], nat[idx])
            fitted = sup.apply(mod)
            dist2 = ((fitted - nat) ** 2).sum(axis=1)
            best = max(best, _score_from_distances(dist2, d0, L))
            within = np.flatnonzero(dist2 < d_cut * d_cut)
            if within.size < 3:
                # Loosen the inclusion cutoff rather than giving up.
                order = np.argsort(dist2)
                within = order[: max(3, n // 4)]
            if prev_idx is not None and within.size == prev_idx.size and (
                within == prev_idx
            ).all():
                break
            prev_idx = within
            idx = within
    return best


def distogram_signature_reference(ca: np.ndarray) -> np.ndarray:
    """Broadcast-temporary distogram, the numerical reference for the
    GEMM :func:`repro.fold.recycling.distogram_signature`."""
    arr = _subsample(ca)
    diff = arr[:, None, :] - arr[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


# -- MSA kernels --------------------------------------------------------------

MATCH_SCORE: float = 2.0
MISMATCH_SCORE: float = -1.0
GAP_PENALTY: float = -2.0


def global_align(
    query: np.ndarray,
    target: np.ndarray,
    gap_penalty: float = GAP_PENALTY,
) -> SequenceAlignment:
    """Needleman-Wunsch global alignment of two encoded sequences."""
    q = np.asarray(query, dtype=np.int16)
    t = np.asarray(target, dtype=np.int16)
    l1, l2 = q.size, t.size
    if l1 == 0 or l2 == 0:
        raise ValueError("cannot align empty sequences")
    if gap_penalty >= 0:
        raise ValueError("gap_penalty must be negative")
    # Substitution score matrix, vectorized.
    s = np.where(q[:, None] == t[None, :], MATCH_SCORE, MISMATCH_SCORE)
    g = gap_penalty
    j_idx = np.arange(l2 + 1, dtype=np.float64)
    h = np.zeros((l1 + 1, l2 + 1), dtype=np.float64)
    h[0, :] = g * j_idx
    h[:, 0] = g * np.arange(l1 + 1, dtype=np.float64)
    for i in range(1, l1 + 1):
        m = np.empty(l2 + 1)
        m[0] = h[i, 0]
        m[1:] = np.maximum(h[i - 1, :-1] + s[i - 1], h[i - 1, 1:] + g)
        h[i] = np.maximum.accumulate(m - g * j_idx) + g * j_idx
        h[i, 0] = g * i
    # Traceback.  Scores are sums of the (exactly representable) match /
    # mismatch / gap constants, so candidate moves either reproduce the
    # cell value exactly or miss it by at least the smallest score gap;
    # a fixed absolute tolerance replaces the seed's per-cell
    # ``np.isclose`` calls (atol + rtol work) at a fraction of the cost.
    tol = 1e-6
    pairs: list[tuple[int, int]] = []
    i, j = l1, l2
    while i > 0 and j > 0:
        here = h[i, j]
        if abs(here - (h[i - 1, j - 1] + s[i - 1, j - 1])) <= tol:
            pairs.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif abs(here - (h[i - 1, j] + g)) <= tol:
            i -= 1
        else:
            j -= 1
    pairs.reverse()
    pair_arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    if pair_arr.shape[0]:
        identity = float((q[pair_arr[:, 0]] == t[pair_arr[:, 1]]).mean())
    else:
        identity = 0.0
    return SequenceAlignment(
        pairs=pair_arr, score=float(h[l1, l2]), identity=identity
    )


def reference_traceback(q, t, gap_penalty):
    """The seed's np.isclose-based traceback, kept as the regression
    oracle for the plain-float-comparison fast path."""
    q = np.asarray(q, dtype=np.int16)
    t = np.asarray(t, dtype=np.int16)
    l1, l2 = q.size, t.size
    s = np.where(q[:, None] == t[None, :], MATCH_SCORE, MISMATCH_SCORE)
    g = gap_penalty
    j_idx = np.arange(l2 + 1, dtype=np.float64)
    h = np.zeros((l1 + 1, l2 + 1), dtype=np.float64)
    h[0, :] = g * j_idx
    h[:, 0] = g * np.arange(l1 + 1, dtype=np.float64)
    for i in range(1, l1 + 1):
        m = np.empty(l2 + 1)
        m[0] = h[i, 0]
        m[1:] = np.maximum(h[i - 1, :-1] + s[i - 1], h[i - 1, 1:] + g)
        h[i] = np.maximum.accumulate(m - g * j_idx) + g * j_idx
        h[i, 0] = g * i
    pairs = []
    i, j = l1, l2
    while i > 0 and j > 0:
        here = h[i, j]
        if np.isclose(here, h[i - 1, j - 1] + s[i - 1, j - 1]):
            pairs.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif np.isclose(here, h[i - 1, j] + g):
            i -= 1
        else:
            j -= 1
    pairs.reverse()
    pair_arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    identity = (
        float((q[pair_arr[:, 0]] == t[pair_arr[:, 1]]).mean())
        if pair_arr.shape[0]
        else 0.0
    )
    return pair_arr, float(h[l1, l2]), identity


class ReferenceKmerIndex:
    """The per-entry ``np.unique`` + stable-argsort CSR build: ``add``,
    ``freeze`` and the attributes ``build_disk_index`` reads."""

    def __init__(self, k: int = DEFAULT_K) -> None:
        self.k = k
        #: Per-sequence *distinct* code arrays, pending freeze.
        self._pending: list[np.ndarray] = []
        self._kmer_counts: list[int] = []
        # CSR layout, populated by freeze().
        self._codes: np.ndarray | None = None  # sorted distinct codes
        self._offsets: np.ndarray | None = None  # len(_codes) + 1
        self._ids: np.ndarray | None = None  # flat int32 postings
        self._counts_f64: np.ndarray | None = None  # cached counts array
        self._lut: np.ndarray | None = None  # code -> vocab position

    def add(self, seq_id: int, encoded: np.ndarray) -> None:
        """Index one sequence under integer id ``seq_id``."""
        if self._codes is not None:
            raise RuntimeError("index is frozen; cannot add more sequences")
        if seq_id != len(self._kmer_counts):
            raise ValueError("sequences must be added with consecutive ids")
        codes = np.unique(kmer_codes(encoded, self.k))
        self._pending.append(codes)
        self._kmer_counts.append(int(codes.size))

    def freeze(self) -> None:
        """Build the CSR postings; no further additions allowed."""
        if self._codes is not None:
            return
        # Every CSR construction is a paid-for build; the disk-index
        # smoke asserts this stays at zero inside a campaign that
        # attaches a prebuilt artifact instead (workers included —
        # worker counter deltas merge back into the parent registry).
        get_metrics().counter("msa.index.rebuild").inc()
        if self._pending:
            all_codes = np.concatenate(self._pending)
            ids = np.repeat(
                np.arange(len(self._pending), dtype=np.int32),
                [c.size for c in self._pending],
            )
        else:
            all_codes = np.empty(0, dtype=np.int64)
            ids = np.empty(0, dtype=np.int32)
        order = np.argsort(all_codes, kind="stable")
        sorted_codes = all_codes[order]
        self._ids = ids[order]
        self._codes, starts = np.unique(sorted_codes, return_index=True)
        self._offsets = np.append(starts, sorted_codes.size).astype(np.int64)
        self._counts_f64 = np.asarray(self._kmer_counts, dtype=np.float64)
        self._pending = []
        self._build_lut()

    def _build_lut(self) -> None:
        """Dense code -> vocab-position table, when the span is small."""
        assert self._codes is not None
        span = int(ALPHABET_SIZE) ** self.k
        if self._codes.size and span <= _LUT_MAX_SPAN:
            lut = np.full(span, -1, dtype=np.int32)
            lut[self._codes] = np.arange(self._codes.size, dtype=np.int32)
            self._lut = lut

    @property
    def n_sequences(self) -> int:
        return len(self._kmer_counts)

    @property
    def kmer_counts(self) -> np.ndarray:
        """Distinct k-mer types per sequence (float64, cached at freeze)."""
        self.freeze()
        assert self._counts_f64 is not None
        return self._counts_f64


# -- Relaxation force field ---------------------------------------------------


class ReferenceForceField:
    """The original straight-line evaluator, kept as numerical reference.

    Allocates per call and scatters with ``np.add.at``; term-by-term
    readable.  :class:`ForceField` is property-tested against this at
    ``rtol <= 1e-9`` and benchmarked against it in
    ``bench_relax_throughput``.  Both share :func:`_candidate_pairs`, so
    a fresh build of each sees the same neighbour semantics (the fast
    list additionally prunes beyond ``radius + skin``, which changes
    nothing while the Verlet contract holds).
    """

    def __init__(
        self, system: MMSystem, params: ForceFieldParams | None = None
    ) -> None:
        self.system = system
        self.params = params or ForceFieldParams()
        self.n = system.n_residues
        self._pairs: np.ndarray | None = None
        self._radii: np.ndarray | None = None
        self.rebuild_neighbors(system.particles)

    def rebuild_neighbors(self, particles: np.ndarray) -> None:
        """Rebuild the non-bonded pair list at the given coordinates."""
        self._cb_ideal = pseudo_cb(np.asarray(particles)[: self.n])
        self._pairs, self._radii = _candidate_pairs(
            np.asarray(particles, dtype=np.float64), self.n
        )

    def energy_and_gradient(
        self, particles: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Total energy (kcal/mol) and gradient at the given coordinates."""
        x = np.asarray(particles, dtype=np.float64)
        if x.shape != self.system.particles.shape:
            raise ValueError("particle array shape mismatch")
        p = self.params
        n = self.n
        energy = 0.0
        grad = np.zeros_like(x)

        # CA-CA bonds.
        delta = x[1:n] - x[: n - 1]
        dist = np.linalg.norm(delta, axis=1)
        np.maximum(dist, _DIST_FLOOR, out=dist)
        dev = dist - CA_CA_BOND_LENGTH
        energy += p.k_bond * float((dev**2).sum())
        f = (2.0 * p.k_bond * dev / dist)[:, None] * delta
        grad[1:n] += f
        grad[: n - 1] -= f

        # CA-CB bonds.
        delta = x[n:] - x[:n]
        dist = np.linalg.norm(delta, axis=1)
        np.maximum(dist, _DIST_FLOOR, out=dist)
        dev = dist - _CB_BOND_LENGTH
        energy += p.k_cb_bond * float((dev**2).sum())
        f = (2.0 * p.k_cb_bond * dev / dist)[:, None] * delta
        grad[n:] += f
        grad[:n] -= f

        # CB geometry idealisation: pull CB toward the virtual-CB
        # position implied by the backbone frame frozen at the last
        # neighbour-list rebuild.
        delta = x[n:] - self._cb_ideal
        energy += p.k_cb_geometry * float((delta**2).sum())
        grad[n:] += 2.0 * p.k_cb_geometry * delta

        # Excluded volume.
        assert self._pairs is not None and self._radii is not None
        if self._pairs.shape[0]:
            i, j = self._pairs[:, 0], self._pairs[:, 1]
            dvec = x[j] - x[i]
            dist = np.linalg.norm(dvec, axis=1)
            np.maximum(dist, _DIST_FLOOR, out=dist)
            overlap = self._radii - dist
            active = overlap > 0
            if active.any():
                ov = overlap[active]
                energy += p.k_repulsion * float((ov**2).sum())
                c = (-2.0 * p.k_repulsion * ov / dist[active])[:, None]
                fv = c * dvec[active]
                np.add.at(grad, j[active], fv)
                np.add.at(grad, i[active], -fv)

        # Positional restraints (k = 10 kcal/mol/A^2, paper §3.2.3).
        delta = x - self.system.reference
        energy += p.k_restraint * float((delta**2).sum())
        grad += 2.0 * p.k_restraint * delta

        return energy, grad

    def energy(self, particles: np.ndarray) -> float:
        return self.energy_and_gradient(particles)[0]
