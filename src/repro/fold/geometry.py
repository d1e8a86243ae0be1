"""Calpha-trace geometry: internal-coordinate chain building and
compaction into globular folds.

The surrogate predictor needs *plausible* protein geometry — correct
consecutive Calpha spacing (~3.8 Angstrom), secondary-structure-like
local geometry, globular compactness, and no steric overlap — because
every downstream metric the paper reports (clashes, bumps, TM-score,
radius of gyration scaling) is a geometric property.

Chains are built residue-by-residue with the NeRF (natural extension
reference frame) construction from virtual Calpha bond angles and
torsions, then relaxed into a compact globule by a short gradient
descent on a coarse potential (bond springs + excluded volume +
radius-of-gyration pull + local-geometry retention).

Both kernels are scaffolding — they build the hidden natives the
surrogate is scored against, not anything the paper's workflow runs —
so they are written to cost few interpreter round-trips while keeping
the bits of the straightforward versions in
``tests/reference_kernels.py``.  The NeRF loop
(:func:`extend_ca_chain`) does its frame algebra on Python floats with
the trigonometry precomputed array-wise: a handful of float ops and two
``np.dot`` calls per residue.  A compaction step is one ``cKDTree``
build and pair query (O(N log N)), two ``add.at`` scatters over the
excluded-volume pairs, and otherwise whole-array slice arithmetic into
reused buffers; the tree and the pair scatter are kept because the order
in which pairs come out of the tree fixes the order their forces are
summed in, and with it the last bit of every native.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "CA_BOND",
    "SecondaryStructure",
    "ss_segments",
    "torsions_for_segments",
    "build_ca_chain",
    "extend_ca_chain",
    "target_radius_of_gyration",
    "compact_chain",
]

#: Consecutive Calpha-Calpha distance, Angstrom.
CA_BOND: float = 3.8

#: Minimum non-bonded Calpha separation enforced during compaction.  Kept
#: above the bump cutoff (3.6) so *natives* are violation-free; model
#: errors are what introduce clashes/bumps, as in the real pipeline.
_EXCLUDED_RADIUS: float = 4.1


@dataclass(frozen=True)
class SecondaryStructure:
    """Virtual Calpha-trace geometry of one secondary-structure type."""

    name: str
    angle_deg: float
    torsion_deg: float
    angle_jitter: float
    torsion_jitter: float


#: Canonical Calpha virtual angles/torsions (Levitt-style coarse values).
HELIX = SecondaryStructure("H", 91.0, 50.0, 3.0, 6.0)
STRAND = SecondaryStructure("E", 124.0, -170.0, 6.0, 15.0)
COIL = SecondaryStructure("C", 105.0, 0.0, 25.0, 180.0)

_SS_BY_NAME = {"H": HELIX, "E": STRAND, "C": COIL}


def ss_segments(
    length: int, rng: np.random.Generator, helix_bias: float = 0.45
) -> list[tuple[str, int]]:
    """Partition ``length`` residues into H/E/C segments.

    Segment types and lengths follow rough natural statistics: helices
    ~12 residues, strands ~6, coils ~5, with coil linkers between
    regular elements.  ``helix_bias`` sets the helix:strand ratio of the
    fold class (all-alpha vs all-beta vs mixed folds).
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    segments: list[tuple[str, int]] = []
    remaining = length
    want_regular = True
    while remaining > 0:
        if want_regular:
            if rng.random() < helix_bias:
                seg_len = int(np.clip(rng.normal(12, 4), 5, 25))
                kind = "H"
            else:
                seg_len = int(np.clip(rng.normal(6, 2), 3, 12))
                kind = "E"
        else:
            seg_len = int(np.clip(rng.normal(5, 3), 1, 15))
            kind = "C"
        seg_len = min(seg_len, remaining)
        segments.append((kind, seg_len))
        remaining -= seg_len
        want_regular = not want_regular
    return segments


def torsions_for_segments(
    segments: list[tuple[str, int]], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand segments into per-residue (angles, torsions, ss_labels).

    Angles/torsions are in radians; ``ss_labels`` is an int array with
    0=H, 1=E, 2=C for downstream error modelling (coil regions are the
    least confidently predicted).
    """
    label_code = {"H": 0, "E": 1, "C": 2}
    angles: list[np.ndarray] = []
    torsions: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for kind, seg_len in segments:
        ss = _SS_BY_NAME[kind]
        # Virtual Calpha angles in real chains stay within ~[75, 155]
        # degrees; clipping keeps d(i, i+2) above the bump cutoff so
        # natives are violation-free by construction.
        angles.append(
            np.deg2rad(
                np.clip(
                    rng.normal(ss.angle_deg, ss.angle_jitter, size=seg_len),
                    72.0,
                    155.0,
                )
            )
        )
        torsions.append(
            np.deg2rad(rng.normal(ss.torsion_deg, ss.torsion_jitter, size=seg_len))
        )
        labels.append(np.full(seg_len, label_code[kind], dtype=np.int8))
    return (
        np.concatenate(angles),
        np.concatenate(torsions),
        np.concatenate(labels),
    )


def build_ca_chain(angles: np.ndarray, torsions: np.ndarray) -> np.ndarray:
    """Build an (N, 3) Calpha trace from virtual internal coordinates.

    ``angles[i]`` and ``torsions[i]`` position residue ``i`` relative to
    its three predecessors (NeRF construction); the first three entries
    are ignored beyond seeding the frame.
    """
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
    if n > 3:
        extend_ca_chain(coords, 3, angles[3:], torsions[3:])
    return coords[:n]


def extend_ca_chain(
    coords: np.ndarray, start: int, angles: np.ndarray, torsions: np.ndarray
) -> None:
    """NeRF-place residues ``start .. start + len(angles) - 1`` in place.

    Residue ``start + k`` is positioned from its three predecessors by
    ``angles[k]`` / ``torsions[k]``; ``coords[:start]`` (``start >= 3``)
    must already hold the chain so far.  A collinear history has no
    defined normal; any perpendicular of the last bond is used (z cross,
    then y cross if the bond runs along z).

    The frame algebra runs on Python floats — elementwise numpy on
    3-vectors rounds identically but costs a call per operation — with
    two exceptions that keep the result bit-identical to the vector
    formulation: the trigonometry is evaluated array-wise up front, and
    the two norms stay ``sqrt(np.dot(v, v))``, because BLAS ``ddot``
    fuses its multiply-adds and a Python sum of squares differs from it
    in the last bit on about one vector in ten.
    """
    angles = np.asarray(angles, dtype=np.float64)
    torsions = np.asarray(torsions, dtype=np.float64)
    if start < 3 or start + angles.size > coords.shape[0]:
        raise ValueError("extension needs three placed residues and room to grow")
    if torsions.size != angles.size:
        raise ValueError("angles and torsions must have the same length")
    ang = np.pi - angles
    sin_ang = np.sin(ang)
    along = (CA_BOND * np.cos(ang)).tolist()
    across = (CA_BOND * (sin_ang * np.cos(torsions))).tolist()
    upward = (CA_BOND * (sin_ang * np.sin(torsions))).tolist()
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = coords[start - 3 : start].tolist()
    scratch = np.empty(3)

    def norm3(x: float, y: float, z: float) -> float:
        scratch[0], scratch[1], scratch[2] = x, y, z
        return math.sqrt(np.dot(scratch, scratch))

    placed: list[tuple[float, float, float]] = []
    for d0, d1, d2 in zip(along, across, upward):
        # u: unit vector of the last bond (b -> c).
        ux, uy, uz = cx - bx, cy - by, cz - bz
        norm = max(norm3(ux, uy, uz), 1e-9)
        ux /= norm
        uy /= norm
        uz /= norm
        # n: unit normal of the (a, b, c) plane, (b - a) x u.
        px, py, pz = bx - ax, by - ay, bz - az
        nx, ny, nz = py * uz - pz * uy, pz * ux - px * uz, px * uy - py * ux
        norm = norm3(nx, ny, nz)
        if norm < 1e-9:  # collinear history; pick any perpendicular
            # u x z, then u x y, with the zero products written out so
            # signed zeros come out as a vector cross product leaves them.
            nx, ny, nz = uy * 1.0 - uz * 0.0, uz * 0.0 - ux * 1.0, ux * 0.0 - uy * 0.0
            norm = norm3(nx, ny, nz)
            if norm < 1e-9:
                nx, ny, nz = uy * 0.0 - uz * 1.0, uz * 0.0 - ux * 0.0, ux * 1.0 - uy * 0.0
                # Only a zero-length last bond gets here with nothing.
                norm = max(norm3(nx, ny, nz), 1e-9)
        nx /= norm
        ny /= norm
        nz /= norm
        # m = n x u completes the right-handed frame.
        mx, my, mz = ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux
        ax, ay, az = bx, by, bz
        bx, by, bz = cx, cy, cz
        cx = cx + d0 * ux + d1 * mx + d2 * nx
        cy = cy + d0 * uy + d1 * my + d2 * ny
        cz = cz + d0 * uz + d1 * mz + d2 * nz
        placed.append((cx, cy, cz))
    if placed:
        coords[start : start + len(placed)] = placed


def target_radius_of_gyration(n_residues: int) -> float:
    """Empirical globular-protein radius of gyration, Angstrom.

    The well-known scaling Rg ~ 2.2 * N^0.38 for folded monomers.
    """
    return 2.2 * float(n_residues) ** 0.38


def compact_chain(
    coords: np.ndarray,
    rng: np.random.Generator,
    n_steps: int | None = None,
    step_size: float = 0.12,
    rg_gain: float = 0.5,
    local_window: int = 4,
) -> np.ndarray:
    """Relax a Calpha trace into a compact, clash-free globule.

    Gradient descent on four coarse terms:

    * bond springs holding consecutive Calpha at :data:`CA_BOND`,
    * KD-tree excluded volume pushing non-bonded pairs past 4.1 Angstrom,
    * a radius-of-gyration pull toward the globular target (only active
      while the chain is too extended),
    * retention springs on short-range (i, i+2..i+window) distances so
      secondary-structure geometry survives compaction.

    What a step costs: the bond and retention springs are one stacked
    batch (separation ``k = 1..window``; rows ``x[k:] - x[:-k]``), so
    their distances and forces are one pass of whole-array arithmetic
    and their scatter is two slice adds per ``k`` — ``i`` and ``i + k``
    each run over unique, contiguous rows; the excluded-volume pairs
    need one ``cKDTree`` build + query and two ``add.at`` scatters.
    Those stay as they are on purpose: a residue in several close pairs
    sums their forces in the order the tree emits the pairs, so any
    other neighbour search or scatter changes the last bit of the fold.
    Row norms are ``sqrt(add.reduce(v * v, axis=1))``, which is what
    ``np.linalg.norm(v, axis=1)`` evaluates.

    Returns a new array; the input is not modified.
    """
    x = np.array(coords, dtype=np.float64)
    n = x.shape[0]
    if n < 5:
        return x
    if n_steps is None:
        # Longer chains start further from globularity; scale the budget.
        n_steps = max(120, int(4.0 * n**0.62))
    target_rg = target_radius_of_gyration(n)
    # Spring table, stacked by separation k: rows lo:hi of every array
    # below belong to the pairs (i, i + k).  k = 1 are the bonds (rest
    # length CA_BOND); k >= 2 keep the distance the input chain had.
    spans: list[tuple[int, int, int]] = []
    n_rows = 0
    for k in range(1, max(local_window, 1) + 1):
        spans.append((k, n_rows, n_rows + max(n - k, 0)))
        n_rows = spans[-1][2]
    n_bonds = n - 1
    stiffness = np.full(n_rows, 2.0 * 0.3)
    stiffness[:n_bonds] = 2.0
    rest = np.full(n_rows, CA_BOND)
    for k, lo, hi in spans[1:]:
        delta = x[k:] - x[:-k]
        rest[lo:hi] = np.sqrt(np.add.reduce(delta * delta, axis=1))
    dvec = np.empty((n_rows, 3))
    force = np.empty_like(dvec)
    dist = np.empty_like(rest)
    grad = np.empty_like(x)
    # The Rg pull is released in the final quarter so excluded-volume
    # overlaps created during collapse can anneal out (natives must be
    # violation-free; model *errors* are what add clashes).
    release_step = 3 * n_steps // 4
    for step in range(n_steps):
        # Springs: dE/dx_j = 2k(d - d0) * (x_j - x_i)/d, all separations
        # at once from the positions at the start of the step.
        for k, lo, hi in spans:
            np.subtract(x[k:], x[:-k], out=dvec[lo:hi])
        np.multiply(dvec, dvec, out=force)
        np.add.reduce(force, axis=1, out=dist)
        np.sqrt(dist, out=dist)
        np.maximum(dist, 1e-9, out=dist)
        coef = stiffness * (dist - rest) / dist
        np.multiply(coef[:, None], dvec, out=force)
        # The terms enter the gradient in a fixed order — bonds,
        # excluded volume, Rg pull, retention — because float addition
        # is not associative.
        grad.fill(0.0)
        grad[1:] += force[:n_bonds]
        grad[:-1] -= force[:n_bonds]
        # Excluded volume via KD-tree.
        tree = cKDTree(x)
        pairs = tree.query_pairs(_EXCLUDED_RADIUS, output_type="ndarray")
        if pairs.size:
            nonadj = (pairs[:, 1] - pairs[:, 0]) > 2
            pairs = pairs[nonadj]
        if pairs.size:
            pi, pj = pairs[:, 0], pairs[:, 1]
            pvec = x[pj] - x[pi]
            d = np.sqrt(np.add.reduce(pvec * pvec, axis=1))
            np.maximum(d, 1e-9, out=d)
            # Quadratic wall: push apart with force ~ overlap.
            c = -2.0 * 4.0 * (_EXCLUDED_RADIUS - d) / d
            fv = c[:, None] * pvec
            np.add.at(grad, pi, -fv)
            np.add.at(grad, pj, fv)
        # Radius-of-gyration pull (compaction), only when too extended.
        # Exact gradient of k*(Rg - T)^2 with k chosen so each step moves
        # atoms inward by a fixed fraction of their centered radius —
        # without the n-scaling, long chains would never collapse.
        if step < release_step:
            center = x.mean(axis=0)
            centered = x - center
            rg = np.sqrt((centered**2).sum(axis=1).mean())
            if rg > target_rg:
                grad += rg_gain * (rg - target_rg) / rg**2 * centered
        # Local geometry retention.
        for k, lo, hi in spans[1:]:
            grad[k:] += force[lo:hi]
            grad[:-k] -= force[lo:hi]
        # Gradient step with a norm clip for stability.
        gnorm = np.sqrt(np.add.reduce(grad * grad, axis=1, keepdims=True))
        np.maximum(gnorm, 1.0, out=gnorm)
        grad *= step_size
        grad /= gnorm
        grad *= np.minimum(gnorm, 5.0)
        x -= grad
        # Tiny annealed jitter helps escape knots early on.
        if step < n_steps // 3:
            x += rng.normal(0.0, 0.02, size=x.shape)
    return resolve_overlaps(x)


def resolve_overlaps(
    coords: np.ndarray,
    min_distance: float = 3.75,
    max_sweeps: int = 200,
) -> np.ndarray:
    """Deterministically push residual non-bonded overlaps apart.

    Gradient descent occasionally leaves a few threaded contacts below
    the bump cutoff; this projection pass separates every non-adjacent
    pair (|i - j| > 2) to at least ``min_distance`` by symmetric
    displacement along the pair axis, sweeping until clean.  Natives
    must be violation-free by construction — model *error* is the only
    source of clashes/bumps in the pipeline, as in the paper.
    """
    x = np.array(coords, dtype=np.float64)
    n = x.shape[0]
    if n < 4:
        return x
    for _ in range(max_sweeps):
        tree = cKDTree(x)
        pairs = tree.query_pairs(min_distance - 1e-9, output_type="ndarray")
        if pairs.size:
            pairs = pairs[(pairs[:, 1] - pairs[:, 0]) > 2]
        if pairs.size == 0:
            break
        for i, j in pairs:
            dvec = x[j] - x[i]
            d = np.linalg.norm(dvec)
            if d < 1e-9:
                dvec = np.array([1.0, 0.0, 0.0])
                d = 1.0
            push = 0.5 * (min_distance - d) * 1.05 / d
            x[i] -= push * dvec
            x[j] += push * dvec
    return x
