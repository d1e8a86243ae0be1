"""Coarse molecular-mechanics force field for restrained relaxation.

Mirrors the *structure* of the AlphaFold relaxation Hamiltonian at
Calpha+CB resolution (energies in nominal kcal/mol, distances in
Angstrom):

* **bonds** — springs holding consecutive Calpha at 3.8 A and each CB at
  1.53 A from its Calpha;
* **geometry** — a spring pulling each CB toward the ideal virtual-CB
  position implied by the local backbone frame (the stand-in for the
  full bonded/torsional terms that idealise side-chain geometry);
* **excluded volume** — a quadratic wall that strongly destabilises
  non-physical contacts, "beyond those defined by Calpha-Calpha
  distances" as the paper puts it: this is the term that removes
  clashes and bumps;
* **restraints** — harmonic positional restraints on all particles with
  the paper's force constant k = 10 kcal/mol/A^2, anchoring the model to
  its predicted coordinates so only small perturbations occur.

Two evaluators share these semantics:

* :class:`ForceField` — the production kernel.  All terms are folded
  into one fused pass over a preallocated difference matrix (dense
  anchor rows + bond rows + neighbour-pair rows), squared norms come
  from one elementwise square and a single BLAS matrix-vector product,
  and the pair-force scatter is a single weighted ``np.bincount`` over
  ravelled ``3*index+axis`` keys instead of ``np.add.at``.  The
  restraint and CB-geometry springs acting on the same CB particle are
  combined into one anchored quadratic (identical by completing the
  square).  L-BFGS calls this hundreds of times per round, so per-call
  allocations are limited to the returned gradient copy.
* ``ReferenceForceField`` — the original straight-line
  implementation, kept verbatim as the numerical reference in
  ``tests/reference_kernels.py``.  A hypothesis property pins
  :class:`ForceField` to it at ``rtol <= 1e-9``; the benchmark suite
  measures speedup against it.

The non-bonded pair list is built with a KD-tree and managed as a
Verlet list: pairs are collected out to ``radius + skin`` (0.5 A skin)
and the list remains valid — guaranteed to contain every pair inside
the repulsion radius — until some particle has moved more than half the
skin since the build.  :meth:`ForceField.ensure_neighbors` performs the
displacement check and skips the KD-tree rebuild while the list is
still valid (restraints keep motion tiny, so most minimisation rounds
reuse the list).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ..constants import RELAX_RESTRAINT_K
from ..structure.protein import CA_CA_BOND_LENGTH, pseudo_cb
from .hydrogens import MMSystem

__all__ = [
    "ForceFieldParams",
    "ForceField",
    "NEIGHBOR_SKIN",
]

#: Distance below which non-bonded Calpha pairs are penalised.  Sits
#: just above the bump cutoff (3.6) so minimisation pushes bumps out —
#: but the k=10 restraints win for mild bumps, which is why relaxation
#: reduces rather than eliminates them (paper §4.4).
_CA_REPULSION_RADIUS: float = 3.8

#: Repulsion radius for pairs involving a CB particle.
_CB_REPULSION_RADIUS: float = 3.0

#: Ideal Calpha-CB bond length.
_CB_BOND_LENGTH: float = 1.53

#: Verlet-list skin (A).  Pairs are harvested out to ``radius + skin``;
#: while no particle has moved more than ``skin / 2`` since the build,
#: two particles can close on each other by at most ``skin``, so every
#: pair now inside its repulsion radius was inside ``radius + skin`` at
#: build time and is guaranteed to be on the list.
NEIGHBOR_SKIN: float = 0.5

#: Numerical floor applied to pair distances before division.
_DIST_FLOOR: float = 1e-9


@dataclass(frozen=True)
class ForceFieldParams:
    """Force constants (kcal/mol/A^2) of the relaxation Hamiltonian."""

    k_bond: float = 120.0
    k_cb_bond: float = 60.0
    k_cb_geometry: float = 25.0
    k_repulsion: float = 40.0
    k_restraint: float = RELAX_RESTRAINT_K


def _candidate_pairs(
    particles: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """KD-tree pair harvest with chain/bond exclusions applied.

    Returns ``(pairs, radii)`` where ``pairs`` is (P, 2) int64 and
    ``radii`` the per-pair repulsion radius.  Shared by both force-field
    implementations so they agree on neighbour semantics exactly.
    """
    tree = cKDTree(particles)
    pairs = tree.query_pairs(
        _CA_REPULSION_RADIUS + NEIGHBOR_SKIN, output_type="ndarray"
    )
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0)
    i, j = pairs[:, 0], pairs[:, 1]
    both_ca = (i < n) & (j < n)
    # Exclusions: bonded/near neighbours along the chain, and each
    # residue's own CA-CB pair (that is a bond, not a contact).
    res_i = np.where(i < n, i, i - n)
    res_j = np.where(j < n, j, j - n)
    sep = np.abs(res_j - res_i)
    keep = np.where(both_ca, sep >= 3, sep >= 2)
    pairs = pairs[keep]
    radii = np.where(both_ca[keep], _CA_REPULSION_RADIUS, _CB_REPULSION_RADIUS)
    return pairs.astype(np.int64), radii


class ForceField:
    """Fused-kernel energy/gradient evaluator bound to one :class:`MMSystem`.

    The neighbour list is built at construction (or via
    :meth:`rebuild_neighbors` / :meth:`ensure_neighbors`) and reused
    across evaluations within one minimisation round.  The evaluation
    itself runs over preallocated buffers laid out at list-build time:

    * rows ``[0, 2n)`` of the difference matrix hold each particle's
      offset from its combined restraint/geometry anchor,
    * rows ``[2n, 2n+B)`` hold bond vectors (CA-CA then CA-CB),
    * the remaining ``P`` rows hold neighbour-pair vectors gathered with
      one ``np.take`` on precomputed flat indices.

    One squared-elementwise pass plus a BLAS ``dot`` against ``ones(3)``
    produces every squared length; the dense-row energy falls out of a
    single ``dot`` between the gradient block and the difference block.
    Pair forces scatter through one weighted ``np.bincount``.

    ``n_rebuilds`` / ``n_reuses`` count Verlet-list builds and
    displacement-check hits for benchmark reporting.
    """

    def __init__(
        self, system: MMSystem, params: ForceFieldParams | None = None
    ) -> None:
        self.system = system
        self.params = params or ForceFieldParams()
        self.n = system.n_residues
        self._pairs: np.ndarray | None = None
        self._radii: np.ndarray | None = None
        self.n_rebuilds = 0
        self.n_reuses = 0
        self.rebuild_neighbors(system.particles)

    # -- Neighbour-list management ------------------------------------------
    def rebuild_neighbors(self, particles: np.ndarray) -> None:
        """Rebuild the non-bonded pair list at the given coordinates.

        Also freezes the CB idealisation targets at the current backbone
        frame, so the energy surface within one round is exactly
        quadratic in CB and the analytic gradient is exact (the frame is
        refreshed at every rebuild, like the neighbour list).

        Pairs whose build-time separation exceeds ``radius + skin`` are
        dropped: while the list is valid (no particle moved more than
        half the skin) they cannot come inside the repulsion radius, so
        they contribute exact zeros and only cost time.
        """
        x = np.asarray(particles, dtype=np.float64)
        n = self.n
        pairs, radii = _candidate_pairs(x, n)
        if pairs.shape[0]:
            d = np.linalg.norm(x[pairs[:, 1]] - x[pairs[:, 0]], axis=1)
            keep = d < radii + NEIGHBOR_SKIN
            pairs, radii = pairs[keep], radii[keep]
        self._pairs = pairs
        self._radii = radii
        self._build_positions = x.copy()
        self.n_rebuilds += 1
        self._layout_buffers()
        self._refresh_cb_frame(x)

    def ensure_neighbors(self, particles: np.ndarray) -> bool:
        """Rebuild the pair list only if the Verlet skin has been spent.

        Returns ``True`` if a rebuild happened.  Either way the CB
        idealisation frame is refreshed at the given coordinates, so a
        reused list changes nothing about per-round energy semantics
        except skipping the KD-tree pass.
        """
        x = np.asarray(particles, dtype=np.float64)
        moved = x - self._build_positions
        max_sq = float(np.einsum("ij,ij->i", moved, moved).max())
        if max_sq >= (NEIGHBOR_SKIN / 2.0) ** 2:
            self.rebuild_neighbors(x)
            return True
        self.n_reuses += 1
        self._refresh_cb_frame(x)
        return False

    # -- Kernel layout --------------------------------------------------------
    def _layout_buffers(self) -> None:
        """Allocate the fused-kernel workspace for the current pair list."""
        n = self.n
        p = self.params
        assert self._pairs is not None and self._radii is not None
        n2 = 2 * n
        n_bonds = n2 - 1  # (n-1) CA-CA rows then n CA-CB rows
        n_pairs = self._pairs.shape[0]
        m = n_bonds + n_pairs
        self._n2, self._n_bonds, self._n_pairs = n2, n_bonds, n_pairs

        # Per-interaction spring targets and doubled force constants.
        t = np.empty(m)
        t[: n - 1] = CA_CA_BOND_LENGTH
        t[n - 1 : n_bonds] = _CB_BOND_LENGTH
        t[n_bonds:] = self._radii
        k2 = np.empty(m)
        k2[: n - 1] = 2.0 * p.k_bond
        k2[n - 1 : n_bonds] = 2.0 * p.k_cb_bond
        k2[n_bonds:] = 2.0 * p.k_repulsion
        self._targets, self._k2 = t, k2

        # Dense anchor rows: every particle is restrained to the
        # reference, and CB particles additionally to the ideal-CB frame.
        # Completing the square merges both springs into one anchored
        # quadratic per particle; _refresh_cb_frame fills the anchors.
        kr, kg = p.k_restraint, p.k_cb_geometry
        kr_row = np.full(n2, kr)
        kr_row[n:] = kr + kg
        self._k2_dense = np.repeat((2.0 * kr_row)[:, None], 3, axis=1)
        self._anchors = np.empty((n2, 3))
        self._anchors[:n] = self.system.reference[:n]
        self._e_const = 0.0

        # Flat gather/scatter indices for pair rows: +f at j, -f at i.
        axes = np.arange(3)
        j3 = ((3 * self._pairs[:, 1])[:, None] + axes).ravel()
        i3 = ((3 * self._pairs[:, 0])[:, None] + axes).ravel()
        self._gather_idx = np.concatenate([j3, i3])

        # Workspace: one difference matrix shared by every term.
        rows = n2 + m
        self._diff = np.empty((rows, 3))
        self._d_dense = self._diff[:n2]
        self._d_dense_flat = self._d_dense.reshape(-1)
        self._d_ca = self._diff[n2 : n2 + n - 1]
        self._d_cb = self._diff[n2 + n - 1 : n2 + n_bonds]
        self._d_pair = self._diff[n2 + n_bonds :]
        self._d_inter = self._diff[n2:]
        self._f_ca = self._d_inter[: n - 1]
        self._f_cb = self._d_inter[n - 1 : n_bonds]
        self._f_pair = self._d_inter[n_bonds:]
        self._sq = np.empty((m, 3))
        self._lengths = np.empty(m)
        self._dev = np.empty(m)
        self._dev_pair = self._dev[n_bonds:]
        self._kdev = np.empty(m)
        self._kdev_col = self._kdev[:, None]
        self._grad = np.empty((n2, 3))
        self._grad_flat = self._grad.reshape(-1)
        self._gathered = np.empty((2 * n_pairs, 3))
        self._gathered_flat = self._gathered.reshape(-1)
        self._gathered_j = self._gathered[:n_pairs]
        self._gathered_i = self._gathered[n_pairs:]
        self._scatter_w = np.empty((2 * n_pairs, 3))
        self._scatter_w_flat = self._scatter_w.reshape(-1)
        self._w_plus = self._scatter_w[:n_pairs]
        self._w_minus = self._scatter_w[n_pairs:]
        self._ones3 = np.ones(3)

    def _refresh_cb_frame(self, particles: np.ndarray) -> None:
        """Re-freeze the virtual-CB targets at the current backbone frame."""
        n = self.n
        p = self.params
        self._cb_ideal = pseudo_cb(np.asarray(particles)[:n])
        kr, kg = p.k_restraint, p.k_cb_geometry
        ref_cb = self.system.reference[n:]
        self._anchors[n:] = (kr * ref_cb + kg * self._cb_ideal) / (kr + kg)
        d0 = ref_cb - self._cb_ideal
        self._e_const = (
            kr * kg / (kr + kg) * float(np.einsum("ij,ij->", d0, d0))
        )

    # -- Energy terms -------------------------------------------------------
    def energy_and_gradient(
        self, particles: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Total energy (kcal/mol) and gradient at the given coordinates."""
        x = np.asarray(particles, dtype=np.float64)
        if x.shape != self.system.particles.shape:
            raise ValueError("particle array shape mismatch")
        n, n2, n_pairs = self.n, self._n2, self._n_pairs
        grad = self._grad
        grad_flat = self._grad_flat

        # Difference matrix: anchor rows, bond rows, gathered pair rows.
        np.subtract(x, self._anchors, out=self._d_dense)
        np.subtract(x[1:n], x[: n - 1], out=self._d_ca)
        np.subtract(x[n:], x[:n], out=self._d_cb)
        if n_pairs:
            np.take(x.reshape(-1), self._gather_idx, out=self._gathered_flat)
            np.subtract(self._gathered_j, self._gathered_i, out=self._d_pair)

        # Anchored quadratics (restraints + CB geometry): the gradient
        # block is 2k(x - c), so the energy is half its dot with (x - c).
        np.multiply(self._k2_dense, self._d_dense, out=grad)
        energy = (
            0.5 * float(np.dot(grad_flat, self._d_dense_flat)) + self._e_const
        )

        # Squared lengths of every bond/pair row in one fused pass.
        np.multiply(self._d_inter, self._d_inter, out=self._sq)
        np.dot(self._sq, self._ones3, out=self._lengths)
        s = self._lengths
        np.sqrt(s, out=s)
        np.maximum(s, _DIST_FLOOR, out=s)
        # Deviation from the spring target; pair rows clamp to overlap
        # only (non-overlapping pairs contribute exact zeros, matching
        # the reference's active-pair masking bit for bit).
        np.subtract(s, self._targets, out=self._dev)
        if n_pairs:
            np.minimum(self._dev_pair, 0.0, out=self._dev_pair)
        np.multiply(self._k2, self._dev, out=self._kdev)
        energy += 0.5 * float(np.dot(self._kdev, self._dev))

        # Forces: scale each row to k2 * dev / length * diff in place.
        np.divide(self._kdev, s, out=self._kdev)
        np.multiply(self._d_inter, self._kdev_col, out=self._d_inter)
        grad[1:n] += self._f_ca
        grad[: n - 1] -= self._f_ca
        grad[n:] += self._f_cb
        grad[:n] -= self._f_cb
        if n_pairs:
            self._w_plus[...] = self._f_pair
            np.negative(self._f_pair, out=self._w_minus)
            grad_flat += np.bincount(
                self._gather_idx,
                weights=self._scatter_w_flat,
                minlength=3 * n2,
            )
        # The workspace is reused next call; hand back a private copy.
        return energy, grad.copy()

    def energy(self, particles: np.ndarray) -> float:
        return self.energy_and_gradient(particles)[0]
