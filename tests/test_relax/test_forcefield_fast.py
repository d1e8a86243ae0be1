"""Fused force-field kernel vs the reference implementation (hypothesis).

Two invariants the fast path must never lose:

* **reference equivalence** — energies and gradients match
  :class:`ReferenceForceField` at ``rtol <= 1e-9``, at the build point
  and anywhere inside the Verlet contract (every particle within half
  the 0.5 A skin of the build coordinates);
* **neighbour superset** — the pruned Verlet list still contains every
  pair that is actually inside its repulsion radius, for any
  coordinates within the contract, so reusing the list cannot miss an
  active contact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relax import minimize_system, prepare_system
from repro.relax.forcefield import (
    _CA_REPULSION_RADIUS,
    _CB_REPULSION_RADIUS,
    NEIGHBOR_SKIN,
    ForceField,
)
from repro.structure.protein import Structure

from ..reference_kernels import ReferenceForceField


def _random_system(n_residues: int, seed: int):
    """A random compact-ish chain with CA spacing ~3.8 A plus noise."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(size=(n_residues, 3))
    steps /= np.linalg.norm(steps, axis=1, keepdims=True) + 1e-12
    ca = np.cumsum(steps * 3.8, axis=0)
    ca += rng.normal(0.0, 0.7, size=ca.shape)  # wrinkles -> some contacts
    structure = Structure(
        record_id=f"prop-{seed}",
        encoded=np.zeros(n_residues, dtype=np.int8),
        ca=ca,
    )
    return prepare_system(structure, rng=rng)


def _contract_perturbation(rng, shape, max_step: float) -> np.ndarray:
    """Per-particle displacements with Euclidean norm <= max_step."""
    delta = rng.normal(0.0, max_step / 2.0, size=shape)
    norms = np.linalg.norm(delta, axis=1, keepdims=True)
    return delta * np.minimum(1.0, max_step / np.maximum(norms, 1e-12))


@settings(max_examples=25, deadline=None)
@given(
    n_residues=st.integers(min_value=2, max_value=48),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_fast_matches_reference_within_verlet_contract(n_residues, seed):
    system = _random_system(n_residues, seed)
    fast = ForceField(system)
    ref = ReferenceForceField(system)
    rng = np.random.default_rng(seed + 1)
    # Build point plus two perturbed points inside the skin contract.
    points = [system.particles]
    for _ in range(2):
        delta = _contract_perturbation(
            rng, system.particles.shape, NEIGHBOR_SKIN / 2.0 * 0.96
        )
        points.append(system.particles + delta)
    for x in points:
        e_fast, g_fast = fast.energy_and_gradient(x)
        e_ref, g_ref = ref.energy_and_gradient(x)
        assert e_fast == pytest.approx(e_ref, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(g_fast, g_ref, rtol=1e-9, atol=1e-9)


def _eligible_radius(i: int, j: int, n: int) -> float | None:
    """Repulsion radius for particle pair (i, j), None if excluded."""
    both_ca = i < n and j < n
    res_i = i if i < n else i - n
    res_j = j if j < n else j - n
    sep = abs(res_j - res_i)
    if both_ca:
        return _CA_REPULSION_RADIUS if sep >= 3 else None
    return _CB_REPULSION_RADIUS if sep >= 2 else None


@settings(max_examples=20, deadline=None)
@given(
    n_residues=st.integers(min_value=2, max_value=32),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_reused_list_is_superset_of_active_pairs(n_residues, seed):
    system = _random_system(n_residues, seed)
    ff = ForceField(system)
    rng = np.random.default_rng(seed + 2)
    delta = _contract_perturbation(
        rng, system.particles.shape, NEIGHBOR_SKIN / 2.0 * 0.96
    )
    x = system.particles + delta
    # Moving within the contract must not trigger a rebuild...
    assert ff.ensure_neighbors(x) is False
    listed = {tuple(p) for p in ff._pairs}
    # ...yet every pair actually inside its radius must be listed.
    n = system.n_residues
    n_particles = x.shape[0]
    for i in range(n_particles):
        for j in range(i + 1, n_particles):
            radius = _eligible_radius(i, j, n)
            if radius is None:
                continue
            if np.linalg.norm(x[j] - x[i]) < radius:
                assert (i, j) in listed, (i, j)


def test_ensure_neighbors_rebuilds_when_skin_spent():
    system = _random_system(12, 5)
    ff = ForceField(system)
    assert ff.n_rebuilds == 1
    x = system.particles.copy()
    assert ff.ensure_neighbors(x) is False  # zero displacement
    assert ff.n_reuses == 1
    x[3] += np.array([NEIGHBOR_SKIN, 0.0, 0.0])  # one particle > skin/2
    assert ff.ensure_neighbors(x) is True
    assert ff.n_rebuilds == 2


def test_minimize_reports_verlet_counters():
    system = _random_system(30, 9)
    result = minimize_system(system)
    assert result.n_neighbor_rebuilds >= 1
    # Construction builds once; every round either rebuilds or reuses.
    assert (
        result.n_neighbor_rebuilds + result.n_neighbor_reuses
        == result.n_rounds + 1
    )


def test_gradient_buffer_is_not_aliased():
    """Two evaluations must not clobber each other's gradients."""
    system = _random_system(10, 3)
    ff = ForceField(system)
    x1 = system.particles
    x2 = system.particles + 0.05
    _, g1 = ff.energy_and_gradient(x1)
    g1_snapshot = g1.copy()
    _, g2 = ff.energy_and_gradient(x2)
    assert g2 is not g1
    np.testing.assert_array_equal(g1, g1_snapshot)
