"""Fold/relax kernel throughput: the hot paths behind Figs. 3-4 and §4.4-4.5.

Two artifacts, both under ``benchmarks/results/``:

* ``BENCH_relax.json`` — per-evaluation time of the fused
  bincount-scatter force-field kernel against the seed's ``np.add.at``
  implementation on a 500-residue system; Verlet neighbour-list
  rebuild/reuse counts over the Fig-4 sweep; and models/sec of the
  batched relax path (``relax_many``) against the seed's serial
  protocol (reference kernel, KD-tree rebuild every round, public
  scipy driver).
* ``BENCH_fold.json`` — recycle-loop wall time per (model, target)
  pair on a Table-1 subset with the GEMM distogram vs the seed's
  broadcast version, plus the distogram kernel in isolation.

Artifacts are written only after observable equivalence is asserted:
kernel energies/gradients within rtol 1e-9 of the reference, violation
censuses identical (clashes removed completely), batched == serial
bit-for-bit (TM-score within 1e-6), and fold outputs bit-identical
under either distogram kernel.

``BENCH_SMOKE=1`` shrinks every size so CI can assert the artifacts
are produced in seconds; speedup bars then drop to >= 1.0 (tiny systems
measure overhead, not throughput).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

import repro.fold.recycling as recycling
from repro.constants import RELAX_ENERGY_TOLERANCE_KCAL
from repro.core import benchmark_set, benchmark_suite, casp_targets
from repro.fold import PredictionConfig, SurrogateFoldModel
from repro.fold.recycling import distogram_signature
from repro.msa import generate_features
from repro.relax import SinglePassRelaxProtocol, minimize_system, relax_many
from repro.relax.forcefield import NEIGHBOR_SKIN, ForceField
from repro.relax.violations import count_violations
from repro.structure import tm_score
from repro.structure.protein import Structure
from conftest import RESULTS_DIR, save_result

# The broadcast distogram and the straight-line force field are test
# oracles now; they live with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.reference_kernels import (  # noqa: E402
    ReferenceForceField,
    distogram_signature_reference,
)

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
KERNEL_RESIDUES = 100 if SMOKE else 500
KERNEL_EVALS = 50 if SMOKE else 200
N_SWEEP_TARGETS = 5 if SMOKE else 19  # the Fig-4 CASP sweep
N_FOLD_TARGETS = 2 if SMOKE else 4  # Table-1 subset
FOLD_HEADS = (0, 3)  # one template-using head, one MSA-only head
#: Tiny smoke systems measure fixed overhead, so the hard bars apply
#: full-size only: >= 3x on the kernel, >= 2x end-to-end (the ISSUE /
#: ROADMAP acceptance line).
MIN_KERNEL_SPEEDUP = 1.0 if SMOKE else 3.0
MIN_E2E_SPEEDUP = 1.0 if SMOKE else 2.0


def _best_of(fn, repeats: int = 3):
    """One warmup pass, then the minimum of ``repeats`` timed passes."""
    fn()
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _seed_relax(protocol, structure):
    """The seed's relaxation loop, kept verbatim as the baseline:
    ``np.add.at`` reference kernel, KD-tree rebuild every round, the
    public scipy driver, and the same before/after violation census."""
    prepared = protocol.prepare(structure)
    system = prepared.system
    ff = ReferenceForceField(system)
    x = system.particles.copy()
    shape = x.shape
    prev_energy = ff.energy(x)
    for _ in range(30):
        ff.rebuild_neighbors(x)

        def fun(flat):
            e, g = ff.energy_and_gradient(flat.reshape(shape))
            return e, g.ravel()

        res = scipy_minimize(
            fun,
            x.ravel(),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 400, "ftol": 1e-10, "gtol": 1e-8},
        )
        x = res.x.reshape(shape)
        energy = float(res.fun)
        if prev_energy - energy < RELAX_ENERGY_TOLERANCE_KCAL:
            break
        prev_energy = energy
    relaxed = system.with_particles(x).to_structure()
    return relaxed, prepared.violations_before, count_violations(relaxed)


@pytest.fixture(scope="module")
def sweep():
    """The Fig-4 CASP sweep (19 targets incl. the T1080-like giant)."""
    return casp_targets(
        n_targets=N_SWEEP_TARGETS, models_per_target=1, seed=11
    )


def test_relax_throughput(sweep):
    protocol = SinglePassRelaxProtocol(device="gpu")

    # --- kernel: fused bincount scatter vs the seed's np.add.at -------
    rng = np.random.default_rng(0)
    steps = rng.normal(size=(KERNEL_RESIDUES, 3))
    steps /= np.linalg.norm(steps, axis=1, keepdims=True)
    ca = np.cumsum(steps * 3.8, axis=0) + rng.normal(
        0.0, 0.7, size=(KERNEL_RESIDUES, 3)
    )
    system = protocol.prepare(
        Structure(
            record_id="kernel",
            encoded=np.zeros(KERNEL_RESIDUES, dtype=np.int8),
            ca=ca,
        )
    ).system
    fast_ff = ForceField(system)
    ref_ff = ReferenceForceField(system)
    # Equivalence first, at the build point and inside the skin contract.
    for scale in (0.0, NEIGHBOR_SKIN / 4.0):
        x = system.particles + rng.normal(
            0.0, scale / 3.0, size=system.particles.shape
        )
        e_fast, g_fast = fast_ff.energy_and_gradient(x)
        e_ref, g_ref = ref_ff.energy_and_gradient(x)
        assert e_fast == pytest.approx(e_ref, rel=1e-9)
        np.testing.assert_allclose(g_fast, g_ref, rtol=1e-9, atol=1e-9)
    x = system.particles
    fast_s, _ = _best_of(
        lambda: [fast_ff.energy_and_gradient(x) for _ in range(KERNEL_EVALS)]
    )
    ref_s, _ = _best_of(
        lambda: [ref_ff.energy_and_gradient(x) for _ in range(KERNEL_EVALS)]
    )
    kernel_speedup = ref_s / fast_s
    assert kernel_speedup >= MIN_KERNEL_SPEEDUP

    # --- end-to-end: seed serial loop vs batched relax_many ----------
    structures = {t.record.record_id: t.models[0].structure for t in sweep}

    seed_s, seed_out = _best_of(
        lambda: {k: _seed_relax(protocol, s) for k, s in structures.items()}
    )
    serial_s, serial_out = _best_of(
        lambda: {k: protocol.run(s) for k, s in structures.items()}
    )
    batch_s, batch = _best_of(lambda: relax_many(structures))

    rebuilds = reuses = 0
    tm_batch_vs_serial = 0.0
    bump_total_seed = bump_total_fast = 0
    for t in sweep:
        key = t.record.record_id
        relaxed_seed, before_seed, after_seed = seed_out[key]
        outcome = batch.outcomes[key]
        # Census identical to the seed protocol: the before census and
        # the clash count (-> 0) exactly; bump counts are threshold
        # counts of near-boundary contacts, so the two optimizers'
        # epsilon-different converged minima may flip one borderline
        # bump per model without moving the §4.4 statistics.
        assert outcome.violations_before == before_seed
        assert outcome.violations_after.n_clashes == after_seed.n_clashes
        assert outcome.violations_after.n_clashes == 0
        assert abs(outcome.violations_after.n_bumps - after_seed.n_bumps) <= 1
        bump_total_seed += after_seed.n_bumps
        bump_total_fast += outcome.violations_after.n_bumps
        # Fig-3 quality unchanged: same TM against the native (the two
        # optimizers walk to the same basin; coords differ only below
        # census/TM resolution).
        tm_seed = tm_score(relaxed_seed.ca, t.native.ca)
        tm_fast = tm_score(outcome.structure.ca, t.native.ca)
        assert tm_fast == pytest.approx(tm_seed, abs=1e-3)
        # Batched == serial fast path, bit for bit (TM within 1e-6).
        serial_outcome = serial_out[key]
        np.testing.assert_array_equal(
            outcome.structure.ca, serial_outcome.structure.ca
        )
        tm_batch_vs_serial = max(
            tm_batch_vs_serial,
            abs(tm_fast - tm_score(serial_outcome.structure.ca, t.native.ca)),
        )
        result = minimize_system(protocol.prepare(t.models[0].structure).system)
        rebuilds += result.n_neighbor_rebuilds
        reuses += result.n_neighbor_reuses
    assert tm_batch_vs_serial <= 1e-6
    assert abs(bump_total_fast - bump_total_seed) <= 2
    n_models = len(structures)
    e2e_speedup = seed_s / batch_s
    assert e2e_speedup >= MIN_E2E_SPEEDUP

    payload = {
        "smoke": SMOKE,
        "kernel": {
            "n_residues": KERNEL_RESIDUES,
            "n_particles": int(system.particles.shape[0]),
            "reference_us_per_eval": ref_s / KERNEL_EVALS * 1e6,
            "fast_us_per_eval": fast_s / KERNEL_EVALS * 1e6,
            "speedup": kernel_speedup,
        },
        "verlet": {
            "n_structures": n_models,
            "rebuilds": rebuilds,
            "reuses": reuses,
            "reuse_fraction": reuses / max(rebuilds + reuses, 1),
        },
        "end_to_end": {
            "n_models": n_models,
            "seed_models_per_sec": n_models / seed_s,
            "fast_serial_models_per_sec": n_models / serial_s,
            "batched_models_per_sec": n_models / batch_s,
            "speedup": e2e_speedup,
            "batched_vs_serial_tm_max_diff": tm_batch_vs_serial,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_relax.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    save_result(
        "relax_throughput",
        "\n".join(
            [
                f"relax kernels, {KERNEL_RESIDUES}-residue system / "
                f"{n_models}-model Fig-4 sweep" + (" [smoke]" if SMOKE else ""),
                f"energy+gradient seed   : {ref_s / KERNEL_EVALS * 1e6:8.1f} "
                f"us/eval",
                f"energy+gradient fused  : {fast_s / KERNEL_EVALS * 1e6:8.1f} "
                f"us/eval  ({kernel_speedup:.2f}x)",
                f"Verlet list            : {rebuilds} rebuilds, {reuses} "
                f"reuses ({reuses / max(rebuilds + reuses, 1):.0%} reused)",
                f"seed serial relax      : {n_models / seed_s:8.1f} models/s",
                f"fast serial relax      : {n_models / serial_s:8.1f} models/s",
                f"batched relax_many     : {n_models / batch_s:8.1f} models/s "
                f"({e2e_speedup:.2f}x end-to-end)",
            ]
        ),
    )


def test_fold_recycle_throughput(bench_universe, bench_factory, feature_cache):
    records = list(benchmark_set(bench_universe, seed=0))[:N_FOLD_TARGETS]
    suite = benchmark_suite(bench_universe, seed=0)
    config = PredictionConfig(recycle_tolerance=0.4, max_recycles=8)
    pairs = [
        (head, generate_features(r, suite, cache=feature_cache))
        for head in FOLD_HEADS
        for r in records
    ]

    def run_pairs():
        return [
            SurrogateFoldModel(bench_factory, head).predict(features, config)
            for head, features in pairs
        ]

    gemm_s, gemm_preds = _best_of(run_pairs)

    def reference_signature(ca, out=None):
        return distogram_signature_reference(ca)

    original = recycling.distogram_signature
    recycling.distogram_signature = reference_signature
    try:
        ref_s, ref_preds = _best_of(run_pairs)
    finally:
        recycling.distogram_signature = original

    # The GEMM distogram must not change a single output: identical
    # coordinates (TM diff 0 <= 1e-6), confidences, recycle counts.
    total_recycles = 0
    for fast, ref in zip(gemm_preds, ref_preds):
        np.testing.assert_array_equal(fast.structure.ca, ref.structure.ca)
        assert fast.ptms == ref.ptms
        assert fast.n_recycles == ref.n_recycles
        total_recycles += fast.n_recycles

    # The distogram kernel in isolation (per recycle pass), on the
    # largest target's CA trace.
    ca = max((p.structure.ca for p in gemm_preds), key=len)
    out = np.empty((min(len(ca), 450),) * 2)
    sig_fast_s, _ = _best_of(
        lambda: [distogram_signature(ca, out=out) for _ in range(20)],
        repeats=5,
    )
    sig_ref_s, _ = _best_of(
        lambda: [distogram_signature_reference(ca) for _ in range(20)],
        repeats=5,
    )
    signature_speedup = sig_ref_s / sig_fast_s
    assert signature_speedup >= 1.0

    n_pairs = len(pairs)
    payload = {
        "smoke": SMOKE,
        "n_pairs": n_pairs,
        "total_recycles": total_recycles,
        "gemm_seconds_per_pair": gemm_s / n_pairs,
        "reference_seconds_per_pair": ref_s / n_pairs,
        "recycle_loop_speedup": ref_s / gemm_s,
        "signature_length": int(min(len(ca), 450)),
        "signature_speedup": signature_speedup,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_fold.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    save_result(
        "fold_recycle_throughput",
        "\n".join(
            [
                f"recycle loop, {n_pairs} (model, target) pairs, "
                f"{total_recycles} recycles" + (" [smoke]" if SMOKE else ""),
                f"broadcast distogram : {ref_s / n_pairs * 1e3:8.1f} ms/pair",
                f"GEMM distogram      : {gemm_s / n_pairs * 1e3:8.1f} ms/pair "
                f"({ref_s / gemm_s:.2f}x)",
                f"signature kernel    : {signature_speedup:.2f}x at length "
                f"{min(len(ca), 450)}",
            ]
        ),
    )
