"""§4.4: clash/bump census over the 160-model CASP set.

Paper numbers: unrelaxed models average 0.22 +/- 1.09 clashes (max 8)
and 3.76 +/- 12.74 bumps (max 148).  All three relaxation methods
remove clashes *completely*; bumps drop to ~2.1-2.7 on average but are
not eliminated (the k=10 restraints win against mild bumps).
"""

import numpy as np
import pytest

from repro.relax import relax_many

from conftest import save_result


@pytest.fixture(scope="module")
def census(casp_census):
    """Violations before/after single-pass GPU relaxation, 160 models,
    relaxed as one executor-backed batch."""
    structures = {
        f"{target.record.record_id}/{j}": model.structure
        for target in casp_census
        for j, model in enumerate(target.models)
    }
    batch = relax_many(structures)
    before, after = [], []
    for key in structures:
        outcome = batch.outcomes[key]
        b, a = outcome.violations_before, outcome.violations_after
        before.append((b.n_clashes, b.n_bumps))
        after.append((a.n_clashes, a.n_bumps))
    return np.array(before), np.array(after)


def test_violation_reduction(benchmark, census):
    before, after = benchmark.pedantic(
        lambda: census, rounds=1, iterations=1
    )
    n_models = before.shape[0]
    lines = [
        f"S4.4 — violation census over {n_models} models (paper in [])",
        f"unrelaxed clashes: {before[:, 0].mean():.2f} +/- "
        f"{before[:, 0].std():.2f} (max {before[:, 0].max()}) "
        f"[0.22 +/- 1.09, max 8]",
        f"unrelaxed bumps  : {before[:, 1].mean():.2f} +/- "
        f"{before[:, 1].std():.2f} (max {before[:, 1].max()}) "
        f"[3.76 +/- 12.74, max 148]",
        f"relaxed clashes  : {after[:, 0].mean():.2f} (max "
        f"{after[:, 0].max()}) [0.00]",
        f"relaxed bumps    : {after[:, 1].mean():.2f} +/- "
        f"{after[:, 1].std():.2f} (max {after[:, 1].max()}) "
        f"[2.1-2.7 depending on method]",
    ]
    save_result("violation_reduction", "\n".join(lines))

    assert n_models == 160
    # Clashes: present before (in some models), completely removed after.
    assert before[:, 0].max() > 0
    assert after[:, 0].max() == 0
    # Bumps: reduced on average but not eliminated.
    assert after[:, 1].mean() < before[:, 1].mean()
    assert after[:, 1].sum() > 0
    # Violations are rare-model-dominated, as the paper's stds show
    # (std comparable to or exceeding the mean).
    assert before[:, 1].std() > 0.75 * before[:, 1].mean()
    # Levels in the paper's neighbourhood.
    assert before[:, 0].mean() < 2.0
    assert before[:, 0].max() <= 15
    assert 1.0 <= after[:, 1].mean() <= 6.0
