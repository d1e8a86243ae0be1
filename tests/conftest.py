"""Shared fixtures: one small consistent universe/proteome/suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.fold import NativeFactory, generator
from repro.msa import build_suite
from repro.sequences import SequenceUniverse, synthetic_proteome

#: Scale used for the shared fixtures: keeps the suite small enough for
#: unit tests while exercising real search/predict paths.
FIXTURE_SCALE = 0.02


@pytest.fixture(scope="session")
def universe() -> SequenceUniverse:
    return SequenceUniverse(seed=7)


@pytest.fixture(scope="session")
def proteome(universe):
    return synthetic_proteome(
        "D_vulgaris", universe=universe, seed=7, scale=FIXTURE_SCALE
    )


@pytest.fixture(scope="session")
def suite(universe):
    return build_suite(universe, ["D_vulgaris"], seed=7, scale=FIXTURE_SCALE)


@pytest.fixture(scope="session")
def factory(universe) -> NativeFactory:
    return NativeFactory(universe)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def compact_calls(monkeypatch) -> list[str]:
    """Log of ``compact_chain`` calls as :class:`NativeFactory` makes them.

    A family fold collapses with the factory's ``compaction_steps``
    (``None`` on a default factory); a member re-settle always asks for
    40 steps — so the log separates the two kinds of build.
    """
    real, calls, lock = generator.compact_chain, [], threading.Lock()

    def wrapped(chain, rng, n_steps=None):
        with lock:
            calls.append("resettle" if n_steps == 40 else "fold")
        return real(chain, rng, n_steps=n_steps)

    monkeypatch.setattr(generator, "compact_chain", wrapped)
    return calls
