"""Shared fixtures: small synthetic regression problems and reduced-size
CCSD datasets so the whole suite runs in a couple of minutes.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.data.datasets import CCSDDataset, build_dataset
from repro.simulator.dataset_gen import SweepConfig

#: Set to any string to run the collected tests in a seeded random order
#: (the order-dependence soak); unset keeps the collection order.
SHUFFLE_SEED_ENV = "REPRO_TEST_SHUFFLE_SEED"


def pytest_report_header(config):
    seed = os.environ.get(SHUFFLE_SEED_ENV, "").strip()
    if seed:
        return f"test order shuffled: {SHUFFLE_SEED_ENV}={seed}"
    return None


def pytest_collection_modifyitems(session, config, items):
    seed = os.environ.get(SHUFFLE_SEED_ENV, "").strip()
    if seed:
        random.Random(seed).shuffle(items)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def session_memo_dir(request, tmp_path_factory):
    """A memo-store directory that outlives the pytest session.

    Lives in pytest's own cache (``.pytest_cache``), so warm reruns of
    expensive content-keyed work — the real hyper-parameter searches behind
    ``tests/core/test_hyperopt.py`` — skip straight to the stored results.
    Memo keys embed the full experimental content (grids, cv, seed, data
    bytes), so config edits invalidate naturally; ``pytest --cache-clear``
    forces a cold run, and CI keys its cache of this directory on the
    source tree so code changes never serve stale fits.  Without the cache
    plugin (``-p no:cacheprovider``) it is a per-session temporary
    directory, so every run is cold.
    """
    cache = getattr(request.config, "cache", None)
    if cache is None:
        return tmp_path_factory.mktemp("repro-memo-store")
    return cache.mkdir("repro-memo-store")


@pytest.fixture(scope="session")
def linear_data():
    """Linear data with mild noise: easy for every model."""
    rng = np.random.default_rng(0)
    X = rng.uniform(-2.0, 2.0, size=(200, 3))
    coef = np.array([1.5, -2.0, 0.5])
    y = X @ coef + 3.0 + rng.normal(0.0, 0.05, size=200)
    return X, y, coef


@pytest.fixture(scope="session")
def nonlinear_data():
    """Smooth non-linear data used to compare model families."""
    rng = np.random.default_rng(1)
    X = rng.uniform(0.0, 3.0, size=(300, 4))
    y = (
        2.0 * X[:, 0] ** 2
        + np.sin(2.0 * X[:, 1])
        + X[:, 2] * X[:, 3]
        + rng.normal(0.0, 0.1, size=300)
    )
    return X, y


@pytest.fixture(scope="session")
def small_sweep_config() -> SweepConfig:
    """A tiny sweep (3 problem sizes, coarse grids) for fast dataset tests."""
    return SweepConfig(
        machine="aurora",
        problems=[(44, 260), (99, 718), (134, 951)],
        tile_grid=[40, 50, 60, 80, 100, 120, 140],
        node_grid=[5, 10, 20, 30, 40, 60, 80, 120, 160, 240, 320],
        seed=7,
    )


@pytest.fixture(scope="session")
def small_aurora_dataset(small_sweep_config) -> CCSDDataset:
    """A reduced Aurora-like dataset (~100 rows) for model/advisor tests."""
    return build_dataset("aurora", seed=7, config=small_sweep_config)


@pytest.fixture(scope="session")
def fast_estimator_aurora(small_aurora_dataset):
    """One fast-preset GB fit on the small Aurora train split.

    Shared (read-only) by every test that just needs *a* fitted estimator:
    ``ResourceEstimator(preset="fast").fit(X_train, y_train)`` is a pure
    function of the dataset, so refitting it per test file only burns time.
    Tests that exercise the fitting path itself still fit their own.
    """
    from repro.core.estimator import ResourceEstimator

    return ResourceEstimator(preset="fast").fit(
        small_aurora_dataset.X_train, small_aurora_dataset.y_train
    )


@pytest.fixture(scope="session")
def fast_advisor_aurora(small_aurora_dataset):
    """One fast-preset advisor over the small Aurora dataset (read-only)."""
    from repro.core.advisor import ResourceAdvisor

    return ResourceAdvisor.from_dataset(small_aurora_dataset, preset="fast")


@pytest.fixture(scope="session")
def small_frontier_dataset() -> CCSDDataset:
    config = SweepConfig(
        machine="frontier",
        problems=[(49, 663), (116, 840), (134, 1200)],
        tile_grid=[40, 50, 60, 80, 100, 120, 140],
        node_grid=[10, 20, 30, 40, 60, 80, 120, 160, 240, 320],
        seed=11,
    )
    return build_dataset("frontier", seed=11, config=config)
