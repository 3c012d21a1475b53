"""Tests for the CV-split / feature-matrix caches in ``repro.parallel.cache``."""

import numpy as np
import pytest

from repro.ml.model_selection import KFold
from repro.parallel.cache import (
    array_token,
    cache_stats,
    candidate_eval_get,
    candidate_eval_put,
    clear_caches,
    cv_splits,
    feature_moments,
    feature_presort,
    splits_token,
)
from repro.parallel.store import MemoStore


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture()
def X():
    rng = np.random.default_rng(3)
    return rng.uniform(0.0, 10.0, size=(60, 4))


class TestCvSplitCache:
    def test_cache_hit_returns_identical_arrays(self, X):
        first = cv_splits(X, cv=3)
        second = cv_splits(X, cv=3)
        assert len(first) == len(second) == 3
        for (tr1, te1), (tr2, te2) in zip(first, second):
            assert tr1 is tr2 and te1 is te2
        assert cache_stats()["cv_splits"]["hits"] == 1

    def test_keyed_on_dataset_content(self, X):
        cv_splits(X, cv=3)
        cv_splits(X + 1.0, cv=3)
        assert cache_stats()["cv_splits"]["misses"] == 2

    def test_keyed_on_cv_config(self, X):
        cv_splits(X, cv=3)
        cv_splits(X, cv=4)
        cv_splits(X, cv=KFold(n_splits=3, shuffle=True, random_state=0))
        cv_splits(X, cv=KFold(n_splits=3, shuffle=True, random_state=1))
        stats = cache_stats()["cv_splits"]
        assert stats["misses"] == 4 and stats["hits"] == 0

    def test_seeded_shuffle_split_is_reproduced(self, X):
        a = cv_splits(X, cv=KFold(n_splits=4, shuffle=True, random_state=42))
        b = cv_splits(X, cv=KFold(n_splits=4, shuffle=True, random_state=42))
        for (tr1, te1), (tr2, te2) in zip(a, b):
            assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)
        assert cache_stats()["cv_splits"]["hits"] == 1

    def test_mutation_cannot_poison_the_cache(self, X):
        splits = cv_splits(X, cv=3)
        train0 = splits[0][0]
        with pytest.raises(ValueError):
            train0[0] = 999
        # A mutable copy works and later hits still return the pristine data.
        mutable = train0.copy()
        mutable[0] = 999
        again = cv_splits(X, cv=3)
        assert again[0][0][0] != 999
        assert np.array_equal(again[0][0], train0)

    def test_generator_random_state_bypasses_cache(self, X):
        gen_cv = KFold(n_splits=3, shuffle=True, random_state=np.random.default_rng(0))
        cv_splits(X, cv=gen_cv)
        stats = cache_stats()["cv_splits"]
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_splits_cover_all_samples(self, X):
        splits = cv_splits(X, cv=5)
        test_all = np.sort(np.concatenate([te for _, te in splits]))
        assert np.array_equal(test_all, np.arange(len(X)))


class TestFeatureCaches:
    def test_moments_match_manual(self, X):
        mean, scale = feature_moments(X)
        assert np.array_equal(mean, X.mean(axis=0))
        assert np.array_equal(scale, X.std(axis=0))
        mean2, scale2 = feature_moments(X.copy())  # same content, new object
        assert mean is mean2 and scale is scale2

    def test_moments_zero_variance_clamped(self):
        X = np.ones((10, 2))
        _, scale = feature_moments(X)
        assert np.array_equal(scale, np.ones(2))

    def test_moments_read_only(self, X):
        mean, _ = feature_moments(X)
        with pytest.raises(ValueError):
            mean[0] = 123.0

    def test_presort_matches_argsort_and_is_shared(self, X):
        presort = feature_presort(X)
        assert np.array_equal(presort, np.argsort(X, axis=0, kind="stable"))
        assert feature_presort(X.copy()) is presort
        with pytest.raises(ValueError):
            presort[0, 0] = -1

    def test_array_token_distinguishes_dtype_and_shape(self):
        a = np.arange(6, dtype=np.float64)
        assert array_token(a) != array_token(a.astype(np.float32))
        assert array_token(a.reshape(2, 3)) != array_token(a.reshape(3, 2))


class TestCandidateCache:
    def test_round_trip_and_stats(self, X):
        key = ("Model", (("alpha", 1.0),), array_token(X), "r2")
        assert candidate_eval_get(key) is None
        candidate_eval_put(key, (0.5, 0.1, 0.01))
        assert candidate_eval_get(key) == (0.5, 0.1, 0.01)
        stats = cache_stats()["candidate_eval"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_splits_token_depends_on_indices(self, X):
        a = splits_token(cv_splits(X, cv=3))
        clear_caches()
        b = splits_token(cv_splits(X, cv=3))
        c = splits_token(cv_splits(X, cv=4))
        assert a == b
        assert a != c


class TestStoreBackedCandidateCache:
    """The candidate memo reads/writes through the cross-process store."""

    @pytest.fixture(autouse=True)
    def _store(self, tmp_path):
        from repro.parallel.store import configure_store

        self.store = configure_store(tmp_path / "memo")
        clear_caches()
        yield
        configure_store(None)
        clear_caches()

    def test_put_writes_through_and_get_reads_through(self, X):
        from repro.parallel.cache import _CANDIDATE_CACHE

        key = ("Model", (("alpha", 1.0),), array_token(X), "r2")
        candidate_eval_put(key, (0.5, 0.1))
        assert self.store.stats()["puts"] == 1
        # Drop only the in-process LRU: the next get must fall through to
        # the store and repopulate the LRU.
        _CANDIDATE_CACHE.clear()
        assert candidate_eval_get(key) == (0.5, 0.1)
        assert self.store.stats()["hits"] == 1
        # Second get is served from the repopulated LRU, not the store.
        assert candidate_eval_get(key) == (0.5, 0.1)
        assert self.store.stats()["hits"] == 1

    def test_cache_stats_reports_store_counters(self, X):
        key = ("Model", (("alpha", 2.0),), array_token(X), "r2")
        assert candidate_eval_get(key) is None  # LRU miss + store miss
        candidate_eval_put(key, (0.25, 0.05))
        stats = cache_stats()
        assert stats["memo_store"]["misses"] == 1
        assert stats["memo_store"]["puts"] == 1
        assert stats["memo_store"]["objects"] == 1

    def test_clear_caches_resets_store_counters_but_keeps_objects(self, X):
        key = ("Model", (("alpha", 3.0),), array_token(X), "r2")
        candidate_eval_put(key, (0.75, 0.01))
        clear_caches()
        stats = cache_stats()["memo_store"]
        assert stats["hits"] == stats["misses"] == stats["puts"] == 0
        assert stats["objects"] == 1  # persistence survives a cache clear
        assert candidate_eval_get(key) == (0.75, 0.01)

    def test_multiprocess_counters_aggregate_coherently(self, X):
        """Parent-process LRU counters alone undercount pool runs; the
        store's per-process snapshots restore a coherent total."""
        from repro.ml.search import GridSearchCV
        from repro.ml.tree import DecisionTreeRegressor
        from repro.parallel.store import fit_count

        rng = np.random.default_rng(0)
        y = X @ np.asarray([1.0, -1.0, 0.5, 2.0]) + rng.normal(0.0, 0.1, len(X))
        grid = {"max_depth": [2, 3], "min_samples_leaf": [1, 2]}
        search = GridSearchCV(
            DecisionTreeRegressor(random_state=0), grid, cv=3, n_jobs=2
        )
        search.fit(X, y)

        agg = self.store.aggregated_stats()
        # 4 candidates x 3 folds in workers, plus the parent's refit.
        assert agg["fits"] == 4 * 3 + 1
        assert agg["store"]["puts"] == 4
        assert agg["caches"]["candidate_eval"]["misses"] >= 4
        # The candidate evaluations all ran in pool workers, so the parent's
        # own counters see none of them — the aggregate is the fix.
        assert fit_count() == 1  # parent recorded only the refit
        assert cache_stats()["candidate_eval"]["misses"] == 0
        # Another store object on the same directory — another run sharing
        # the store — resetting its stats leaves this run's counts alone.
        MemoStore(self.store.location).reset_stats()
        assert self.store.aggregated_stats()["fits"] == 4 * 3 + 1
        # Counters never touch the store directory.
        assert [p.name for p in self.store.root.iterdir()] == ["objects"]

    def test_multiprocess_counters_survive_another_clients_reset(self, X, tmp_path):
        """The same over ``memo://``: another client's ``reset_stats()``
        touches nothing on the server that this run's counts depend on."""
        from repro.ml.search import GridSearchCV
        from repro.ml.tree import DecisionTreeRegressor
        from repro.parallel.service import MemoServer, RemoteMemoStore
        from repro.parallel.store import configure_store

        rng = np.random.default_rng(0)
        y = X @ np.asarray([1.0, -1.0, 0.5, 2.0]) + rng.normal(0.0, 0.1, len(X))
        grid = {"max_depth": [2, 3], "min_samples_leaf": [1, 2]}
        with MemoServer(tmp_path / "served") as server:
            store = configure_store(server.url)
            clear_caches()
            GridSearchCV(
                DecisionTreeRegressor(random_state=0), grid, cv=3, n_jobs=2
            ).fit(X, y)
            other = RemoteMemoStore(server.url)
            try:
                other.reset_stats()
            finally:
                other.close()
            agg = store.aggregated_stats()
        assert agg["fits"] == 4 * 3 + 1
        assert agg["store"]["puts"] == 4
