"""The batched split search and flat-array trees against references.

Two oracles: the frozen per-feature splitter and linked-node trees in
``tests/tree_reference.py`` (every node array, importance and prediction
must be bitwise equal), and an exhaustive split search written from the
Gini and variance definitions (the chosen cut must reach its maximum).
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ml.boosting as boosting
import repro.ml.tree as tree_module
from repro.ml.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    _best_split_classification,
    _best_split_regression,
)
from tests.tree_reference import (
    ReferenceForestClassifier,
    ReferenceForestRegressor,
    ReferenceTreeClassifier,
    ReferenceTreeRegressor,
    node_arrays,
)

MAX_FEATURES = st.sampled_from([None, "sqrt", "log2", 1, 2, 0.5, 1.0])
TREE_PARAMS = st.fixed_dictionaries({
    "max_depth": st.sampled_from([None, 1, 3, 6]),
    "min_samples_split": st.sampled_from([2, 3, 6]),
    "min_samples_leaf": st.sampled_from([1, 2, 5]),
    "max_features": MAX_FEATURES,
    "random_state": st.integers(0, 2**16),
})


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), (got, want)


def assert_same_tree(tree, reference) -> None:
    for name, want in node_arrays(reference.root_).items():
        assert_bitwise(getattr(tree, name), want)
    assert_bitwise(tree.feature_importances_, reference.feature_importances_)
    assert tree.depth_ == reference.depth_
    assert tree.n_leaves_ == reference.n_leaves_


@st.composite
def matrices(draw, max_rows: int = 60, max_features: int = 6):
    """(X, X_test, rng): tie-heavy integer columns, continuous columns or both,
    sometimes with a constant column."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, max_rows))
    n_features = draw(st.integers(1, max_features))
    kind = draw(st.sampled_from(["ties", "continuous", "mixed"]))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    if kind != "continuous":
        tied = rng.integers(0, 4, size=(n, n_features)).astype(np.float64)
        columns = rng.random(n_features) < 0.5 if kind == "mixed" else slice(None)
        X[:, columns] = tied[:, columns]
    if draw(st.booleans()):
        X[:, rng.integers(n_features)] = 1.5
    unseen = [rng.normal(size=(7, n_features)), rng.integers(0, 4, size=(5, n_features))]
    X_test = np.vstack([X, *unseen])
    return X, X_test, rng


def _labels(rng: np.random.Generator, n: int, n_classes: int) -> np.ndarray:
    return np.asarray([f"c{v}" for v in rng.integers(0, n_classes, size=n)], dtype=object)


def _targets(rng: np.random.Generator, n: int, tied: bool) -> np.ndarray:
    return rng.integers(-2, 3, size=n).astype(np.float64) if tied else rng.normal(size=n)


SAMPLES = st.sampled_from(["all", "bootstrap", "mask"])


def _sample(rng: np.random.Generator, n: int, kind: str) -> np.ndarray | None:
    """``sample_indices`` for a tree fit: none, a bootstrap draw or a row mask."""
    if kind == "bootstrap":
        return rng.integers(0, n, size=n)
    if kind == "mask":
        mask = rng.random(n) < 0.7
        mask[0] = True
        return mask
    return None


# Scoring-block sizes: one column per block, a few columns, and the default
# (one block for every node these tests build).
BLOCKS = st.sampled_from([1, 64, tree_module._BLOCK_ELEMENTS])


class TestTreesMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(matrices(), TREE_PARAMS, st.integers(2, 17), SAMPLES, BLOCKS)
    def test_classifier(self, data, params, n_classes, sample, block):
        X, X_test, rng = data
        y = _labels(rng, X.shape[0], n_classes)
        rows = _sample(rng, X.shape[0], sample)
        with mock.patch.object(tree_module, "_BLOCK_ELEMENTS", block):
            tree = DecisionTreeClassifier(**params).fit(X, y, sample_indices=rows)
        reference = ReferenceTreeClassifier(**params).fit(X, y, sample_indices=rows)
        assert_same_tree(tree, reference)
        assert_bitwise(tree.predict_proba(X_test), reference.predict_proba(X_test))
        assert_bitwise(tree.predict(X_test), reference.predict(X_test))

    @settings(max_examples=150, deadline=None)
    @given(matrices(), TREE_PARAMS, st.booleans(), SAMPLES, BLOCKS)
    def test_regressor(self, data, params, tied, sample, block):
        X, X_test, rng = data
        y = _targets(rng, X.shape[0], tied)
        rows = _sample(rng, X.shape[0], sample)
        with mock.patch.object(tree_module, "_BLOCK_ELEMENTS", block):
            tree = DecisionTreeRegressor(**params).fit(X, y, sample_indices=rows)
        reference = ReferenceTreeRegressor(**params).fit(X, y, sample_indices=rows)
        assert_same_tree(tree, reference)
        assert_bitwise(tree.predict(X_test), reference.predict(X_test))


FOREST_PARAMS = st.fixed_dictionaries({
    "n_estimators": st.integers(1, 4),
    "max_depth": st.sampled_from([None, 2, 5]),
    "min_samples_leaf": st.sampled_from([1, 2, 5]),
    "max_features": MAX_FEATURES,
    "bootstrap": st.booleans(),
    "random_state": st.integers(0, 2**16),
})


class TestEnsemblesMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(matrices(), FOREST_PARAMS, st.integers(2, 17))
    def test_forest_classifier(self, data, params, n_classes):
        X, X_test, rng = data
        y = _labels(rng, X.shape[0], n_classes)
        forest = RandomForestClassifier(**params).fit(X, y)
        reference = ReferenceForestClassifier(**params).fit(X, y)
        for tree, ref_tree in zip(forest.estimators_, reference.estimators_, strict=True):
            assert_same_tree(tree, ref_tree)
        assert_bitwise(forest.feature_importances_, reference.feature_importances_)
        assert_bitwise(forest.predict_proba(X_test), reference.predict_proba(X_test))
        assert_bitwise(forest.predict(X_test), reference.predict(X_test))

    @settings(max_examples=60, deadline=None)
    @given(matrices(), FOREST_PARAMS, st.booleans())
    def test_forest_regressor(self, data, params, tied):
        X, X_test, rng = data
        y = _targets(rng, X.shape[0], tied)
        forest = RandomForestRegressor(**params).fit(X, y)
        reference = ReferenceForestRegressor(**params).fit(X, y)
        for tree, ref_tree in zip(forest.estimators_, reference.estimators_, strict=True):
            assert_same_tree(tree, ref_tree)
        assert_bitwise(forest.feature_importances_, reference.feature_importances_)
        assert_bitwise(forest.predict(X_test), reference.predict(X_test))

    @settings(max_examples=40, deadline=None)
    @given(matrices(max_rows=40), st.integers(2, 10), st.sampled_from([1, 2, 3]))
    def test_boosting_classifier(self, data, n_classes, max_depth):
        X, X_test, rng = data
        y = _labels(rng, X.shape[0], n_classes)
        params = {"n_estimators": 4, "max_depth": max_depth, "random_state": 3}
        model = GradientBoostingClassifier(**params).fit(X, y)
        with mock.patch.object(boosting, "DecisionTreeRegressor", ReferenceTreeRegressor):
            reference = GradientBoostingClassifier(**params).fit(X, y)
        for trees, ref_trees in zip(model.estimators_, reference.estimators_, strict=True):
            for tree, ref_tree in zip(trees, ref_trees, strict=True):
                assert_same_tree(tree, ref_tree)
        assert_bitwise(model.predict_proba(X_test), reference.predict_proba(X_test))
        assert_bitwise(model.predict(X_test), reference.predict(X_test))

    @settings(max_examples=40, deadline=None)
    @given(matrices(max_rows=40), st.booleans(), st.sampled_from([1.0, 0.6]))
    def test_boosting_regressor(self, data, tied, subsample):
        X, X_test, rng = data
        y = _targets(rng, X.shape[0], tied)
        params = {"n_estimators": 8, "max_depth": 3, "subsample": subsample, "random_state": 5}
        model = GradientBoostingRegressor(**params).fit(X, y)
        with mock.patch.object(boosting, "DecisionTreeRegressor", ReferenceTreeRegressor):
            reference = GradientBoostingRegressor(**params).fit(X, y)
        for tree, ref_tree in zip(model.estimators_, reference.estimators_, strict=True):
            assert_same_tree(tree, ref_tree)
        assert_bitwise(model.predict(X_test), reference.predict(X_test))


# -- exhaustive split search from the definitions ---------------------------------


def _gini(labels: list[int]) -> float:
    n = len(labels)
    return 1.0 - sum((count / n) ** 2 for count in Counter(labels).values())


def _variance(values: list[float]) -> float:
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


def _cuts(X: np.ndarray, min_samples_leaf: int):
    """The left-side row mask of every cut between adjacent distinct values of
    a feature that leaves at least min_samples_leaf rows on each side."""
    for j in range(X.shape[1]):
        distinct = sorted(set(X[:, j].tolist()))
        for low in distinct[:-1]:
            left = X[:, j] <= low
            if min(left.sum(), (~left).sum()) >= min_samples_leaf:
                yield left


def _check_against_exhaustive(X, target, impurity, split, min_samples_leaf):
    n = target.shape[0]

    def gain(left: np.ndarray) -> float:
        sides = (target[left].tolist(), target[~left].tolist())
        return impurity(target.tolist()) - sum(len(s) * impurity(s) for s in sides) / n

    best = max((gain(left) for left in _cuts(X, min_samples_leaf)), default=None)
    column, threshold, chosen = split
    if column < 0:
        assert best is None or best <= 1e-12
        return
    left = X[:, column] <= threshold
    assert min(left.sum(), (~left).sum()) >= min_samples_leaf
    assert abs(chosen - best) <= 1e-12
    assert abs(gain(left) - chosen) <= 1e-12


TINY = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(1, 3), st.sampled_from([1, 2, 3])
)


class TestSplitMatchesExhaustiveSearch:
    @settings(max_examples=150, deadline=None)
    @given(TINY, st.integers(2, 4), BLOCKS)
    def test_gini(self, case, n_classes, block):
        seed, n, n_features, min_samples_leaf = case
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, size=(n, n_features)) * 0.5
        codes = rng.integers(0, n_classes, size=n)
        with mock.patch.object(tree_module, "_BLOCK_ELEMENTS", block):
            split = _best_split_classification(X, codes, n_classes, min_samples_leaf)
        _check_against_exhaustive(X, codes, _gini, split, min_samples_leaf)

    @settings(max_examples=150, deadline=None)
    @given(TINY, BLOCKS)
    def test_variance(self, case, block):
        seed, n, n_features, min_samples_leaf = case
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, size=(n, n_features)) * 0.5
        y = rng.integers(-4, 5, size=n) * 0.75
        with mock.patch.object(tree_module, "_BLOCK_ELEMENTS", block):
            split = _best_split_regression(X, y, min_samples_leaf)
        _check_against_exhaustive(X, y, _variance, split, min_samples_leaf)
