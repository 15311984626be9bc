"""Frozen reference CART: the per-feature split search and linked-node trees.

This is the tree implementation that ``repro.ml.tree`` replaced with a
batched split search and flat pre-order node arrays.  The tests compare
the two bit for bit; nothing in the package imports this module.
Classes mirror the package's: ``ReferenceTreeClassifier`` and
``ReferenceTreeRegressor`` are the old ``DecisionTree*`` estimators, and
``ReferenceForestClassifier``/``ReferenceForestRegressor`` fit the
package's forests with them, the way the old forest did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_X,
    check_X_y,
)
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor


@dataclass
class Node:
    """A tree node; leaves carry a prediction payload, splits carry children."""

    prediction: np.ndarray | float | None = None
    feature: int = -1
    threshold: float = 0.0
    left: "Node | None" = None
    right: "Node | None" = None
    gain: float = 0.0  # impurity decrease achieved by this split
    n_samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def best_split_classification(
    X: np.ndarray,
    codes: np.ndarray,
    n_classes: int,
    features: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float]:
    """Return (feature, threshold, gini_gain); feature == -1 when no split."""
    n = codes.shape[0]
    counts_total = np.bincount(codes, minlength=n_classes).astype(np.float64)
    gini_parent = 1.0 - np.sum((counts_total / n) ** 2)
    best = (-1, 0.0, 0.0)
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), codes] = 1.0
    for j in features:
        order = np.argsort(X[:, j], kind="mergesort")
        values = X[order, j]
        if values[0] == values[-1]:
            continue
        prefix = np.cumsum(onehot[order], axis=0)
        left_n = np.arange(1, n, dtype=np.float64)
        boundaries = values[:-1] < values[1:]
        left_counts = prefix[:-1]
        right_counts = counts_total - left_counts
        right_n = n - left_n
        with np.errstate(divide="ignore", invalid="ignore"):
            gini_left = 1.0 - np.sum((left_counts / left_n[:, None]) ** 2, axis=1)
            gini_right = 1.0 - np.sum((right_counts / right_n[:, None]) ** 2, axis=1)
        weighted = (left_n * gini_left + right_n * gini_right) / n
        gains = gini_parent - weighted
        valid = (
            boundaries
            & (left_n >= min_samples_leaf)
            & (right_n >= min_samples_leaf)
        )
        if not valid.any():
            continue
        gains = np.where(valid, gains, -np.inf)
        k = int(np.argmax(gains))
        if gains[k] > best[2]:
            threshold = 0.5 * (values[k] + values[k + 1])
            best = (int(j), float(threshold), float(gains[k]))
    return best


def best_split_regression(
    X: np.ndarray,
    y: np.ndarray,
    features: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float]:
    n = y.shape[0]
    total_sum = float(y.sum())
    total_sq = float((y**2).sum())
    var_parent = total_sq / n - (total_sum / n) ** 2
    best = (-1, 0.0, 0.0)
    for j in features:
        order = np.argsort(X[:, j], kind="mergesort")
        values = X[order, j]
        if values[0] == values[-1]:
            continue
        y_sorted = y[order]
        prefix_sum = np.cumsum(y_sorted)[:-1]
        prefix_sq = np.cumsum(y_sorted**2)[:-1]
        left_n = np.arange(1, n, dtype=np.float64)
        right_n = n - left_n
        boundaries = values[:-1] < values[1:]
        var_left = prefix_sq / left_n - (prefix_sum / left_n) ** 2
        right_sum = total_sum - prefix_sum
        right_sq = total_sq - prefix_sq
        var_right = right_sq / right_n - (right_sum / right_n) ** 2
        weighted = (left_n * var_left + right_n * var_right) / n
        gains = var_parent - weighted
        valid = (
            boundaries
            & (left_n >= min_samples_leaf)
            & (right_n >= min_samples_leaf)
        )
        if not valid.any():
            continue
        gains = np.where(valid, gains, -np.inf)
        k = int(np.argmax(gains))
        if gains[k] > best[2]:
            threshold = 0.5 * (values[k] + values[k + 1])
            best = (int(j), float(threshold), float(gains[k]))
    return best


class _ReferenceTree(BaseEstimator):
    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def _feature_pool(self, n_features: int, rng: np.random.Generator) -> np.ndarray:
        if self.max_features is None:
            return np.arange(n_features)
        if self.max_features == "sqrt":
            k = max(1, int(np.sqrt(n_features)))
        elif self.max_features == "log2":
            k = max(1, int(np.log2(n_features)))
        elif isinstance(self.max_features, float):
            k = max(1, int(self.max_features * n_features))
        else:
            k = max(1, min(int(self.max_features), n_features))
        return rng.choice(n_features, size=k, replace=False)

    def _predict_row(self, node: Node, row: np.ndarray) -> Any:
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.prediction

    @property
    def depth_(self) -> int:
        self._check_fitted("root_")

        def walk(node: Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root_)

    @property
    def n_leaves_(self) -> int:
        self._check_fitted("root_")

        def walk(node: Node) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root_)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-decrease importances, normalized to sum to 1."""
        self._check_fitted("root_")
        self._check_fitted("n_features_")
        importances = np.zeros(self.n_features_, dtype=np.float64)
        total = max(1, self.root_.n_samples)

        def walk(node: Node) -> None:
            if node.is_leaf:
                return
            importances[node.feature] += node.gain * node.n_samples / total
            walk(node.left)
            walk(node.right)

        walk(self.root_)
        norm = importances.sum()
        return importances / norm if norm > 0 else importances


class ReferenceTreeClassifier(_ReferenceTree, ClassifierMixin):
    """Gini-based CART classifier; leaves store class-probability vectors."""

    def fit(self, X: Any, y: Any, sample_indices: np.ndarray | None = None) -> "ReferenceTreeClassifier":
        X, y = check_X_y(X, y)
        self.classes_ = sorted(set(y.tolist()), key=str)
        index = {label: i for i, label in enumerate(self.classes_)}
        codes = np.asarray([index[v] for v in y], dtype=np.int64)
        if sample_indices is not None:
            X, codes = X[sample_indices], codes[sample_indices]
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        self.root_ = self._build(X, codes, depth=0, rng=rng)
        return self

    def _build(self, X: np.ndarray, codes: np.ndarray, depth: int, rng: np.random.Generator) -> Node:
        n_classes = len(self.classes_)
        counts = np.bincount(codes, minlength=n_classes).astype(np.float64)
        proba = counts / counts.sum()
        node = Node(prediction=proba, n_samples=codes.shape[0])
        if (
            codes.shape[0] < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.count_nonzero(counts) <= 1
        ):
            return node
        features = self._feature_pool(X.shape[1], rng)
        feature, threshold, gain = best_split_classification(
            X, codes, n_classes, features, self.min_samples_leaf
        )
        if feature < 0 or gain <= 0.0:
            return node
        mask = X[:, feature] <= threshold
        node.feature, node.threshold, node.gain = feature, threshold, gain
        node.left = self._build(X[mask], codes[mask], depth + 1, rng)
        node.right = self._build(X[~mask], codes[~mask], depth + 1, rng)
        return node

    def predict_proba(self, X: Any) -> np.ndarray:
        self._check_fitted("root_")
        X = check_X(X)
        return np.vstack([self._predict_row(self.root_, row) for row in X])

    def predict(self, X: Any) -> np.ndarray:
        proba = self.predict_proba(X)
        picks = np.argmax(proba, axis=1)
        return np.asarray([self.classes_[p] for p in picks], dtype=object)


class ReferenceTreeRegressor(_ReferenceTree, RegressorMixin):
    """Variance-reduction CART regressor; leaves store means."""

    def fit(self, X: Any, y: Any, sample_indices: np.ndarray | None = None) -> "ReferenceTreeRegressor":
        X, y = check_X_y(X, y)
        y = y.astype(np.float64)
        if sample_indices is not None:
            X, y = X[sample_indices], y[sample_indices]
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        self.root_ = self._build(X, y, depth=0, rng=rng)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator) -> Node:
        node = Node(prediction=float(y.mean()), n_samples=y.shape[0])
        if (
            y.shape[0] < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.all(y == y[0])
        ):
            return node
        features = self._feature_pool(X.shape[1], rng)
        feature, threshold, gain = best_split_regression(
            X, y, features, self.min_samples_leaf
        )
        if feature < 0 or gain <= 0.0:
            return node
        mask = X[:, feature] <= threshold
        node.feature, node.threshold, node.gain = feature, threshold, gain
        node.left = self._build(X[mask], y[mask], depth + 1, rng)
        node.right = self._build(X[~mask], y[~mask], depth + 1, rng)
        return node

    def predict(self, X: Any) -> np.ndarray:
        self._check_fitted("root_")
        X = check_X(X)
        return np.asarray(
            [self._predict_row(self.root_, row) for row in X], dtype=np.float64
        )


class ReferenceForestClassifier(RandomForestClassifier):
    def fit(self, X: Any, y: Any) -> "ReferenceForestClassifier":
        X, y = check_X_y(X, y)
        self.classes_ = sorted(set(y.tolist()), key=str)
        rng = np.random.default_rng(self.random_state)
        self.estimators_ = []
        for t in range(self.n_estimators):
            tree = ReferenceTreeClassifier(**self._tree_params(self.random_state + t))
            tree.classes_ = self.classes_
            index = {label: i for i, label in enumerate(self.classes_)}
            codes = np.asarray([index[v] for v in y], dtype=np.int64)
            idx = self._sample(X.shape[0], rng)
            tree.n_features_ = X.shape[1]
            tree.root_ = tree._build(
                X[idx], codes[idx], depth=0, rng=np.random.default_rng(self.random_state + t)
            )
            self.estimators_.append(tree)
        return self


class ReferenceForestRegressor(RandomForestRegressor):
    def fit(self, X: Any, y: Any) -> "ReferenceForestRegressor":
        X, y = check_X_y(X, y)
        y = y.astype(np.float64)
        rng = np.random.default_rng(self.random_state)
        self.estimators_ = []
        for t in range(self.n_estimators):
            tree = ReferenceTreeRegressor(**self._tree_params(self.random_state + t))
            idx = self._sample(X.shape[0], rng)
            tree.n_features_ = X.shape[1]
            tree.root_ = tree._build(
                X[idx], y[idx], depth=0, rng=np.random.default_rng(self.random_state + t)
            )
            self.estimators_.append(tree)
        return self


def node_arrays(root: Node) -> dict[str, np.ndarray]:
    """The linked tree as the package's pre-order node arrays."""
    rows: list[list[Any]] = []

    def walk(node: Node) -> int:
        index = len(rows)
        row = [-1, 0.0, -1, -1, node.prediction, 0.0, node.n_samples]
        rows.append(row)
        if not node.is_leaf:
            row[0], row[1], row[5] = node.feature, node.threshold, node.gain
            row[2] = walk(node.left)
            row[3] = walk(node.right)
        return index

    walk(root)
    columns = zip(*rows)
    names = ("feature_", "threshold_", "left_", "right_", "value_", "gain_", "n_node_samples_")
    dtypes = (np.intp, np.float64, np.intp, np.intp, np.float64, np.float64, np.intp)
    return {
        name: np.asarray(column, dtype=dtype)
        for name, column, dtype in zip(names, columns, dtypes)
    }
