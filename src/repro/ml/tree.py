"""CART decision trees (classification via Gini, regression via variance).

Split search is batched per node: the candidate feature columns are sorted
together in one stable ``argsort``, and the gain of every threshold of
every candidate comes from prefix sums over the sorted rows, so a node
costs a fixed number of numpy calls however many candidates it has (very
wide nodes are scored in column blocks that bound the scratch memory).
Time per node is O(k·n·log n) for the sort plus O(k·n·C) for the scores,
for n rows, k candidate features and C classes (C = 1 for regression).
A fitted tree is a set of flat pre-order node arrays; prediction descends
all rows together, one tree level per step.  Trees support feature
subsampling so the forest module can reuse them directly.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Callable

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_X,
    check_X_y,
)

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor"]

_NO_SPLIT = (-1, 0.0, 0.0)
# Elements per scoring temporary (1 MiB of float64).  Wider nodes are scored
# in column blocks, which keeps a node's scratch memory at a few MiB.
_BLOCK_ELEMENTS = 1 << 17


def _pick_split(
    gains: np.ndarray, values: np.ndarray, min_samples_leaf: int
) -> tuple[int, float, float]:
    """Choose a cut from the ``(n-1) × k`` gain matrix; returns (column, threshold, gain).

    Row ``r`` of ``gains`` is the cut between sorted rows ``r`` and
    ``r + 1``.  The choice is that of a per-column loop keeping the first
    strictly larger gain: the first column whose best gain is the largest
    and positive, at the first row reaching that gain.  ``gains`` is
    overwritten.
    """
    n = values.shape[0]
    gains[values[:-1] >= values[1:]] = -np.inf
    # cut r leaves r + 1 rows left and n - r - 1 right; both need min_samples_leaf
    m = max(1, math.ceil(min_samples_leaf))
    gains[: m - 1] = -np.inf
    gains[n - m :] = -np.inf
    rows = gains.argmax(axis=0)
    best = gains[rows, np.arange(gains.shape[1])]
    column = int(best.argmax())
    if np.isnan(best[column]):  # a NaN never beats the running best
        best[np.isnan(best)] = -np.inf
        column = int(best.argmax())
    if not best[column] > 0.0:
        return _NO_SPLIT
    row = rows[column]
    threshold = 0.5 * (values[row, column] + values[row + 1, column])
    return column, float(threshold), float(best[column])


def _search(
    cols: np.ndarray,
    width: int,
    score: Callable[[np.ndarray], np.ndarray],
    min_samples_leaf: int,
) -> tuple[int, float, float]:
    """Best cut over the candidate matrix ``cols``: (column, threshold, gain).

    Each block of columns is sorted stably in one ``argsort``, and
    ``score(order)`` turns the block's sort order into its gain matrix,
    using temporaries of ``width`` values per row and column.  The column
    is a position in ``cols``, -1 when no cut has a positive gain.
    """
    n, k = cols.shape
    step = max(1, _BLOCK_ELEMENTS // (n * width))
    best = _NO_SPLIT
    for start in range(0, k, step):
        block = cols[:, start : start + step]
        order = block.argsort(axis=0, kind="stable")
        values = block[order, np.arange(block.shape[1])]
        column, threshold, gain = _pick_split(score(order), values, min_samples_leaf)
        if gain > best[2]:  # a later block must do strictly better
            best = (start + column, threshold, gain)
    return best


def _gini(counts: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Gini impurity of ``(rows, k, C)`` class counts over ``size``; ``counts`` is overwritten."""
    counts /= size[:, :, None]
    np.square(counts, out=counts)
    impurity = counts.sum(axis=2)
    return np.subtract(1.0, impurity, out=impurity)


def _best_split_classification(
    cols: np.ndarray,
    codes: np.ndarray,
    n_classes: int,
    min_samples_leaf: int,
) -> tuple[int, float, float]:
    """Best Gini cut over the candidate matrix ``cols``; see :func:`_search`."""
    n = codes.shape[0]
    counts_total = np.bincount(codes, minlength=n_classes).astype(np.float64)
    gini_parent = 1.0 - np.sum((counts_total / n) ** 2)
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n

    def score(order: np.ndarray) -> np.ndarray:
        left = np.eye(n_classes)[codes[order]]
        left.cumsum(axis=0, out=left)
        left = left[:-1]
        right = counts_total - left
        weighted = _gini(right, right_n)
        weighted *= right_n
        gini_left = _gini(left, left_n)
        gini_left *= left_n
        weighted += gini_left
        weighted /= n
        return np.subtract(gini_parent, weighted, out=weighted)

    return _search(cols, n_classes, score, min_samples_leaf)


def _variance(sq: np.ndarray, total: np.ndarray, size: np.ndarray) -> np.ndarray:
    """``sq/size - (total/size)**2``, computed in place over ``sq`` and ``total``."""
    total /= size
    np.square(total, out=total)
    sq /= size
    sq -= total
    return sq


def _best_split_regression(
    cols: np.ndarray,
    y: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float]:
    """Best variance-reduction cut over ``cols``; see :func:`_search`."""
    n = y.shape[0]
    total_sum = float(y.sum())
    total_sq = float((y**2).sum())
    var_parent = total_sq / n - (total_sum / n) ** 2
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n

    def score(order: np.ndarray) -> np.ndarray:
        prefix_sum = y[order]
        prefix_sq = np.square(prefix_sum)
        prefix_sum.cumsum(axis=0, out=prefix_sum)
        prefix_sq.cumsum(axis=0, out=prefix_sq)
        prefix_sum, prefix_sq = prefix_sum[:-1], prefix_sq[:-1]
        weighted = _variance(total_sq - prefix_sq, total_sum - prefix_sum, right_n)
        weighted *= right_n
        var_left = _variance(prefix_sq, prefix_sum, left_n)
        var_left *= left_n
        weighted += var_left
        weighted /= n
        return np.subtract(var_parent, weighted, out=weighted)

    return _search(cols, 1, score, min_samples_leaf)


def _check_max_features(max_features: Any) -> None:
    if isinstance(max_features, str):
        valid = max_features in ("sqrt", "log2")
    elif isinstance(max_features, float):
        valid = 0.0 < max_features <= 1.0
    else:
        valid = max_features is None or (
            isinstance(max_features, numbers.Integral) and max_features >= 1
        )
    if not valid:
        raise ValueError(
            "max_features must be None, 'sqrt', 'log2', an int >= 1 or a "
            f"float in (0, 1]; got {max_features!r}"
        )


class _BaseTree(BaseEstimator):
    """Shared builder and predictor.

    A fitted tree is stored as pre-order node arrays: ``feature_``
    (-1 at leaves), ``threshold_``, ``left_`` and ``right_`` (child
    indices, -1 at leaves), ``value_`` (the node's prediction payload),
    ``gain_`` (impurity decrease of the split, 0 at leaves) and
    ``n_node_samples_``.  Rows with ``x[feature] <= threshold`` go left.
    """

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

    def _grow(
        self,
        X: np.ndarray,
        target: np.ndarray,
        rng: np.random.Generator,
        rows: np.ndarray | None = None,
    ) -> None:
        """Fit the node arrays on ``X[rows]``/``target[rows]`` (all rows by default).

        ``rows`` is anything that indexes the rows of ``X``: positions,
        with repeats for a bootstrap sample, or a boolean mask.
        """
        _check_max_features(self.max_features)
        self.n_features_ = X.shape[1]
        everything = np.arange(X.shape[0])
        rows = everything if rows is None else everything[rows]
        nodes: list[list[Any]] = []
        self._build(X, target, rows, 0, rng, nodes)
        feature, threshold, left, right, value, gain, n_samples = zip(*nodes)
        self.feature_ = np.asarray(feature, dtype=np.intp)
        self.threshold_ = np.asarray(threshold, dtype=np.float64)
        self.left_ = np.asarray(left, dtype=np.intp)
        self.right_ = np.asarray(right, dtype=np.intp)
        self.value_ = np.asarray(value, dtype=np.float64)
        self.gain_ = np.asarray(gain, dtype=np.float64)
        self.n_node_samples_ = np.asarray(n_samples, dtype=np.intp)

    def _build(
        self,
        X: np.ndarray,
        target: np.ndarray,
        rows: np.ndarray,
        depth: int,
        rng: np.random.Generator,
        nodes: list[list[Any]],
    ) -> int:
        """Append the subtree over ``rows`` to ``nodes`` in pre-order; returns its root index."""
        node_target = target[rows]
        record = [-1, 0.0, -1, -1, self._node_value(node_target), 0.0, rows.shape[0]]
        index = len(nodes)
        nodes.append(record)
        if (
            rows.shape[0] < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or (node_target == node_target[:1]).all()
        ):
            return index
        features = self._feature_pool(X.shape[1], rng)
        column, threshold, gain = self._best_split(X[rows[:, None], features], node_target)
        if column < 0 or gain <= 0.0:
            return index
        feature = int(features[column])
        mask = X[rows, feature] <= threshold
        record[0], record[1], record[5] = feature, threshold, gain
        record[2] = self._build(X, target, rows[mask], depth + 1, rng, nodes)
        record[3] = self._build(X, target, rows[~mask], depth + 1, rng, nodes)
        return index

    def _apply(self, X: Any) -> np.ndarray:
        """Leaf index of every row of ``X``, descending all rows level by level."""
        self._check_fitted("value_")
        X = check_X(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, but the model was fitted "
                f"with {self.n_features_} features"
            )
        node = np.zeros(X.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.left_[node] >= 0)
        while active.size:
            at = node[active]
            goes_left = X[active, self.feature_[at]] <= self.threshold_[at]
            at = np.where(goes_left, self.left_[at], self.right_[at])
            node[active] = at
            active = active[self.left_[at] >= 0]
        return node

    @property
    def depth_(self) -> int:
        self._check_fitted("value_")
        depth = np.zeros(self.left_.shape[0], dtype=np.intp)
        for i in np.flatnonzero(self.left_ >= 0):  # parents precede children
            depth[self.left_[i]] = depth[self.right_[i]] = depth[i] + 1
        return int(depth.max())

    @property
    def n_leaves_(self) -> int:
        self._check_fitted("value_")
        return int(np.count_nonzero(self.left_ < 0))

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-decrease importances, normalized to sum to 1."""
        self._check_fitted("value_")
        split = self.left_ >= 0
        total = max(1, int(self.n_node_samples_[0]))
        importances = np.zeros(self.n_features_, dtype=np.float64)
        # add.at adds in index order, i.e. in pre-order like a recursive walk
        np.add.at(
            importances,
            self.feature_[split],
            self.gain_[split] * self.n_node_samples_[split] / total,
        )
        norm = importances.sum()
        return importances / norm if norm > 0 else importances


class DecisionTreeClassifier(_BaseTree, ClassifierMixin):
    """Gini-based CART classifier; leaves store class-probability vectors."""

    def fit(self, X: Any, y: Any, sample_indices: np.ndarray | None = None) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        self.classes_ = sorted(set(y.tolist()), key=str)
        index = {label: i for i, label in enumerate(self.classes_)}
        codes = np.asarray([index[v] for v in y], dtype=np.int64)
        self._grow(X, codes, np.random.default_rng(self.random_state), sample_indices)
        return self

    def _node_value(self, codes: np.ndarray) -> np.ndarray:
        counts = np.bincount(codes, minlength=len(self.classes_)).astype(np.float64)
        return counts / counts.sum()

    def _best_split(self, cols: np.ndarray, codes: np.ndarray) -> tuple[int, float, float]:
        return _best_split_classification(
            cols, codes, len(self.classes_), self.min_samples_leaf
        )

    def predict_proba(self, X: Any) -> np.ndarray:
        return self.value_[self._apply(X)]

    def predict(self, X: Any) -> np.ndarray:
        proba = self.predict_proba(X)
        picks = np.argmax(proba, axis=1)
        return np.asarray([self.classes_[p] for p in picks], dtype=object)


class DecisionTreeRegressor(_BaseTree, RegressorMixin):
    """Variance-reduction CART regressor; leaves store means."""

    def fit(self, X: Any, y: Any, sample_indices: np.ndarray | None = None) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        self._grow(
            X, y.astype(np.float64), np.random.default_rng(self.random_state), sample_indices
        )
        return self

    def _node_value(self, y: np.ndarray) -> float:
        return float(y.sum() / y.shape[0])  # y.mean()'s bits, without its per-call overhead

    def _best_split(self, cols: np.ndarray, y: np.ndarray) -> tuple[int, float, float]:
        return _best_split_regression(cols, y, self.min_samples_leaf)

    def predict(self, X: Any) -> np.ndarray:
        return self.value_[self._apply(X)]
