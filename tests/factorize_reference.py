"""Frozen per-cell and per-row reference paths of the data plane.

Each function below is the per-cell (or per-row) definition that a
factorize-then-gather path in ``repro`` must reproduce exactly: the
column coercion, ``from_numpy``'s verbatim storage, the five encoders'
transforms, the KMV and column sketch updates, the streaming chunk
artifacts, the fingerprint byte stream, and the relational ops' dict
and set semantics.  They are kept here, one loop per cell or row, as the
oracle for ``tests/test_factorize_reference.py``; nothing in the package
imports this module.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from repro.catalog.cache import _encode_one
from repro.ml.preprocessing import _as_object_matrix, _flatten_column, _is_missing
from repro.sketch.base import encode_value, hash64_many
from repro.sketch.column import ColumnSketch
from repro.sketch.kmv import KMVSketch
from repro.table.column import (
    _FALSE_TOKENS,
    _TRUE_TOKENS,
    Column,
    ColumnKind,
    _format_value,
    _infer_kind,
    _is_missing_scalar,
    _to_bool,
)
from repro.table.table import Table

# -- columns ---------------------------------------------------------------------


def column_cells(values: list, kind: ColumnKind | str | None = None):
    """Kind and ``to_list()`` cells of ``Column(name, values, kind)``."""
    kind = ColumnKind(kind) if kind is not None else _infer_kind(values)
    cells: list[Any] = []
    for value in values:
        if _is_missing_scalar(value):
            cells.append(None)
        elif kind is ColumnKind.NUMERIC:
            try:
                cells.append(float(value))
            except (TypeError, ValueError):
                cells.append(None)
        elif kind is ColumnKind.BOOLEAN:
            cells.append(_to_bool(value))
        else:
            cells.append(_format_value(value))
    return kind, cells


def from_numpy_cells(data: np.ndarray) -> list:
    """``Column.from_numpy(name, data).to_list()`` for object storage:
    the given values verbatim, ``None`` cells missing."""
    return [None if value is None else value for value in data.tolist()]


def encode_object_values(values: list) -> bytes:
    return b"".join(_encode_one(value) for value in values)


# -- encoders ------------------------------------------------------------------------


def label_transform(encoder, y) -> np.ndarray:
    out = []
    for value in list(y):
        if value not in encoder._index:
            raise ValueError(f"unseen label {value!r}")
        out.append(encoder._index[value])
    return np.asarray(out, dtype=np.int64)


def ordinal_transform(encoder, X) -> np.ndarray:
    X = _as_object_matrix(X)
    out = np.full(X.shape, -1.0, dtype=np.float64)
    for j, index in enumerate(encoder._index):
        for i, value in enumerate(X[:, j].tolist()):
            code = index.get(value)
            if code is not None:
                out[i, j] = float(code)
    return out


def one_hot_transform(encoder, X) -> np.ndarray:
    X = _as_object_matrix(X)
    widths = [len(values) for values in encoder.categories_]
    out = np.zeros((X.shape[0], sum(widths)), dtype=np.float64)
    offset = 0
    for j, index in enumerate(encoder._index):
        categories = encoder.categories_[j]
        has_other = categories and categories[-1] == encoder.OTHER
        for i, value in enumerate(X[:, j].tolist()):
            if _is_missing(value):
                continue
            code = index.get(value)
            if code is None and has_other:
                code = index[encoder.OTHER]
            if code is not None:
                out[i, offset + code] = 1.0
        offset += widths[j]
    return out


def k_hot_transform(encoder, column) -> np.ndarray:
    cells = list(_flatten_column(column))
    out = np.zeros((len(cells), len(encoder.items_)), dtype=np.float64)
    for i, cell in enumerate(cells):
        for item in encoder._items(cell):
            j = encoder._index.get(item)
            if j is not None:
                out[i, j] = 1.0
    return out


def hasher_transform(hasher, column) -> np.ndarray:
    cells = list(_flatten_column(column))
    out = np.zeros((len(cells), hasher.n_features), dtype=np.float64)
    for i, cell in enumerate(cells):
        if _is_missing(cell):
            continue
        digest = hashlib.md5(str(cell).encode("utf-8")).hexdigest()
        bucket = int(digest[:8], 16) % hasher.n_features
        sign = 1.0 if int(digest[8], 16) % 2 == 0 else -1.0
        out[i, bucket] += sign
    return out


# -- sketches --------------------------------------------------------------------------


class ReferenceKMVSketch(KMVSketch):
    """KMV whose ``update`` encodes and folds one cell at a time."""

    __slots__ = ()

    def update(self, values, rows=None) -> None:
        values = list(values)
        if not values:
            return
        if rows is None:
            rows = range(1 << 62)
        if self._exact is not None:
            exact = self._exact
            for value, row in zip(values, rows):
                encoded = encode_value(value)
                seen = exact.get(encoded)
                if seen is None or row < seen[0]:
                    exact[encoded] = (row, value)
            if len(exact) > self.exact_threshold:
                self._degrade()
            return
        encodings = [encode_value(value) for value in values]
        self._hashes.update(hash64_many(self.key, encodings).tolist())
        self._prune(soft=True)


class ReferenceColumnSketch(ColumnSketch):
    """Column sketch whose views probe, parse and format cell by cell."""

    __slots__ = ()

    def _feed_views(self, values: list, rows: np.ndarray) -> None:
        raw_mask = np.fromiter(
            (_is_missing_scalar(v) for v in values), dtype=bool, count=len(values)
        )
        present_idx = np.nonzero(~raw_mask)[0]
        present = [values[i] for i in present_idx.tolist()]
        present_rows = rows[present_idx]
        if self.numeric is not None:
            num_mask = raw_mask.copy()
            parsed = np.empty(len(values), dtype=np.float64)
            for i in present_idx.tolist():
                try:
                    parsed[i] = float(values[i])
                except (TypeError, ValueError):
                    num_mask[i] = True
            parsed[num_mask] = np.nan
            self.numeric.update(parsed, num_mask, rows)
        if self.string is not None:
            formatted = [_format_value(v) for v in present]
            self.string.update(formatted, present_rows.tolist())
        if self.boolean is not None:
            self.boolean.update(present, present_rows.tolist())


def chunk_artifacts(values: list) -> dict[str, Any]:
    """The slots of ``repro.catalog.streaming._ColumnChunkArtifacts``."""
    n = len(values)
    raw_mask = np.fromiter(
        (_is_missing_scalar(v) for v in values), dtype=bool, count=n
    )
    floats = np.empty(n, dtype=np.float64)
    num_mask = raw_mask.copy()
    tokens: list[str | None] = [None] * n
    bools: list[Any] | None = [None] * n
    for i, value in enumerate(values):
        if raw_mask[i]:
            floats[i] = np.nan
            continue
        try:
            floats[i] = float(value)
        except (TypeError, ValueError):
            floats[i] = np.nan
            num_mask[i] = True
        tokens[i] = _format_value(value)
        if bools is not None:
            if isinstance(value, bool):
                bools[i] = value
            else:
                lowered = str(value).strip().lower()
                if lowered in _TRUE_TOKENS:
                    bools[i] = True
                elif lowered in _FALSE_TOKENS:
                    bools[i] = False
                else:
                    bools = None  # not a boolean-coercible chunk
    return {
        "raw_mask": raw_mask,
        "floats": floats,
        "num_mask": num_mask,
        "tokens": tokens,
        "bools": bools,
    }


# -- relational ops ------------------------------------------------------------------


def join_row_pairs(left_col: Column, right_col: Column, how: str):
    """Row-index pairs of ``Table.join`` from a dict built row by row."""
    right_index: dict[Any, list[int]] = {}
    for j, key in enumerate(right_col):
        if key is None:
            continue
        right_index.setdefault(key, []).append(j)
    left_rows: list[int] = []
    right_rows: list[int] = []
    for i, key in enumerate(left_col):
        matches = right_index.get(key, []) if key is not None else []
        if matches:
            if how == "left":
                matches = matches[:1]
            for j in matches:
                left_rows.append(i)
                right_rows.append(j)
        elif how == "left":
            left_rows.append(i)
            right_rows.append(-1)
    return (
        np.asarray(left_rows, dtype=np.intp),
        np.asarray(right_rows, dtype=np.int64),
    )


def group_rows(col: Column) -> list[tuple[Any, list[int]]]:
    """``group_by``'s groups: row indices per key, in first-seen order."""
    groups: dict[Any, list[int]] = {}
    for i, group_key in enumerate(col.to_list()):
        groups.setdefault(group_key, []).append(i)
    return list(groups.items())


def drop_duplicate_rows(table: Table, subset=None) -> Table:
    names = list(subset) if subset is not None else table.column_names
    lists = [table[name].to_list() for name in names]
    seen: set[tuple[Any, ...]] = set()
    keep: list[int] = []
    for i, signature in enumerate(zip(*lists)):
        if signature in seen:
            continue
        seen.add(signature)
        keep.append(i)
    return table.take(np.asarray(keep, dtype=np.intp))
