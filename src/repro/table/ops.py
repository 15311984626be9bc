"""Relational helpers over :class:`~repro.table.Table`.

Small set of operations the dataset generators, cleaners, and generated
pipelines rely on: sorting, group-by aggregation, and duplicate removal.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.table.column import Column, ColumnKind, equality_ids
from repro.table.table import Table

__all__ = [
    "sort_by",
    "group_by",
    "drop_duplicate_rows",
    "drop_missing_rows",
    "stack_tables",
]


def drop_missing_rows(table: Table, subset: Sequence[str] | None = None) -> Table:
    """Drop every row with a missing value in ``subset`` (default: all columns)."""
    names = list(subset) if subset is not None else table.column_names
    keep = np.ones(table.n_rows, dtype=bool)
    for name in names:
        keep &= ~table[name].missing
    return table.filter_mask(keep)


def _sort_rank(col: Column) -> np.ndarray:
    """Per-row sort key: the value itself for numeric columns, the rank
    of the value in the sorted pool otherwise.  Missing slots get 0 (the
    caller orders them separately)."""
    if col.kind is ColumnKind.NUMERIC:
        return np.where(col.missing, 0.0, col.numeric_values())
    order = sorted(
        range(col.pool.shape[0]), key=col.pool.tolist().__getitem__
    )
    ranks = np.empty(col.pool.shape[0] + 1, dtype=np.int64)
    ranks[-1] = 0
    for rank, code in enumerate(order):
        ranks[code] = rank
    return ranks[col.codes]  # code -1 wraps to the trailing 0 slot


def sort_by(table: Table, name: str, descending: bool = False) -> Table:
    """Stable sort by one column; missing values sort last."""
    col = table[name]
    miss = col.missing
    rank = _sort_rank(col)
    idx = np.arange(table.n_rows, dtype=np.intp)
    present = idx[~miss]
    if descending:
        # ties break by descending row index (the seed's reverse sort),
        # and missing rows land last in reverse row order
        order_present = present[np.lexsort((-present, -rank[present]))]
        order_missing = idx[miss][::-1]
    else:
        order_present = present[np.lexsort((present, rank[present]))]
        order_missing = idx[miss]
    return table.take(np.concatenate([order_present, order_missing]))


def _group_rows(col: Column) -> list[tuple[Any, list[int]]]:
    """Groups of row indices keyed by cell value, in first-seen order.

    Missing cells form a ``None``-keyed group, positioned where the first
    missing row appears (seed dict-insertion semantics).
    """
    if len(col) == 0:
        return []
    ids, keys = equality_ids(col)
    used, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    row_order = np.argsort(inverse, kind="stable")
    sizes = np.bincount(inverse)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    out: list[tuple[Any, list[int]]] = []
    for pos in np.argsort(first, kind="stable").tolist():
        gid = int(used[pos])
        key_value = None if gid < 0 else keys[gid]
        out.append(
            (key_value, row_order[offsets[pos]:offsets[pos + 1]].tolist())
        )
    return out


def group_by(
    table: Table,
    key: str,
    aggregations: Mapping[str, tuple[str, Callable[[list[Any]], Any]]],
) -> Table:
    """Group rows by ``key`` and aggregate.

    ``aggregations`` maps output column name to ``(input column, fn)`` where
    ``fn`` receives the list of non-missing values of that group.
    """
    grouped = _group_rows(table[key])
    sources = {
        in_name: table[in_name].to_list()
        for in_name, _ in aggregations.values()
    }
    out: dict[str, list[Any]] = {key: []}
    for out_name in aggregations:
        out[out_name] = []
    for group_key, indices in grouped:
        out[key].append(group_key)
        for out_name, (in_name, fn) in aggregations.items():
            cells = sources[in_name]
            values = [cells[i] for i in indices if cells[i] is not None]
            out[out_name].append(fn(values) if values else None)
    return Table.from_dict(out, name=table.name)


def drop_duplicate_rows(table: Table, subset: Sequence[str] | None = None) -> Table:
    """Keep the first occurrence of each distinct row (or ``subset`` of columns)."""
    names = list(subset) if subset is not None else table.column_names
    if not names:
        return table.take(np.zeros(min(table.n_rows, 1), dtype=np.intp))
    matrix = np.column_stack([equality_ids(table[n])[0] for n in names])
    _, first = np.unique(matrix, axis=0, return_index=True)
    return table.take(np.sort(first))


def stack_tables(tables: Sequence[Table], name: str = "stacked") -> Table:
    """Vertically concatenate tables with identical schemas."""
    if not tables:
        return Table(name=name)
    result = tables[0]
    for other in tables[1:]:
        result = result.concat_rows(other)
    result.name = name
    return result
