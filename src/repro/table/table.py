"""The :class:`Table` — an ordered collection of equal-length columns."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.table.column import Column, ColumnKind, equality_ids

__all__ = ["Table"]


class Table:
    """A columnar table: ordered, named, equal-length :class:`Column` objects.

    Tables are *immutable by convention*: every operation returns a new
    ``Table`` sharing column storage where safe.  The only mutating method
    is :meth:`add_column` / :meth:`set_column`, used during construction.
    """

    def __init__(self, columns: Iterable[Column] = (), name: str = "table") -> None:
        self.name = name
        self._columns: dict[str, Column] = {}
        for column in columns:
            self.add_column(column)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Iterable[Any]], name: str = "table") -> "Table":
        """Build a table from ``{column_name: values}``."""
        return cls((Column(key, values) for key, values in data.items()), name=name)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Mapping[str, Any]] | Sequence[Sequence[Any]],
        columns: Sequence[str] | None = None,
        name: str = "table",
    ) -> "Table":
        """Build a table from row dicts, or row tuples plus ``columns``."""
        if not rows:
            if columns is None:
                return cls(name=name)
            return cls((Column(c, []) for c in columns), name=name)
        first = rows[0]
        if isinstance(first, Mapping):
            keys = list(columns) if columns is not None else list(first)
            data = {key: [row.get(key) for row in rows] for key in keys}
        else:
            if columns is None:
                raise ValueError("columns are required when rows are sequences")
            keys = list(columns)
            data = {key: [row[i] for row in rows] for i, key in enumerate(keys)}
        return cls.from_dict(data, name=name)

    # -- mutation (construction-time only) --------------------------------------

    def add_column(self, column: Column) -> None:
        """Append a column; name must be fresh and length must match."""
        if column.name in self._columns:
            raise ValueError(f"duplicate column {column.name!r}")
        if self._columns and len(column) != self.n_rows:
            raise ValueError(
                f"column {column.name!r} has {len(column)} rows, table has {self.n_rows}"
            )
        self._columns[column.name] = column

    def set_column(self, column: Column) -> None:
        """Add or replace a column of matching length."""
        if self._columns and len(column) != self.n_rows:
            raise ValueError(
                f"column {column.name!r} has {len(column)} rows, table has {self.n_rows}"
            )
        self._columns[column.name] = column

    # -- basic protocol -----------------------------------------------------------

    @property
    def n_rows(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def n_cols(self) -> int:
        return len(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    def __len__(self) -> int:
        return self.n_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {self.column_names}"
            ) from None

    def __iter__(self) -> Iterable[Column]:
        return iter(self._columns.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.column_names != other.column_names:
            return False
        return all(self[c] == other[c] for c in self.column_names)

    def __repr__(self) -> str:
        return f"Table(name={self.name!r}, shape={self.shape}, columns={self.column_names})"

    def columns(self) -> list[Column]:
        return list(self._columns.values())

    def row(self, index: int) -> dict[str, Any]:
        return {name: col[index] for name, col in self._columns.items()}

    def to_rows(self) -> list[dict[str, Any]]:
        names = self.column_names
        if not names:
            return []
        lists = [self._columns[name].to_list() for name in names]
        return [dict(zip(names, cells)) for cells in zip(*lists)]

    def to_dict(self) -> dict[str, list[Any]]:
        return {name: col.to_list() for name, col in self._columns.items()}

    # -- projection / selection -----------------------------------------------------

    def select(self, names: Sequence[str]) -> "Table":
        """Project onto ``names`` (order preserved as given)."""
        return Table((self[name] for name in names), name=self.name)

    def drop(self, names: Sequence[str] | str) -> "Table":
        if isinstance(names, str):
            names = [names]
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise KeyError(f"cannot drop unknown columns {missing}")
        drop_set = set(names)
        return Table(
            (col for name, col in self._columns.items() if name not in drop_set),
            name=self.name,
        )

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        return Table(
            (
                col.renamed(mapping.get(name, name))
                for name, col in self._columns.items()
            ),
            name=self.name,
        )

    def take(self, indices: Sequence[int] | np.ndarray) -> "Table":
        """Select rows by integer positions."""
        return Table((col.take(indices) for col in self), name=self.name)

    def filter_mask(self, keep: np.ndarray) -> "Table":
        keep = np.asarray(keep, dtype=bool)
        if keep.shape[0] != self.n_rows:
            raise ValueError("mask length must equal row count")
        return Table((col.mask_rows(keep) for col in self), name=self.name)

    def filter(self, predicate: Callable[[dict[str, Any]], bool]) -> "Table":
        keep = np.fromiter(
            (bool(predicate(row)) for row in self.to_rows()),
            dtype=bool,
            count=self.n_rows,
        )
        return self.filter_mask(keep)

    def head(self, n: int = 5) -> "Table":
        return self.take(np.arange(min(n, self.n_rows)))

    def sample_rows(self, n: int, seed: int = 0) -> "Table":
        """Uniform random sample without replacement (at most all rows)."""
        rng = np.random.default_rng(seed)
        n = min(n, self.n_rows)
        idx = rng.choice(self.n_rows, size=n, replace=False)
        return self.take(np.sort(idx))

    def copy(self) -> "Table":
        return Table((col.copy() for col in self), name=self.name)

    # -- combination --------------------------------------------------------------

    def concat_rows(self, other: "Table") -> "Table":
        """Stack two tables with identical column names vertically."""
        if self.column_names != other.column_names:
            raise ValueError(
                "row concat requires identical columns: "
                f"{self.column_names} vs {other.column_names}"
            )
        merged = []
        for name in self.column_names:
            merged.append(_vstack_columns(self[name], other[name]))
        return Table(merged, name=self.name)

    def concat_columns(self, other: "Table") -> "Table":
        """Stack two tables of equal length horizontally."""
        if self.n_rows != other.n_rows and self.n_cols and other.n_cols:
            raise ValueError("column concat requires equal row counts")
        result = Table(self.columns(), name=self.name)
        for col in other:
            result.add_column(col)
        return result

    def join(
        self,
        other: "Table",
        on: str | tuple[str, str],
        how: str = "inner",
        suffix: str = "_r",
    ) -> "Table":
        """Hash join on a single key column.

        Parameters
        ----------
        on:
            Key column name, or ``(left_key, right_key)`` pair.
        how:
            ``"inner"`` or ``"left"``.  Left joins emit one row per left row,
            matching the *first* right-side hit (lookup-table semantics, which
            is what the paper's multi-table star/snowflake schemas need).
        suffix:
            Appended to right-side column names that collide.
        """
        if how not in ("inner", "left"):
            raise ValueError(f"unsupported join type {how!r}")
        left_key, right_key = (on, on) if isinstance(on, str) else on
        left_rows, right_rows = _join_row_pairs(
            self[left_key], other[right_key], how
        )

        result = self.take(left_rows)
        taken_names = set(result.column_names)
        for name in other.column_names:
            if name == right_key:
                continue
            out_name = name if name not in taken_names else name + suffix
            result.add_column(_gather_with_missing(
                other[name], right_rows, out_name
            ))
            taken_names.add(out_name)
        return result

    # -- numeric views ---------------------------------------------------------------

    def to_numeric_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Stack numeric columns into an ``(n_rows, k)`` float matrix."""
        if names is None:
            names = [c.name for c in self if c.kind is ColumnKind.NUMERIC]
        arrays = []
        for name in names:
            col = self[name]
            if col.kind is not ColumnKind.NUMERIC:
                raise TypeError(f"column {name!r} is not numeric")
            arrays.append(col.numeric_values())
        if not arrays:
            return np.empty((self.n_rows, 0), dtype=np.float64)
        return np.column_stack(arrays)

    def numeric_column_names(self) -> list[str]:
        return [c.name for c in self if c.kind is ColumnKind.NUMERIC]

    def string_column_names(self) -> list[str]:
        return [c.name for c in self if c.kind is ColumnKind.STRING]

    def missing_cells(self) -> int:
        return int(sum(col.n_missing for col in self))


# -- vectorized kernels ------------------------------------------------------


def _join_row_pairs(left_col: Column, right_col: Column, how: str):
    """Row-index pairs of a factorized hash join (seed output order)."""
    right_ids, right_keys = equality_ids(right_col)
    present = np.flatnonzero(right_ids >= 0)
    rows_sorted = present[np.argsort(right_ids[present], kind="stable")]
    sizes = np.bincount(right_ids[present], minlength=len(right_keys))
    offsets = np.cumsum(sizes) - sizes  # group g owns rows_sorted[offsets[g]:][:sizes[g]]
    # right keys are pairwise unequal, so the dict keeps one slot per id
    key_to_gid = dict(zip(right_keys, range(len(right_keys))))
    left_ids, left_keys = equality_ids(left_col)
    lut = np.fromiter(
        (key_to_gid.get(key, -1) for key in left_keys),
        dtype=np.int64,
        count=len(left_keys),
    )
    gids = np.append(lut, np.int64(-1))[left_ids]  # id -1 wraps to the -1 slot
    n = gids.shape[0]
    if how == "left":
        first_ext = np.append(rows_sorted[offsets], np.int64(-1))
        return np.arange(n, dtype=np.intp), first_ext[gids]
    sizes_ext = np.append(sizes, np.int64(0))
    counts = sizes_ext[gids]
    total = int(counts.sum())
    left_rows = np.repeat(np.arange(n, dtype=np.intp), counts)
    offsets_ext = np.append(offsets, np.int64(0))
    starts = np.repeat(offsets_ext[gids], counts)
    exclusive = np.concatenate(([0], np.cumsum(counts)[:-1])) if n else counts
    within = np.arange(total, dtype=np.int64) - np.repeat(exclusive, counts)
    return left_rows, rows_sorted[starts + within]


def _gather_with_missing(source: Column, rows: np.ndarray, name: str) -> Column:
    """Gather ``source[rows]`` with ``-1`` rows becoming missing cells,
    re-coercing per distinct value exactly like the seed's
    ``Column(values, kind=source.kind)`` rebuild."""
    if source.kind is ColumnKind.NUMERIC:
        data_ext = np.append(source.numeric_values(), np.nan)
        miss_ext = np.append(source.missing, True)
        return Column._from_numeric(name, data_ext[rows], miss_ext[rows])
    codes_ext = np.append(source.codes, np.int32(-1))
    return Column._from_raw_pool(
        name, source.kind, source.pool.tolist(), codes_ext[rows]
    )


def _vstack_columns(a: Column, b: Column) -> Column:
    """Vertical concatenation with dictionary merge (seed re-coercion
    semantics preserved via the per-distinct pool coercion)."""
    kind = a.kind
    if kind is not b.kind:
        return Column(a.name, a.to_list() + b.to_list(), kind=None)
    if kind is ColumnKind.NUMERIC:
        return Column._from_numeric(
            a.name,
            np.concatenate([a.numeric_values(), b.numeric_values()]),
            np.concatenate([a.missing, b.missing]),
        )
    pool_a = a.pool.tolist()
    try:
        index = {value: code for code, value in enumerate(pool_a)}
    except TypeError:
        return Column(a.name, a.to_list() + b.to_list(), kind=kind)
    if len(index) < len(pool_a):
        return Column(a.name, a.to_list() + b.to_list(), kind=kind)
    merged_pool = list(pool_a)
    remap = np.empty(b.pool.shape[0] + 1, dtype=np.int64)
    remap[-1] = -1
    for code, value in enumerate(b.pool.tolist()):
        mapped = index.get(value)
        if mapped is None:
            mapped = len(merged_pool)
            index[value] = mapped
            merged_pool.append(value)
        remap[code] = mapped
    codes = np.concatenate([a.codes.astype(np.int64), remap[b.codes]])
    return Column._from_raw_pool(a.name, kind, merged_pool, codes)
