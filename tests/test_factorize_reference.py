"""Every factorize-then-gather consumer against its per-cell definition.

``repro.table.column.factorize`` and ``equality_ids`` replaced the
per-cell and per-row fallbacks that used to sit beside each consumer.
These properties feed adversarial cells -- ``True``/``1``/``1.0``/
``np.int64(1)``, signed zeros, ``nan``, ``Decimal``, lists and tuples,
hash-equal ``from_numpy`` pools and pools reordered by ``take`` -- to
each consumer and to the frozen per-cell paths in
``tests/factorize_reference.py``, and require the same output bit for
bit: types and float signs, not ``==``.
"""

from __future__ import annotations

import hashlib
import random
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog.cache import column_fingerprint, encode_object_values
from repro.catalog.streaming import _ColumnChunkArtifacts
from repro.ml.preprocessing import (
    FeatureHasher,
    KHotEncoder,
    LabelEncoder,
    OneHotEncoder,
    OrdinalEncoder,
)
from repro.sketch.base import SketchConfig
from repro.sketch.column import ColumnSketch
from repro.sketch.kmv import KMVSketch
from repro.table.column import Column, _object_array, factorize
from repro.table.ops import _group_rows, drop_duplicate_rows, group_by
from repro.table.table import Table, _join_row_pairs
from tests import factorize_reference as ref

SHARED_NAN = float("nan")
ADVERSARIAL = [
    True, False, 1, 0, 2, 1.0, 0.0, -0.0, 2.5,
    np.int64(1), np.int64(0), np.float64(1.0), np.float64(-0.0),
    np.float32(-0.0), np.bool_(True), np.bool_(False),
    SHARED_NAN, None, "NA", "", "1", "1.0", "-0", "true", "no", "x", "a,b",
    Decimal("1"), Decimal("1.0"), Decimal("-0"), Decimal("0"),
    (1,), ("a", "b"),
]
CELL = st.one_of(
    st.sampled_from(ADVERSARIAL),
    st.builds(float, st.just("nan")),  # a fresh nan object per draw
    st.lists(st.sampled_from([1, "a", 1.0]), max_size=2),  # unhashable
)
CELLS = st.lists(CELL, max_size=30)
HASHABLE_CELLS = st.lists(
    st.sampled_from([v for v in ADVERSARIAL if v is not SHARED_NAN]), max_size=30
)
# one case per input class the deleted per-cell fallbacks existed for:
# bools mixed with numbers, signed zeros, Decimal, unhashable cells
MIXED = [True, 1, 1.0, np.int64(1), np.bool_(True), "1", None]
ZEROS = [None, 0.0, -0.0, np.float64(-0.0), 0.0, "NA"]
DECIMALS = [Decimal("1"), Decimal("1.0"), Decimal("-0"), "x"]
UNHASHABLE = [[1], [1], (1,), [1, "a"], "a"]
EXOTIC = MIXED + ZEROS + DECIMALS + UNHASHABLE


def exotic_examples(*extra):
    """``@example`` decorators feeding each exotic class to a property."""
    def decorate(test):
        for values in (MIXED, ZEROS, DECIMALS, UNHASHABLE, EXOTIC):
            test = example(values, *extra)(test)
        return test
    return decorate


def typed(values) -> list:
    """``(type, repr)`` per cell: tells ``1``, ``1.0`` and ``True`` apart,
    and ``0.0`` from ``-0.0``."""
    return [(type(v), repr(v)) for v in values]


def assert_bitwise(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), (got, want)


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type of the error it raised."""
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc)


def assert_same_outcome(got, want) -> None:
    if isinstance(want, type):
        assert got is want
    else:
        assert not isinstance(got, type), got
        assert_bitwise(got, want)


def hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


# -- factorize itself ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@exotic_examples()
@given(CELLS)
def test_factorize_codes_match_typed_keys(values):
    distinct, codes = factorize(values)
    # one code per cell, in first-seen order, and every cell in its slot
    # renders like the slot's representative
    assert codes.dtype == np.int64 and codes.shape == (len(values),)
    firsts = [int(c) for c in dict.fromkeys(codes.tolist())]
    assert firsts == list(range(len(distinct)))
    for value, code in zip(values, codes.tolist()):
        assert typed([value]) == typed([distinct[code]])
    # cells a dict can key by (type, value, sign) share a slot
    for i, a in enumerate(values):
        for j, b in enumerate(values[:i]):
            if (
                type(a) is type(b)
                and hashable(a)
                and not isinstance(a, (Decimal, tuple))
                and a == b
                and repr(a) == repr(b)
            ):
                assert codes[i] == codes[j]


def test_factorize_reaches_every_fallback_input_class():
    values = [True, 1, 1.0, np.int64(1), 0.0, -0.0, Decimal("1"), Decimal("1.0"),
              [1], [1], "a", "a"]
    distinct, codes = factorize(values)
    assert codes.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10]
    assert typed(distinct) == typed(values[:11])


# -- columns ---------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@exotic_examples(None)
@exotic_examples("numeric")
@example([None, -0.0, 0.0], None)
@given(CELLS, st.sampled_from([None, "numeric", "string", "boolean"]))
def test_column_constructor_matches_per_cell_coercion(values, kind):
    want = outcome(ref.column_cells, values, kind)
    got = outcome(lambda: Column("c", values, kind=kind))
    if isinstance(want, type):
        assert got is want
        return
    want_kind, cells = want
    assert got.kind is want_kind
    assert typed(got.to_list()) == typed(cells)
    present = [v for v in cells if v is not None]
    assert typed(got.unique()) == typed(dict.fromkeys(present))


@settings(max_examples=200, deadline=None)
@exotic_examples(random.Random(0))
@given(CELLS, st.randoms(use_true_random=False))
def test_from_numpy_stores_values_verbatim(values, rnd):
    data = _object_array(values)
    col = Column.from_numpy("c", data)
    cells = ref.from_numpy_cells(data)
    assert typed(col.to_list()) == typed(cells)
    perm = list(range(len(values)))
    rnd.shuffle(perm)
    assert typed(col.take(perm).to_list()) == typed([cells[i] for i in perm])
    present = [v for v in cells if v is not None]
    want = outcome(lambda: list(dict.fromkeys(present)))
    got = outcome(col.unique)
    assert got is want if isinstance(want, type) else typed(got) == typed(want)


def reference_fingerprint(col: Column) -> tuple:
    if col.kind.value == "numeric":
        return column_fingerprint(col)  # buffers, no factorize involved
    data = hashlib.md5(ref.encode_object_values(col.to_list())).digest()
    mask = hashlib.md5(col.missing.tobytes()).digest()
    content = hashlib.md5(data + mask).hexdigest()
    return (col.kind.value, len(col), int(col.missing.sum()), content)


@settings(max_examples=200, deadline=None)
@exotic_examples()
@given(CELLS)
def test_fingerprint_bytes_match_per_cell_encoding(values):
    assert encode_object_values(values) == ref.encode_object_values(values)
    for col in (Column("c", values), Column.from_numpy("c", _object_array(values))):
        assert column_fingerprint(col) == reference_fingerprint(col)


# -- encoders --------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@example(MIXED + ZEROS, EXOTIC)
@given(HASHABLE_CELLS, CELLS)
def test_label_encoder_matches_per_cell(fit_values, values):
    encoder = outcome(LabelEncoder().fit, fit_values + [v for v in values[:3] if hashable(v)])
    if isinstance(encoder, type):
        return  # e.g. Decimal("-0") and np.int64(0) cannot share a set
    assert_same_outcome(
        outcome(encoder.transform, values), outcome(ref.label_transform, encoder, values)
    )
    seen = [v for v in values
            if not isinstance(outcome(ref.label_transform, encoder, [v]), type)]
    assert_bitwise(encoder.transform(seen), ref.label_transform(encoder, seen))


def object_matrix(*columns) -> np.ndarray:
    n = min(map(len, columns))
    X = np.empty((n, len(columns)), dtype=object)
    for j, column in enumerate(columns):
        X[:, j] = _object_array(column[:n])
    return X


@settings(max_examples=150, deadline=None)
@example(MIXED + ZEROS, EXOTIC, EXOTIC[::-1], None)
@given(HASHABLE_CELLS, CELLS, CELLS, st.sampled_from([None, 1, 3]))
def test_ordinal_and_one_hot_match_per_cell(fit_values, a, b, max_categories):
    fit_X = object_matrix(fit_values, fit_values[::-1])
    X = object_matrix(a, b)
    ordinal = outcome(OrdinalEncoder().fit, fit_X)
    one_hot = outcome(OneHotEncoder(max_categories=max_categories).fit, fit_X)
    if isinstance(ordinal, type) or isinstance(one_hot, type):
        return  # e.g. Decimal("1") and np.int64(1) cannot share a set
    assert_same_outcome(
        outcome(ordinal.transform, X), outcome(ref.ordinal_transform, ordinal, X)
    )
    assert_same_outcome(
        outcome(one_hot.transform, X), outcome(ref.one_hot_transform, one_hot, X)
    )


@settings(max_examples=150, deadline=None)
@example(EXOTIC, EXOTIC, 64)
@example(EXOTIC, [Decimal("1"), Decimal("1.0")], 64)
@given(CELLS, CELLS, st.sampled_from([1, 8, 64]))
def test_k_hot_and_hasher_match_per_cell(fit_values, values, n_features):
    column = _object_array(values)
    k_hot = KHotEncoder().fit(_object_array(fit_values + values[:2]))
    assert_bitwise(k_hot.transform(column), ref.k_hot_transform(k_hot, column))
    hasher = FeatureHasher(n_features).fit(column)
    assert_bitwise(hasher.transform(column), ref.hasher_transform(hasher, column))


# -- sketches --------------------------------------------------------------------


def kmv_state(sketch: KMVSketch):
    if sketch._exact is None:
        return ("sketch", sorted(sketch._hashes))
    return ("exact", sorted(
        (encoded, row, typed([value])) for encoded, (row, value) in sketch._exact.items()
    ))


@settings(max_examples=150, deadline=None)
@example([EXOTIC, EXOTIC[::-1]], 1000, True, random.Random(0))
@example([EXOTIC, EXOTIC], 6, False, random.Random(0))
@given(st.lists(CELLS, min_size=1, max_size=3), st.sampled_from([2, 6, 1000]),
       st.booleans(), st.randoms(use_true_random=False))
def test_kmv_update_matches_per_cell(chunks, threshold, with_rows, rnd):
    sketch = KMVSketch(k=4, exact_threshold=threshold, key=7)
    reference = ref.ReferenceKMVSketch(k=4, exact_threshold=threshold, key=7)
    start = 0
    for values in chunks:
        rows = None
        if with_rows:  # global rows, shuffled within the chunk
            rows = list(range(start, start + len(values)))
            rnd.shuffle(rows)
        sketch.update(values, rows)
        reference.update(values, rows)
        start += len(values)
        assert kmv_state(sketch) == kmv_state(reference)


@settings(max_examples=150, deadline=None)
@example([EXOTIC, EXOTIC[::-1]], 4)
@example([ZEROS, ZEROS], 1)
@given(st.lists(CELLS, min_size=1, max_size=3), st.sampled_from([1, 4, 16]))
def test_column_sketch_update_matches_per_cell(chunks, threshold):
    config = SketchConfig(seed=3, kmv_k=8, heavy_k=4, exact_threshold=threshold)
    sketch = ColumnSketch(config, "c", 0)
    reference = ref.ReferenceColumnSketch(config, "c", 0)
    start = 0
    for values in chunks:
        sketch.update(values, start)
        reference.update(values, start)
        start += len(values)
    assert repr(sketch.canonical_state()) == repr(reference.canonical_state())


@settings(max_examples=200, deadline=None)
@exotic_examples()
@given(CELLS)
def test_chunk_artifacts_match_per_cell(values):
    got = _ColumnChunkArtifacts(values)
    want = ref.chunk_artifacts(values)
    for name in ("raw_mask", "floats", "num_mask"):
        assert_bitwise(getattr(got, name), want[name])
    assert typed(got.tokens) == typed(want["tokens"])
    assert (got.bools is None) == (want["bools"] is None)
    if want["bools"] is not None:
        assert typed(got.bools) == typed(want["bools"])
    view_bytes = got.view_bytes()
    assert view_bytes["string"][0] == ref.encode_object_values(want["tokens"])
    if want["bools"] is not None:
        assert view_bytes["boolean"][0] == ref.encode_object_values(want["bools"])


# -- relational ops ----------------------------------------------------------------


@st.composite
def key_columns(draw, name="k"):
    """A key column built from raw cells, or storing them verbatim (pools
    with hash-equal entries), optionally with its pool reordered."""
    values = draw(CELLS)
    if draw(st.booleans()):
        col = Column(name, values)
    else:
        col = Column.from_numpy(name, _object_array(values))
    if values and draw(st.booleans()):
        perm = draw(st.permutations(range(len(values))))
        col = col.take(perm)
    return col


# hash-equal verbatim pools, one reordered so its first row is not its
# first pool entry, and a pool holding an unhashable cell
POOL = Column.from_numpy("k", _object_array([1, True, 1.0, Decimal("1"), -0.0, 0.0, "a"]))
REORDERED = POOL.take([5, 2, 1, 0, 4, 3, 6, 1])
COERCED = Column("k", [-0.0, 0.0, 1, None, 1.0])
UNHASHABLE_POOL = Column.from_numpy("k", _object_array(["a", [1], None]))


@settings(max_examples=200, deadline=None)
@example(POOL, REORDERED, "inner")
@example(REORDERED, POOL, "left")
@example(COERCED, REORDERED, "inner")
@example(POOL, UNHASHABLE_POOL, "left")
@example(UNHASHABLE_POOL, POOL, "inner")
@given(key_columns(), key_columns(), st.sampled_from(["inner", "left"]))
def test_join_matches_per_row_dict(left, right, how):
    want = outcome(ref.join_row_pairs, left, right, how)
    got = outcome(_join_row_pairs, left, right, how)
    if isinstance(want, type):
        assert got is want
        return
    assert_bitwise(got[0], want[0])
    assert_bitwise(got[1], want[1])


@settings(max_examples=200, deadline=None)
@example(POOL)
@example(REORDERED)
@example(COERCED)
@example(UNHASHABLE_POOL)
@given(key_columns())
def test_group_by_matches_per_row_dict(key):
    want = outcome(ref.group_rows, key)
    got = outcome(_group_rows, key)
    if isinstance(want, type):
        assert got is want
        with pytest.raises(want):
            group_by(Table([key]), "k", {})
        return
    assert [(typed([k]), rows) for k, rows in got] == [
        (typed([k]), rows) for k, rows in want
    ]
    table = Table([key, Column("v", [1.0] * len(key))])
    out = group_by(table, "k", {"n": ("v", len)})
    keys = [k for k, _ in want]
    assert typed(out["k"].to_list()) == typed(Column("k", keys).to_list())
    assert out["n"].to_list() == [float(len(rows)) for _, rows in want]


@settings(max_examples=200, deadline=None)
@example(POOL.renamed("a"), REORDERED.renamed("b"))
@example(REORDERED.renamed("a"), COERCED.renamed("b"))
@example(POOL.renamed("a"), UNHASHABLE_POOL.renamed("b"))
@given(key_columns("a"), key_columns("b"))
def test_drop_duplicate_rows_matches_per_row_set(a, b):
    n = min(len(a), len(b))
    table = Table([a.take(range(n)), b.take(range(n))])
    want = outcome(ref.drop_duplicate_rows, table)
    got = outcome(drop_duplicate_rows, table)
    if isinstance(want, type):
        assert got is want
        return
    for name in ("a", "b"):
        assert typed(got[name].to_list()) == typed(want[name].to_list())
