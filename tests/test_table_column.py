"""Unit tests for repro.table.column."""

import numpy as np
import pytest

from repro.table.column import Column, ColumnKind


class TestKindInference:
    def test_numeric_from_floats(self):
        assert Column("a", [1.0, 2.5]).kind is ColumnKind.NUMERIC

    def test_numeric_from_numeric_strings(self):
        col = Column("a", ["1", "2.5", "3"])
        assert col.kind is ColumnKind.NUMERIC
        assert col[1] == 2.5

    def test_string_wins_over_numbers(self):
        assert Column("a", [1, "x", 3]).kind is ColumnKind.STRING

    def test_boolean_from_tokens(self):
        col = Column("a", ["yes", "no", "yes"])
        assert col.kind is ColumnKind.BOOLEAN
        assert col[0] is True
        assert col[1] is False

    def test_python_bools(self):
        assert Column("a", [True, False]).kind is ColumnKind.BOOLEAN

    def test_all_missing_defaults_to_string(self):
        assert Column("a", [None, None]).kind is ColumnKind.STRING

    def test_forced_kind(self):
        col = Column("a", ["1", "2"], kind="string")
        assert col.kind is ColumnKind.STRING
        assert col[0] == "1"


class TestMissingHandling:
    def test_none_is_missing(self):
        col = Column("a", [1.0, None, 3.0])
        assert col.n_missing == 1
        assert col[1] is None

    def test_nan_is_missing(self):
        assert Column("a", [1.0, float("nan")]).n_missing == 1

    def test_textual_missing_tokens(self):
        col = Column("a", ["x", "", "NA", "?", "null"])
        assert col.n_missing == 4

    def test_unparseable_numeric_becomes_missing(self):
        col = Column("a", ["1", "oops"], kind="numeric")
        assert col.n_missing == 1

    def test_missing_fraction(self):
        assert Column("a", [1.0, None]).missing_fraction == pytest.approx(0.5)

    def test_missing_fraction_empty(self):
        assert Column("a", []).missing_fraction == 0.0

    def test_fill_missing(self):
        filled = Column("a", [1.0, None]).fill_missing(9.0)
        assert filled.to_list() == [1.0, 9.0]


class TestAccessors:
    def test_len_iter(self):
        col = Column("a", [1, 2, None])
        assert len(col) == 3
        assert list(col) == [1.0, 2.0, None]

    def test_unique_order_and_dedup(self):
        col = Column("a", ["b", "a", "b", None, "c"])
        assert col.unique() == ["b", "a", "c"]

    def test_value_counts_sorted(self):
        counts = Column("a", ["x", "y", "x", "x"]).value_counts()
        assert list(counts.items()) == [("x", 3), ("y", 1)]

    def test_n_distinct_ignores_missing(self):
        assert Column("a", [1, 1, None, 2]).n_distinct == 2

    def test_numeric_values_requires_numeric(self):
        with pytest.raises(TypeError):
            Column("a", ["x"]).numeric_values()

    def test_numeric_values_has_nan_for_missing(self):
        values = Column("a", [1.0, None]).numeric_values()
        assert np.isnan(values[1])


class TestTransforms:
    def test_take(self):
        col = Column("a", [10, 20, 30]).take([2, 0])
        assert col.to_list() == [30.0, 10.0]

    def test_mask_rows(self):
        col = Column("a", [1, 2, 3]).mask_rows(np.array([True, False, True]))
        assert col.to_list() == [1.0, 3.0]

    def test_renamed(self):
        assert Column("a", [1]).renamed("b").name == "b"

    def test_copy_is_independent(self):
        col = Column("a", [1.0, 2.0])
        dup = col.copy()
        dup.data[0] = 99.0
        assert col[0] == 1.0

    def test_astype_numeric_from_strings(self):
        col = Column("a", ["1", "x", "3"], kind="string").astype_numeric()
        assert col.kind is ColumnKind.NUMERIC
        assert col.n_missing == 1

    def test_astype_string_formats_integers(self):
        col = Column("a", [1.0, 2.0]).astype_string()
        assert col.to_list() == ["1", "2"]

    def test_equality(self):
        assert Column("a", [1, 2]) == Column("a", [1, 2])
        assert Column("a", [1, 2]) != Column("a", [1, 3])
        assert Column("a", [1]) != Column("b", [1])


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Column("", [1])

    def test_non_string_name_rejected(self):
        with pytest.raises(ValueError):
            Column(123, [1])

    def test_bad_boolean_rejected(self):
        with pytest.raises(ValueError):
            Column("a", ["maybe"], kind="boolean")


class TestFormatValue:
    """Regression: bool must be checked before the numeric branches.

    ``bool`` subclasses ``int``, so an isinstance-ordered formatter that
    tests float/int first renders ``True`` as ``"1"`` — corrupting
    string-coerced columns that mix booleans with text.
    """

    def test_bools_format_as_words_not_digits(self):
        from repro.table.column import _format_value

        assert _format_value(True) == "true"
        assert _format_value(False) == "false"
        # the numeric branches still behave
        assert _format_value(1) == "1"
        assert _format_value(1.0) == "1"
        assert _format_value(2.5) == "2.5"

    def test_string_coerced_bool_cells(self):
        col = Column("c", [True, "word", False, None], kind="string")
        assert col.to_list() == ["true", "word", "false", None]
        assert col.unique() == ["true", "word", "false"]


class TestExoticCells:
    """Regression: pool dedup must not merge cells that render differently.

    A dict keyed by value alone puts ``0.0`` and ``-0.0`` (and ``1``,
    ``1.0`` and ``True``) in one slot, so every cell of the slot took the
    first cell's rendering.
    """

    def test_signed_zeros_keep_their_sign(self):
        for values in ([None, 0.0, -0.0], [None, -0.0, 0.0]):
            cells = Column("x", values).to_list()
            assert cells[0] is None
            assert [np.signbit(v) for v in cells[1:]] == [
                np.signbit(v) for v in values[1:]
            ]

    def test_from_numpy_stores_values_verbatim(self):
        values = [1, 1.0, 2, -0.0, 0.0, "a"]
        col = Column.from_numpy("x", np.array(values, dtype=object))
        cells = col.to_list()
        assert [(type(v), repr(v)) for v in cells] == [
            (type(v), repr(v)) for v in values
        ]
        assert col.unique() == [1, 2, -0.0, "a"]  # equality-deduplicated
