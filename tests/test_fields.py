"""The field reader's whole-array fast path against its one-value-at-a-time form."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locscore.errors import FieldError
from locscore.fields import read_field, read_number_rows, read_numbers
from locscore.geometry import SpaceKind

# JSON values a bbox array may hold: numbers near and beyond float64, and the wrong kinds
ELEMENTS = st.one_of(
    st.integers(-5, 5000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10**400, -(10**400), 1e308, True, False, None, "1", [1]]),
)
VALUES = st.one_of(
    st.lists(st.integers(0, 5000) | st.floats(0, 5000), min_size=4, max_size=4),  # mostly good
    st.lists(ELEMENTS, min_size=0, max_size=6),
    st.sampled_from([None, "1,2,3,4", 7, {"x": 1}]),
)
ROWS = st.lists(
    st.one_of(st.fixed_dictionaries({"bbox_2d": VALUES}), st.just({"label": "cat"})), max_size=8
)
# every row four values, so that only the values decide between the two paths
NUMBERS = st.integers(0, 5000) | st.floats(0, 5000)
FOUR_VALUE_ROWS = st.lists(
    st.fixed_dictionaries({"bbox_2d": st.lists(NUMBERS | NUMBERS | ELEMENTS, min_size=4, max_size=4)}),
    min_size=1,
    max_size=6,
)


def _one_by_one(rows):
    """Each row's ``read_numbers``, joined in row order; None when one fails."""
    out = []
    for row in rows:
        try:
            out += read_numbers(row, "bbox_2d", 4)
        except FieldError:
            return None
    return out


@given(ROWS | FOUR_VALUE_ROWS)
@settings(max_examples=500)
def test_number_rows_equal_read_numbers_per_row(rows):
    got = read_number_rows(rows, "bbox_2d", 4)
    expected = _one_by_one(rows)
    assert (got is None) == (expected is None)
    if got is not None:
        assert [float(v).hex() for v in got] == [float(v).hex() for v in expected]
        assert all(type(v) is float for v in got)


def test_all_good_rows_read_at_once():
    rows = [{"bbox_2d": [0, 1, 2.5, 3]}, {"bbox_2d": [1e-320, 0.0, 1e308, 5]}]
    assert read_number_rows(rows, "bbox_2d", 4) == [0.0, 1.0, 2.5, 3.0, 1e-320, 0.0, 1e308, 5.0]


def test_one_bad_row_leaves_the_others():
    """A bad row makes the whole read None; without it, the others read at once,
    including a row whose sum overflows though each of its numbers is finite."""
    rows = [{"bbox_2d": [0, 1, 2, 3]}, {"bbox_2d": [0, 1, 2]}, {"bbox_2d": [1e308, 1e308, 1e308, 1e308]}]
    assert read_number_rows(rows, "bbox_2d", 4) is None
    assert read_number_rows(rows[::2], "bbox_2d", 4) == [0.0, 1.0, 2.0, 3.0, *(1e308,) * 4]


def test_enum_field_reads_member_values_only():
    assert read_field({"coord_space": "thousandths"}, "coord_space", SpaceKind) is SpaceKind.THOUSANDTHS
    assert read_field({}, "coord_space", SpaceKind, SpaceKind.PIXELS) is SpaceKind.PIXELS
    for value in ("THOUSANDTHS", "THOUSANDTHS ", 1, [1], {"a": 1}, None, True):
        with pytest.raises(FieldError) as caught:
            read_field({"coord_space": value}, "coord_space", SpaceKind)
        assert str(caught.value) == f"unknown coord_space {value!r}"
