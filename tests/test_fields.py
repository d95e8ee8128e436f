"""The field reader's whole-array fast path against its one-value-at-a-time form."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locscore.errors import FieldError
from locscore.fields import read_field, read_number_rows, read_number_table, read_numbers
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


LOGPROB_SERIES = ("policy", "old", "ref")
# what a log-prob series holds: non-positive numbers, ints among them, exact zeros and overflowing sums
GOOD_LOGPROBS = st.one_of(
    st.floats(-50, 0),
    st.integers(-3, 0),
    st.sampled_from([0.0, -0.0, -5e-324, -1e308, -sys.float_info.max]),
)
# one value put in at a drawn place: number corners, the wrong kinds, JSON's NaN/Infinity, positives
LOGPROB_FAULTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.sampled_from([
        2**53 + 1, -(2**53 + 1), 2**63, -(2**63), -(2**64), 10**400, -(10**400),
        "-0.5", "0", None, [-1.0], [], {"v": -1.0},
        math.nan, math.inf, -math.inf, 5e-324, 0.5, 1.0, 1,
    ]),
)


@st.composite
def logprob_entries(draw):
    """A log-prob record: three series of one length, then up to three values
    set or appended at drawn places (an append makes the series unequal), and
    sometimes one series that is no array at all."""
    n = draw(st.integers(0, 6))
    entry = {key: draw(st.lists(GOOD_LOGPROBS, min_size=n, max_size=n)) for key in LOGPROB_SERIES}
    for key, position, value in draw(
        st.lists(st.tuples(st.sampled_from(LOGPROB_SERIES), st.integers(0, 7), LOGPROB_FAULTS), max_size=3)
    ):
        if position < len(entry[key]):
            entry[key][position] = value
        else:
            entry[key].append(value)
    key = draw(st.sampled_from(LOGPROB_SERIES))
    replacement = draw(st.sampled_from(["keep"] * 8 + ["drop", None, -1.0, "[-1.0]", (-1.0,)]))
    if replacement == "drop":
        del entry[key]
    elif replacement != "keep":
        entry[key] = replacement
    return entry


@given(logprob_entries())
@settings(max_examples=1000)
def test_number_table_equals_read_numbers_per_key(entry):
    """The bulk read is None or, bit for bit, the rows ``read_numbers`` gives key by key."""
    table = read_number_table(entry, LOGPROB_SERIES)
    if table is None:
        return
    rows = [read_numbers(entry, key) for key in LOGPROB_SERIES]  # raises if the bulk read was wrong to pass
    assert table.dtype == np.float64 and table.shape == (3, len(rows[0]))
    assert table.tobytes() == np.array(rows, dtype=float).tobytes()


def test_good_series_read_at_once():
    entry = {"policy": [-0.5, 0, -1e308], "old": [-0.0, -5e-324, -1e308], "ref": [0.0, 0.0, -3]}
    table = read_number_table(entry, LOGPROB_SERIES)
    assert table.tolist() == [[-0.5, 0.0, -1e308], [-0.0, -5e-324, -1e308], [0.0, 0.0, -3.0]]
    assert math.copysign(1, table[1, 0]) == -1  # -0.0 keeps its sign


@pytest.mark.parametrize(
    "entry",
    [
        {"policy": [0.0, False, 0.0], "old": [0.0] * 3, "ref": [0.0] * 3},  # a boolean among zeros
        {"policy": [-1.0, True], "old": [-1.0, -1.0], "ref": [-1.0, -1.0]},
        {"policy": [-1.0, "-1"], "old": [-1.0, -1.0], "ref": [-1.0, -1.0]},
        {"policy": [-1.0, None], "old": [-1.0, -1.0], "ref": [-1.0, -1.0]},
        {"policy": [-1.0, 10**400], "old": [-1.0, -1.0], "ref": [-1.0, -1.0]},
        {"policy": [-1.0, math.nan], "old": [-1.0, -1.0], "ref": [-1.0, -1.0]},
        {"policy": [[-1.0]], "old": [[-1.0]], "ref": [[-1.0]]},
        {"policy": [-1.0, -2.0], "old": [-1.0], "ref": [-1.0, -2.0]},
        {"policy": (-1.0,), "old": [-1.0], "ref": [-1.0]},
        {"old": [-1.0], "ref": [-1.0]},
    ],
    ids=["false", "true", "string", "null", "int-beyond-float", "nan", "nested", "unequal", "tuple", "missing"],
)
def test_a_fault_leaves_the_table_unread(entry):
    assert read_number_table(entry, LOGPROB_SERIES) is None


def test_float_field_takes_the_largest_finite_floats():
    for value in (sys.float_info.max, -sys.float_info.max):
        assert read_field({"x": value}, "x", float) == value
    with pytest.raises(FieldError, match="must be a finite number"):
        read_field({"x": 10**309}, "x", float)


def test_enum_field_reads_member_values_only():
    assert read_field({"coord_space": "thousandths"}, "coord_space", SpaceKind) is SpaceKind.THOUSANDTHS
    assert read_field({}, "coord_space", SpaceKind, SpaceKind.PIXELS) is SpaceKind.PIXELS
    for value in ("THOUSANDTHS", "THOUSANDTHS ", 1, [1], {"a": 1}, None, True):
        with pytest.raises(FieldError) as caught:
            read_field({"coord_space": value}, "coord_space", SpaceKind)
        assert str(caught.value) == f"unknown coord_space {value!r}"
