import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locscore import (
    Box,
    GroundTruthSet,
    InvalidBoxError,
    SpaceMismatchError,
    iou,
    pixel_space,
    thousandths_space,
    to_space,
    validate_box,
)
from locscore.geometry import (
    CoordinateSpace,
    SpaceKind,
    box_array,
    conversion_factors,
    iou_matrix,
    iou_pairs,
    validate_boxes,
)
from locscore.matching import ground_truth_faults
from locscore.parsing import normalize_label

from conftest import box_strategy, related_boxes
from oracles import box_fault_xyxy, iou_xyxy, to_space_xyxy


class TestIou:
    def test_identity(self):
        assert iou(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0

    def test_partial_overlap(self):
        # intersection 5x5, union 100 + 100 - 25
        assert iou(Box(0, 0, 10, 10), Box(5, 5, 15, 15)) == 25 / 175

    def test_touching_edges_is_zero(self):
        assert iou(Box(0, 0, 10, 10), Box(10, 0, 20, 10)) == 0.0
        assert iou(Box(0, 0, 10, 10), Box(0, 10, 10, 20)) == 0.0

    def test_underflowing_intersection_is_zero(self):
        # both areas and the intersection underflow to 0.0 in float64
        tiny = Box(0, 0, 1e-200, 1e-200)
        assert iou(tiny, tiny) == 0.0
        assert iou(tiny, Box(0, 0, 10, 10)) == 0.0

    def test_invalid_box_rejected(self):
        with pytest.raises(InvalidBoxError):
            iou(Box(10, 10, 5, 20), Box(0, 0, 10, 10))
        with pytest.raises(InvalidBoxError):
            iou(Box(0, 0, 10, 10), Box(0, 0, math.inf, 10))

    @given(box_strategy(), box_strategy())
    def test_symmetry_and_bounds(self, a, b):
        ab = iou(a, b)
        assert ab == iou(b, a)
        assert 0.0 <= ab <= 1.0
        assert iou(a, a) == 1.0

    @given(box_strategy(max_x=200, max_y=200), box_strategy(max_x=200, max_y=200),
           st.floats(0, 100), st.floats(0, 100))
    def test_translation_invariance(self, a, b, dx, dy):
        assert iou(a.translated(dx, dy), b.translated(dx, dy)) == pytest.approx(
            iou(a, b), abs=1e-9
        )

    @given(box_strategy(), box_strategy(), st.floats(0.1, 8.0))
    def test_scale_invariance(self, a, b, factor):
        assert iou(a.scaled(factor), b.scaled(factor)) == pytest.approx(iou(a, b), abs=1e-9)


class TestIouMatrix:
    @given(boxes=related_boxes(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_iou(self, boxes, data):
        """Both forms of the kernel against the scalar reference ``oracles.iou_xyxy``."""
        split = data.draw(st.integers(1, len(boxes) - 1))
        a, b = boxes[:split], boxes[split:]
        expected = np.array([[iou_xyxy(p.coords(), t.coords()) for t in b] for p in a])
        assert np.array_equal(iou_matrix(box_array(a), box_array(b)), expected)
        rows, cols = np.indices(expected.shape).reshape(2, -1)
        assert np.array_equal(iou_pairs(box_array(a)[rows], box_array(b)[cols]), expected.ravel())

    def test_empty_sides(self):
        some = box_array([Box(0, 0, 10, 10)])
        assert iou_matrix(box_array([]), some).shape == (0, 1)
        assert iou_matrix(some, box_array([])).shape == (1, 0)


class TestGroundTruthIndex:
    PAIRS = [
        ("Traffic  Light", Box(0, 0, 10, 10)),
        ("cat", Box(5, 5, 20, 20)),
        ("traffic light", Box(1, 1, 3, 3)),
        ("Cat", Box(0, 0, 1, 1)),
        ("dog", Box(2, 2, 9, 9)),
    ]

    def test_index_agrees_with_instances(self):
        gt = GroundTruthSet.from_pairs(self.PAIRS, pixel_space(64, 64))
        assert gt.coords.shape == (5, 4) and gt.coords.dtype == np.float64
        assert gt.coords.tolist() == [list(box.coords()) for _, box in self.PAIRS]
        assert gt.label_keys == tuple(normalize_label(label) for label, _ in self.PAIRS)
        assert gt.by_label == {"traffic light": (0, 2), "cat": (1, 3), "dog": (4,)}
        first_spellings = [gt.instances[indices[0]].label for indices in gt.by_label.values()]
        assert first_spellings == ["Traffic  Light", "cat", "dog"]

    def test_empty_set(self):
        gt = GroundTruthSet((), pixel_space(64, 64))
        assert gt.coords.shape == (0, 4)
        assert gt.label_keys == () and gt.by_label == {}

    def test_caching_keeps_equality_and_hash(self):
        cached = GroundTruthSet.from_pairs(self.PAIRS, pixel_space(64, 64))
        fresh = GroundTruthSet.from_pairs(self.PAIRS, pixel_space(64, 64))
        before = hash(cached)
        assert cached.coords is cached.coords and cached.by_label is cached.by_label
        assert cached.label_keys is cached.label_keys
        assert cached == fresh and hash(cached) == hash(fresh) == before

    def test_sets_are_immutable(self):
        gt = GroundTruthSet.from_arrays(["cat"], [[0, 0, 1, 1]], pixel_space(64, 64))
        with pytest.raises(AttributeError):
            gt.labels = ("dog",)
        with pytest.raises(ValueError):
            gt.coords[0, 0] = 0.5
        with pytest.raises(ValueError, match="2 labels for 1 boxes"):
            GroundTruthSet.from_arrays(["cat", "dog"], [0, 0, 1, 1], pixel_space(64, 64))

    def test_deletion_foreign_equality_and_repr(self):
        gt = GroundTruthSet.from_arrays(["cat"], [[0, 0, 1, 2]], pixel_space(64, 48))
        with pytest.raises(AttributeError, match="cannot delete field 'labels'"):
            del gt.labels
        assert gt.__eq__(object()) is NotImplemented and gt != object()
        assert repr(gt) == (
            "GroundTruthSet(instances=(GroundTruthInstance(label='cat', box=Box(x1=0.0, y1=0.0, x2=1.0, y2=2.0)),), "
            "space=CoordinateSpace(kind=<SpaceKind.PIXELS: 'pixels'>, width=64, height=48))"
        )

    # case and whitespace variants of two labels, which normalize_label makes one
    LABEL_VARIANTS = st.sampled_from(["cat", "Cat", " CAT ", "traffic light", "Traffic  Light", "traffic\tlight\n"])
    NUMBERS = st.integers(0, 70) | st.floats(0, 70, allow_nan=False)
    # int and float corners, mostly of valid boxes
    ROWS = st.lists(NUMBERS, min_size=4, max_size=4) | st.lists(NUMBERS, min_size=4, max_size=4).map(
        lambda r: [min(r[0], r[2]) % 60, min(r[1], r[3]) % 60, min(r[0], r[2]) % 60 + 1, max(r[1], r[3]) % 3 + 61]
    )

    @given(st.lists(st.tuples(LABEL_VARIANTS, ROWS), max_size=6))
    @settings(max_examples=300)
    def test_array_constructor_equals_from_pairs(self, entries):
        """``from_arrays`` on labels and rows against ``from_pairs`` on the same entries as boxes:
        the same set, or the same first invalid box, named by its coordinates as floats,
        whichever form the coordinates were given in."""
        space = pixel_space(64, 64)
        labels = [label for label, _ in entries]
        rows = [row for _, row in entries]
        outcomes = []
        for make in (
            lambda: GroundTruthSet.from_arrays(labels, rows, space),
            lambda: GroundTruthSet.from_arrays(labels, [v for row in rows for v in row], space),
            lambda: GroundTruthSet.from_pairs([(label, Box(*map(float, row))) for label, row in entries], space),
            lambda: GroundTruthSet.from_pairs([(label, Box(*row)) for label, row in entries], space),
        ):
            try:
                outcomes.append(make())
            except SpaceMismatchError as exc:
                outcomes.append(str(exc))
        *floats, raw = outcomes
        if isinstance(raw, str):
            assert outcomes == [raw] * 4
            invalid = validate_boxes(box_array(Box(*row) for row in rows), 64, 64)[1]
            row = min(invalid)
            assert raw == f"ground-truth box {tuple(map(float, rows[row]))} invalid in its space: {invalid[row]}"
            return
        for gt in floats:
            assert gt.instances == raw.instances and gt.labels == raw.labels == tuple(labels)
            assert gt.coords.dtype == np.float64 and gt.coords.shape == (len(entries), 4)
            assert gt.coords.tobytes() == raw.coords.tobytes()
            assert gt.label_keys == raw.label_keys and gt.by_label == raw.by_label
            assert len(gt) == len(raw) == len(entries)
            assert gt == raw and hash(gt) == hash(raw)
            assert not gt.coords.flags.writeable

    @given(st.lists(st.tuples(st.sampled_from(SpaceKind), st.integers(1, 80), st.integers(1, 80),
                              st.lists(ROWS, max_size=4)), max_size=5))
    @settings(max_examples=200)
    def test_block_check_names_each_sets_own_first_fault(self, drawn):
        """One ``ground_truth_faults`` call over sets of different images and kinds gives each
        set the fault its constructor names alone, each row checked against its own image."""
        sets, alone = [], []
        for kind, width, height, rows in drawn:
            space = CoordinateSpace(kind, width, height)
            coords = np.array(rows, dtype=float).reshape(-1, 4)
            sets.append(GroundTruthSet._unchecked(["cat"] * len(rows), coords, space))
            try:
                GroundTruthSet.from_arrays(["cat"] * len(rows), rows, space)
                alone.append(None)
            except SpaceMismatchError as exc:
                alone.append(str(exc))
        assert ground_truth_faults(sets) == alone


class TestValidateBox:
    def test_valid(self):
        assert validate_box(Box(0, 0, 10, 10), pixel_space(640, 480)) == (True, None)

    def test_degenerate_ordering(self):
        ok, reason = validate_box(Box(10, 10, 5, 20), pixel_space(640, 480))
        assert not ok and "x2" in reason

    def test_zero_width_rejected(self):
        ok, reason = validate_box(Box(5, 0, 5, 10), pixel_space(640, 480))
        assert not ok

    def test_out_of_bounds(self):
        ok, reason = validate_box(Box(0, 0, 700, 100), pixel_space(640, 480))
        assert not ok and "exceeds" in reason

    def test_thousandths_bounds_ignore_image_size(self):
        space = thousandths_space(640, 480)
        assert validate_box(Box(0, 0, 1000, 1000), space)[0]
        assert not validate_box(Box(0, 0, 1001, 500), space)[0]

    def test_negative_coordinate(self):
        ok, reason = validate_box(Box(-1, 0, 10, 10), pixel_space(640, 480))
        assert not ok and "negative" in reason

    def test_never_raises_on_nan(self):
        ok, reason = validate_box(Box(math.nan, 0, 10, 10), pixel_space(640, 480))
        assert not ok and "finite" in reason


class TestCoordinateSpace:
    def test_extent_beyond_float_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            pixel_space(10**400, 480)

    def test_extent_whose_area_overflows_rejected(self):
        # each side fits in a float, but box areas inside the image would not
        with pytest.raises(ValueError, match="too large"):
            pixel_space(10**300, 10**300)
        with pytest.raises(ValueError, match="too large"):
            thousandths_space(10**306, 1)

    def test_large_extent_accepted(self):
        assert pixel_space(10**150, 10**150).max_x == 1e150


class TestToSpace:
    def test_full_extent(self):
        box = to_space(
            Box(0, 0, 1000, 1000), thousandths_space(640, 480), pixel_space(640, 480)
        )
        assert box == Box(0, 0, 640, 480)

    def test_half_extent(self):
        box = to_space(
            Box(500, 500, 1000, 1000), thousandths_space(640, 480), pixel_space(640, 480)
        )
        assert box == Box(320, 240, 640, 480)

    def test_identity_conversion(self):
        space = pixel_space(640, 480)
        box = Box(3.5, 4.5, 100.25, 200.75)
        assert to_space(box, space, space) is box

    def test_mismatched_images_rejected(self):
        with pytest.raises(SpaceMismatchError):
            to_space(Box(0, 0, 10, 10), pixel_space(640, 480), thousandths_space(320, 240))

    def test_invalid_box_rejected(self):
        with pytest.raises(InvalidBoxError):
            to_space(Box(0, 0, 2000, 10), thousandths_space(640, 480), pixel_space(640, 480))

    @given(box_strategy())
    @settings(max_examples=200)
    def test_round_trip(self, box):
        src = pixel_space(640, 480)
        dst = thousandths_space(640, 480)
        back = to_space(to_space(box, src, dst), dst, src)
        for original, returned in zip(box.coords(), back.coords()):
            assert returned == pytest.approx(original, rel=1e-9, abs=1e-9)

    @given(box_strategy(max_x=1000.0, max_y=1000.0, min_size=0.01))
    @settings(max_examples=300)
    def test_conversion_stays_in_bounds(self, box):
        # rounding must never push a converted box past the target extent
        src = thousandths_space(1333, 777)
        dst = pixel_space(1333, 777)
        moved = to_space(box, src, dst)
        ok, reason = validate_box(moved, dst)
        assert ok, reason


def test_structural_fault_messages():
    assert iou(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 1.0
    for box, reason in [
        (Box(0, 0, math.inf, 10), "finite"),
        (Box(-1, 0, 10, 10), "negative"),
        (Box(10, 0, 10, 10), "x2"),
        (Box(0, 10, 10, 10), "y2"),
    ]:
        with pytest.raises(InvalidBoxError, match=reason):
            iou(box, box)


SPACES = [pixel_space(640, 480), thousandths_space(640, 480), pixel_space(1, 1), pixel_space(3, 1000)]


def _axis(limit):
    """A coordinate on one axis: in range, exactly at the extent, just past it, or not finite."""
    special = [math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, limit, math.nextafter(limit, math.inf), 2 * limit]
    return st.one_of(st.sampled_from(special), st.floats(0, limit))


@st.composite
def box_rows(draw):
    """A space and (x1, y1, x2, y2) rows, some of them degenerate on purpose."""
    space = draw(st.sampled_from(SPACES))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        x1, x2 = draw(_axis(space.max_x)), draw(_axis(space.max_x))
        y1, y2 = draw(_axis(space.max_y)), draw(_axis(space.max_y))
        flat = draw(st.sampled_from(["", "x", "y"]))
        rows.append((x1, y1, x1 if flat == "x" else x2, y1 if flat == "y" else y2))
    return space, rows


@st.composite
def valid_boxes_in(draw, space):
    """Boxes valid in ``space``, among them specks that collapse when rescaled."""
    def side(limit):
        ends = sorted(draw(st.one_of(st.floats(0, limit), st.floats(0, 1e-300))) for _ in range(2))
        assume(ends[0] < ends[1])
        return ends

    (x1, x2), (y1, y2) = side(space.max_x), side(space.max_y)
    return Box(x1, y1, x2, y2)


def _bits(values):
    return [float(v).hex() for v in values]


class TestArrayForms:
    """The vectorised validation and conversion against the scalar references
    in ``tests/oracles.py``."""

    @given(box_rows())
    @settings(max_examples=300)
    def test_mask_and_reasons_equal_validate_box(self, case):
        space, rows = case
        coords = np.array(rows, dtype=float).reshape(-1, 4)
        valid, reasons = validate_boxes(coords, space.max_x, space.max_y)
        expected = [box_fault_xyxy(row, space.max_x, space.max_y) for row in rows]
        assert valid.tolist() == [fault is None for fault in expected]
        assert reasons == {row: fault for row, fault in enumerate(expected) if fault is not None}
        assert list(reasons) == sorted(reasons)

    def test_edge_rows(self):
        space = pixel_space(640, 480)
        rows = [
            (0.0, 0.0, 640.0, 480.0),  # exactly at the extent
            (0.0, 0.0, math.nextafter(640.0, math.inf), 480.0),
            (math.nan, 0.0, 1.0, 1.0),
            (-1.0, 0.0, 1.0, 1.0),
            (5.0, 0.0, 5.0, 1.0),
        ]
        valid, reasons = validate_boxes(np.array(rows), space.max_x, space.max_y)
        assert valid.tolist() == [True, False, False, False, False]
        assert reasons == {row: box_fault_xyxy(rows[row], 640.0, 480.0) for row in (1, 2, 3, 4)}
        # one extent per row: each row is checked against, and named with, its own
        extents = [(640.0, 480.0), (700.0, 480.0), (1.0, 1.0), (1000.0, 1000.0), (4.0, 4.0)]
        valid, reasons = validate_boxes(np.array(rows), *np.array(extents).T)
        expected = [box_fault_xyxy(row, *extent) for row, extent in zip(rows, extents)]
        assert valid.tolist() == [fault is None for fault in expected] == [True, True, False, False, False]
        assert reasons == {row: fault for row, fault in enumerate(expected) if fault is not None}
        assert validate_boxes(np.array([(0.0, 0.0, 9.0, 2.0)]), np.array([8.0]), np.array([1.0]))[1] == {
            0: "x2 = 9.0 exceeds extent 8.0"
        }

    @given(data=st.data())
    @settings(max_examples=300)
    def test_array_conversion_equals_to_space(self, data):
        """``to_space``, and ``conversion_factors`` applied to a whole array as the group
        kernel applies them, give each box the reference's coordinates bit for bit."""
        width, height = data.draw(st.integers(1, 5000)), data.draw(st.integers(1, 5000))
        src_kind, dst_kind = data.draw(st.sampled_from(list(SpaceKind))), data.draw(st.sampled_from(list(SpaceKind)))
        src, dst = CoordinateSpace(src_kind, width, height), CoordinateSpace(dst_kind, width, height)
        boxes = data.draw(st.lists(valid_boxes_in(src), max_size=10))
        multiplier, divisor = conversion_factors(src, dst)
        moved = box_array(boxes) * multiplier / divisor
        scalar = [to_space_xyxy(box.coords(), src, dst) for box in boxes]
        assert [_bits(row) for row in moved.tolist()] == [_bits(box) for box in scalar]
        assert [_bits(to_space(box, src, dst).coords()) for box in boxes] == [_bits(box) for box in scalar]
        # a box that collapses on conversion is dropped, and only such a box
        kept, _ = validate_boxes(moved, dst.max_x, dst.max_y)
        assert kept.tolist() == [box_fault_xyxy(box, dst.max_x, dst.max_y) is None for box in scalar]

    def test_collapsing_speck_is_dropped(self):
        src, dst = thousandths_space(1, 1), pixel_space(1, 1)
        moved = [to_space(box, src, dst) for box in (Box(0.0, 0.0, 5e-324, 5e-324), Box(0.0, 0.0, 500.0, 1000.0))]
        assert [validate_box(box, dst)[0] for box in moved] == [False, True]
        assert moved[1] == Box(0.0, 0.0, 0.5, 1.0)

    def test_array_conversion_rejects_another_image(self):
        for kind in SpaceKind:
            with pytest.raises(SpaceMismatchError):
                conversion_factors(pixel_space(640, 480), CoordinateSpace(kind, 480, 640))


# integers on both sides of 2**53, where a float64 would round them
_INTS = st.one_of(st.integers(0, 2000), st.integers(2**53 - 4, 2**53 + 4), st.integers(-3, 10**20))


class TestOneBoxForms:
    """``validate_box``, ``iou`` and ``to_space`` are one-row calls into the
    kernels; a box with integer coordinates is read as float64 rows, so each
    helper gives what the scalar reference gives on the floats of those
    integers, bit for bit."""

    SPACES = [pixel_space(2**53 + 2, 3), thousandths_space(1333, 777), pixel_space(640, 480)]

    @given(st.lists(st.one_of(_INTS, st.floats(-1, 2000)), min_size=4, max_size=4), st.sampled_from(SPACES))
    @settings(max_examples=300)
    def test_validate_box_and_structural_fault(self, coords, space):
        box, floats = Box(*coords), tuple(map(float, coords))
        fault = box_fault_xyxy(floats, space.max_x, space.max_y)
        assert validate_box(box, space) == (fault is None, fault)
        structural = box_fault_xyxy(floats)
        if structural is None:
            iou(box, box)
        else:
            with pytest.raises(InvalidBoxError) as raised:
                iou(box, box)
            assert str(raised.value) == f"invalid box {floats}: {structural}"

    @given(st.lists(_INTS, min_size=8, max_size=8))
    @settings(max_examples=300)
    def test_iou_of_integer_boxes(self, coords):
        a, b, c, d = (sorted(coords[i:i + 2]) for i in range(0, 8, 2))
        first, second = Box(a[0], b[0], a[1], b[1]), Box(c[0], d[0], c[1], d[1])
        assume(box_fault_xyxy(first.coords()) is None and box_fault_xyxy(second.coords()) is None)
        floats = [tuple(map(float, box.coords())) for box in (first, second)]
        if any(box_fault_xyxy(box) is not None for box in floats):
            # two integers that round to one float64 make a degenerate box
            with pytest.raises(InvalidBoxError):
                iou(first, second)
            return
        value = iou(first, second)
        assert type(value) is float
        assert value.hex() == float(iou_xyxy(*floats)).hex()

    @given(st.lists(st.integers(0, 1000), min_size=4, max_size=4), st.sampled_from([1, 3, 2**53 + 1, 10**20]))
    @settings(max_examples=300)
    def test_to_space_of_integer_boxes(self, coords, width):
        x1, x2 = sorted(coords[0:2])
        y1, y2 = sorted(coords[2:4])
        assume(x1 < x2 and y1 < y2)
        src, dst = thousandths_space(width, 7), pixel_space(width, 7)
        moved = to_space(Box(x1, y1, x2, y2), src, dst)
        assert _bits(moved.coords()) == _bits(to_space_xyxy(tuple(map(float, (x1, y1, x2, y2))), src, dst))

    def test_integer_messages_keep_their_text(self):
        """A box given with integer coordinates is named by them as floats, as the reason names them."""
        space = pixel_space(640, 480)
        assert validate_box(Box(0, 0, 700, 100), space) == (False, "x2 = 700.0 exceeds extent 640.0")
        with pytest.raises(InvalidBoxError, match=r"invalid box \(10\.0, 10\.0, 5\.0, 20\.0\): x2 <= x1"):
            iou(Box(10, 10, 5, 20), Box(0, 0, 10, 10))
        with pytest.raises(
            InvalidBoxError, match=r"box \(0\.0, 0\.0, 2000\.0, 10\.0\) invalid in source space: x2 = 2000\.0"
        ):
            to_space(Box(0, 0, 2000, 10), thousandths_space(640, 480), pixel_space(640, 480))
        with pytest.raises(OverflowError):  # an int past float64 has no float64 row
            validate_box(Box(0, 0, 10**400, 1), space)
