import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from locscore.geometry import box_array, iou_matrix, structural_fault
from locscore.parsing import normalize_label

from conftest import box_strategy, related_boxes


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
        split = data.draw(st.integers(1, len(boxes) - 1))
        a, b = boxes[:split], boxes[split:]
        expected = np.array([[iou(p, t) for t in b] for p in a])
        assert np.array_equal(iou_matrix(box_array(a), box_array(b)), expected)

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
    assert structural_fault(Box(0, 0, 10, 10)) is None
    assert "finite" in structural_fault(Box(0, 0, math.inf, 10))
    assert "negative" in structural_fault(Box(-1, 0, 10, 10))
    assert "x2" in structural_fault(Box(10, 0, 10, 10))
    assert "y2" in structural_fault(Box(0, 10, 10, 10))
