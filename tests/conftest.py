"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from locscore import Box, GroundTruthSet, pixel_space

SPACE = pixel_space(640, 480)
LABELS = ("person", "car", "dog", "cat", "bicycle", "bench")


def box_strategy(max_x: float = 640.0, max_y: float = 480.0, min_size: float = 1.0):
    """Valid boxes inside a pixel space, built from corner + size."""
    def build(x1, y1, w, h):
        return Box(x1, y1, min(x1 + w, max_x), min(y1 + h, max_y))

    return st.builds(
        build,
        st.floats(0, max_x - min_size, allow_nan=False, allow_infinity=False),
        st.floats(0, max_y - min_size, allow_nan=False, allow_infinity=False),
        st.floats(min_size, max_x, allow_nan=False, allow_infinity=False),
        st.floats(min_size, max_y, allow_nan=False, allow_infinity=False),
    )


def _int_box(x1, y1, w, h):
    return Box(float(x1), float(y1), float(x1 + w), float(y1 + h))


INT_BOXES = st.builds(
    _int_box, st.integers(0, 30), st.integers(0, 30), st.integers(1, 12), st.integers(1, 12)
)


def _tiny_box(x1, y1, w, h):
    return Box(x1, y1, x1 + w, y1 + h)


# integer and float corners, sub-1e-6 sizes, and sides whose areas underflow to 0.0
BASE_BOXES = st.one_of(
    INT_BOXES,
    box_strategy(100.0, 100.0, min_size=0.5),
    st.builds(
        _tiny_box, st.floats(0, 1), st.floats(0, 1), st.floats(1e-9, 1e-6), st.floats(1e-9, 1e-6)
    ),
    st.builds(_tiny_box, st.just(0.0), st.just(0.0), st.floats(1e-200, 1e-160), st.just(1e-200)),
)


@st.composite
def related_boxes(draw):
    """Boxes plus copies, touching neighbours and boxes nested inside them."""
    boxes = draw(st.lists(BASE_BOXES, min_size=1, max_size=5))
    out = list(boxes)
    for box in boxes:
        w, h = box.x2 - box.x1, box.y2 - box.y1
        out.append(Box(box.x1, box.y1, box.x2, box.y2))
        out.append(Box(box.x2, box.y1, box.x2 + w, box.y2))  # shares the right edge
        out.append(Box(box.x1, box.y2, box.x2, box.y2 + h))  # shares the bottom edge
        out.append(Box(box.x1 + w / 4, box.y1 + h / 4, box.x2 - w / 4, box.y2 - h / 4))
    return draw(st.permutations(out))


def random_box(rng: random.Random, max_x: float = 640.0, max_y: float = 480.0) -> Box:
    x1 = rng.uniform(0, max_x - 2)
    y1 = rng.uniform(0, max_y - 2)
    x2 = rng.uniform(x1 + 1, max_x)
    y2 = rng.uniform(y1 + 1, max_y)
    return Box(x1, y1, x2, y2)


def random_int_box(rng: random.Random, max_x: int = 640, max_y: int = 480) -> Box:
    x1 = rng.randrange(0, max_x - 1)
    y1 = rng.randrange(0, max_y - 1)
    x2 = rng.randrange(x1 + 1, max_x + 1)
    y2 = rng.randrange(y1 + 1, max_y + 1)
    return Box(float(x1), float(y1), float(x2), float(y2))


def random_gt(rng: random.Random, n: int, space=SPACE) -> GroundTruthSet:
    pairs = [(rng.choice(LABELS), random_box(rng, space.max_x, space.max_y)) for _ in range(n)]
    return GroundTruthSet.from_pairs(pairs, space)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)
