"""Axis-aligned box primitives: validation, IoU, and coordinate rescaling.

Each box rule is written once, as a kernel over (n, 4) corner arrays:
``validate_boxes`` (the invariants, the package's one box check), one IoU
formula behind ``iou_matrix`` (every pair of two sets) and ``iou_pairs``
(box against box at the same position), and ``conversion_factors``, the one
source of a conversion's factors per space pair, applied as ``coords *
multiplier / divisor`` both by ``to_space`` and, each row by its own group's
factors, by the group kernel (``rewards``).
``validate_box``, ``iou`` and ``to_space`` are one-row calls into them.

A box has one form here: float64 rows, as ``box_array`` reads them. A
``Box`` with integer coordinates becomes float64 on entry, as a JSON one
does, and an error text spells a box by those float coordinates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Iterable

import numpy as np

from .errors import InvalidBoxError, SpaceMismatchError

THOUSANDTHS_EXTENT = 1000.0


class SpaceKind(str, Enum):
    """Coordinate convention a box is expressed in."""

    PIXELS = "pixels"
    THOUSANDTHS = "thousandths"


@dataclass(frozen=True)
class CoordinateSpace:
    """Declared coordinate range for one image.

    Pixel boxes live in ``[0, width] x [0, height]``; thousandths boxes live
    in ``[0, 1000] x [0, 1000]`` regardless of the underlying image size (the
    image size is still carried so conversions know the target extent).
    """

    kind: SpaceKind
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(
                f"image extent must be at least 1x1, got {self.width}x{self.height}"
            )
        if 1000 * self.width * self.height > sys.float_info.max:
            # areas, unions and thousandths conversions must stay finite in float64
            raise ValueError("image extent too large: 1000 * width * height overflows a float")

    @property
    def max_x(self) -> float:
        return THOUSANDTHS_EXTENT if self.kind is SpaceKind.THOUSANDTHS else float(self.width)

    @property
    def max_y(self) -> float:
        return THOUSANDTHS_EXTENT if self.kind is SpaceKind.THOUSANDTHS else float(self.height)


def pixel_space(width: int, height: int) -> CoordinateSpace:
    return CoordinateSpace(SpaceKind.PIXELS, width, height)


def thousandths_space(width: int, height: int) -> CoordinateSpace:
    return CoordinateSpace(SpaceKind.THOUSANDTHS, width, height)


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with (x1, y1) top-left and (x2, y2) bottom-right.

    Instances are plain value carriers: raw, possibly invalid candidates are
    representable so validation can report what is wrong with them.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def coords(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def translated(self, dx: float, dy: float) -> "Box":
        return Box(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def scaled(self, factor: float) -> "Box":
        return Box(self.x1 * factor, self.y1 * factor, self.x2 * factor, self.y2 * factor)


# the box invariants in the order they are checked; an extent reason is
# formatted with the row's coordinates and the two extents
_FAULTS = (
    "coordinate is not finite",
    "coordinate is negative",
    "x2 <= x1 (non-positive width)",
    "y2 <= y1 (non-positive height)",
    "x2 = {0[2]} exceeds extent {1}",
    "y2 = {0[3]} exceeds extent {2}",
)


def validate_boxes(
    coords: np.ndarray, max_x: float | np.ndarray, max_y: float | np.ndarray
) -> tuple[np.ndarray, dict[int, str]]:
    """The one check of the box invariants, over every row of an (n, 4) corner array.

    A box is valid when its coordinates are finite and non-negative, ``x2 >
    x1``, ``y2 > y1``, ``x2 <= max_x`` and ``y2 <= max_y``; each extent is
    one number for every row or an (n,) array of one per row. Returns the
    validity mask and, for each rejected row in row order, the first of these
    it breaks. Degenerate boxes are rejected, never repaired.
    """
    x1, y1, x2, y2 = coords.T
    broken = [
        ~np.isfinite(coords).all(axis=1),
        (coords < 0).any(axis=1),
        x2 <= x1,
        y2 <= y1,
        x2 > max_x,
        y2 > max_y,
    ]
    valid = ~reduce(np.logical_or, broken)
    if valid.all():  # the common case
        return valid, {}
    reasons = {}
    extents = np.broadcast_to(max_x, valid.shape), np.broadcast_to(max_y, valid.shape)
    for row in np.flatnonzero(~valid).tolist():
        first = next(index for index, rows in enumerate(broken) if rows[row])
        reasons[row] = _FAULTS[first].format(coords[row].tolist(), *(float(e[row]) for e in extents))
    return valid, reasons


def validate_box(box: Box, space: CoordinateSpace) -> tuple[bool, str | None]:
    """``validate_boxes`` for one box: ``(True, None)`` or ``(False, reason)``."""
    reason = validate_boxes(box_array((box,)), space.max_x, space.max_y)[1].get(0)
    return reason is None, reason


def iou(a: Box, b: Box) -> float:
    """``iou_matrix`` for one pair of boxes sharing one coordinate space.

    Raises ``InvalidBoxError`` for a box that breaks a space-independent
    invariant.
    """
    rows = box_array((a, b))
    faults = validate_boxes(rows, math.inf, math.inf)[1]
    if faults:
        row = min(faults)
        raise InvalidBoxError(f"invalid box {tuple(rows[row].tolist())}: {faults[row]}")
    return float(iou_matrix(rows[:1], rows[1:])[0, 0])


def box_array(boxes: Iterable[Box]) -> np.ndarray:
    """Corner coordinates of ``boxes`` as an (n, 4) float64 array."""
    return np.array([box.coords() for box in boxes], dtype=float).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise intersection over union of (n, 4) and (g, 4) corner arrays, as (n, g).

    Area is continuous, ``(x2 - x1) * (y2 - y1)`` with no one-pixel
    correction, so boxes that merely touch have intersection measure zero and
    IoU 0. An intersection that underflows to zero also gives IoU 0. The
    boxes must already be valid; they are not checked here.
    """
    return _iou(a.T[:, :, None], b.T[:, None, :])


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each box of a corner array (..., 4) with the box at the same position of another.

    The leading axes broadcast: two (n, 4) arrays give (n,), and (n, 1, 4)
    against (n, w, 4) gives each row's IoU with its own w boxes, as (n, w).
    The formula and its conditions are ``iou_matrix``'s, so each pair gets
    the value ``iou_matrix`` gives it, bit for bit.
    """
    return _iou(np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0))


def _iou(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The one IoU formula, over corner coordinates ``p[0..3]`` and ``t[0..3]`` that broadcast."""
    # width, then width * height in place: one whole-group matrix fewer alive at a time
    inter = np.maximum(np.minimum(p[2], t[2]) - np.maximum(p[0], t[0]), 0.0)
    inter *= np.maximum(np.minimum(p[3], t[3]) - np.maximum(p[1], t[1]), 0.0)
    union = (p[2] - p[0]) * (p[3] - p[1]) + (t[2] - t[0]) * (t[3] - t[1]) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0.0)


def to_space(box: Box, src: CoordinateSpace, dst: CoordinateSpace) -> Box:
    """One box, which must be valid in ``src``, rescaled by ``conversion_factors`` to ``dst``.

    Converting between identical kinds returns the box unchanged.
    """
    multiplier, divisor = conversion_factors(src, dst)
    rows = box_array((box,))
    fault = validate_boxes(rows, src.max_x, src.max_y)[1].get(0)
    if fault is not None:
        raise InvalidBoxError(f"box {tuple(rows[0].tolist())} invalid in source space: {fault}")
    if src.kind == dst.kind:
        return box
    # multiply before dividing: integer-valued coordinates stay exact
    return Box(*(rows[0] * multiplier / divisor).tolist())


def conversion_factors(src: CoordinateSpace, dst: CoordinateSpace) -> tuple[np.ndarray, np.ndarray]:
    """The (4,) multiplier and divisor of a conversion from ``src`` to ``dst``: ``coords * multiplier / divisor``.

    ``src`` and ``dst`` must describe one image, else ``SpaceMismatchError``;
    two spaces of one kind give ones, which leave every coordinate as it is.
    """
    if (src.width, src.height) != (dst.width, dst.height):
        raise SpaceMismatchError(
            f"cannot convert between images {src.width}x{src.height} "
            f"and {dst.width}x{dst.height}"
        )
    if src.kind is dst.kind:
        one = np.ones(4)
        return one, one
    extent = np.array([src.width, src.height] * 2, dtype=float)
    scale = np.full(4, THOUSANDTHS_EXTENT)
    if src.kind is SpaceKind.THOUSANDTHS:
        return extent, scale
    return scale, extent
