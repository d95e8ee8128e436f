"""Axis-aligned box primitives: validation, IoU, and coordinate rescaling."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
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

    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def translated(self, dx: float, dy: float) -> "Box":
        return Box(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def scaled(self, factor: float) -> "Box":
        return Box(self.x1 * factor, self.y1 * factor, self.x2 * factor, self.y2 * factor)


def structural_fault(box: Box) -> str | None:
    """First space-independent invariant the box violates, or ``None``."""
    for value in box.coords():
        if not math.isfinite(value):
            return "coordinate is not finite"
    if min(box.coords()) < 0:
        return "coordinate is negative"
    if box.x2 <= box.x1:
        return "x2 <= x1 (non-positive width)"
    if box.y2 <= box.y1:
        return "y2 <= y1 (non-positive height)"
    return None


def validate_box(box: Box, space: CoordinateSpace) -> tuple[bool, str | None]:
    """Check every box invariant inside ``space``; never raises.

    Returns ``(True, None)`` for a valid box, otherwise ``(False, reason)``
    naming the first violated invariant. Degenerate boxes are rejected, never
    repaired.
    """
    fault = structural_fault(box)
    if fault is not None:
        return False, fault
    if box.x2 > space.max_x:
        return False, f"x2 = {box.x2} exceeds extent {space.max_x}"
    if box.y2 > space.max_y:
        return False, f"y2 = {box.y2} exceeds extent {space.max_y}"
    return True, None


def validate_boxes(coords: np.ndarray, space: CoordinateSpace) -> tuple[np.ndarray, dict[int, str]]:
    """``validate_box`` for every row of an (n, 4) corner array, vectorised.

    Returns the validity mask and, for each rejected row only, its reason
    from ``validate_box``, in row order.
    """
    x1, y1, x2, y2 = coords.T
    valid = np.isfinite(coords).all(axis=1) & (coords >= 0).all(axis=1)
    valid &= (x2 > x1) & (y2 > y1) & (x2 <= space.max_x) & (y2 <= space.max_y)
    return valid, {
        row: validate_box(Box(*coords[row].tolist()), space)[1]
        for row in np.flatnonzero(~valid).tolist()
    }


def _require_structural(box: Box) -> None:
    fault = structural_fault(box)
    if fault is not None:
        raise InvalidBoxError(f"invalid box {box.coords()}: {fault}")


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes sharing one coordinate space.

    Area is continuous, ``(x2 - x1) * (y2 - y1)`` with no one-pixel
    correction, so boxes that merely touch have intersection measure zero and
    IoU 0. An intersection that underflows to zero also gives IoU 0.
    """
    _require_structural(a)
    _require_structural(b)
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    if ix2 <= ix1 or iy2 <= iy1:
        return 0.0
    inter = (ix2 - ix1) * (iy2 - iy1)
    if inter == 0.0:
        return 0.0
    union = a.area() + b.area() - inter
    return inter / union


def box_array(boxes: Iterable[Box]) -> np.ndarray:
    """Corner coordinates of ``boxes`` as an (n, 4) float64 array."""
    return np.array([box.coords() for box in boxes], dtype=float).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise ``iou`` of (n, 4) and (g, 4) corner arrays, as an (n, g) array.

    The same float64 operations in the same order as ``iou``, so bit for bit
    equal to it, but without its checks: the boxes must already be valid.
    """
    p = a.T[:, :, None]
    t = b.T[:, None, :]
    # width, then width * height in place: one whole-group matrix fewer alive at a time
    inter = np.maximum(np.minimum(p[2], t[2]) - np.maximum(p[0], t[0]), 0.0)
    inter *= np.maximum(np.minimum(p[3], t[3]) - np.maximum(p[1], t[1]), 0.0)
    union = (p[2] - p[0]) * (p[3] - p[1]) + (t[2] - t[0]) * (t[3] - t[1]) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0.0)


def _require_same_image(src: CoordinateSpace, dst: CoordinateSpace) -> None:
    if (src.width, src.height) != (dst.width, dst.height):
        raise SpaceMismatchError(
            f"cannot convert between images {src.width}x{src.height} "
            f"and {dst.width}x{dst.height}"
        )


def to_space(box: Box, src: CoordinateSpace, dst: CoordinateSpace) -> Box:
    """Linearly rescale ``box`` between the pixel and thousandths conventions.

    Both spaces must describe the same image. Converting between identical
    kinds returns the box unchanged.
    """
    _require_same_image(src, dst)
    ok, reason = validate_box(box, src)
    if not ok:
        raise InvalidBoxError(f"box {box.coords()} invalid in source space: {reason}")
    if src.kind == dst.kind:
        return box
    # multiply before dividing: integer-valued coordinates stay exact
    if src.kind is SpaceKind.THOUSANDTHS:
        return Box(
            box.x1 * src.width / THOUSANDTHS_EXTENT,
            box.y1 * src.height / THOUSANDTHS_EXTENT,
            box.x2 * src.width / THOUSANDTHS_EXTENT,
            box.y2 * src.height / THOUSANDTHS_EXTENT,
        )
    return Box(
        box.x1 * THOUSANDTHS_EXTENT / src.width,
        box.y1 * THOUSANDTHS_EXTENT / src.height,
        box.x2 * THOUSANDTHS_EXTENT / src.width,
        box.y2 * THOUSANDTHS_EXTENT / src.height,
    )


def to_space_array(coords: np.ndarray, src: CoordinateSpace, dst: CoordinateSpace) -> np.ndarray:
    """``to_space`` on every row of an (n, 4) array of boxes valid in ``src``.

    The same float64 operations in the same order, so bit for bit equal to
    it; the rows are not validated again. Identical kinds return ``coords``.
    """
    _require_same_image(src, dst)
    if src.kind == dst.kind:
        return coords
    extent = np.array([src.width, src.height, src.width, src.height], dtype=float)
    if src.kind is SpaceKind.THOUSANDTHS:
        return coords * extent / THOUSANDTHS_EXTENT
    return coords * THOUSANDTHS_EXTENT / extent
