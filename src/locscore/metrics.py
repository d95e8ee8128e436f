"""Detection-quality metrics: interpolated average precision and recall.

Model-emitted detections carry no confidence scores, so every detection is
treated as score 1.0 and ranked by emission order (dataset image order, then
order within the completion). Detections are truncated to the first 100 per
image and category before matching, matching consumes each ground truth at
most once, and a true positive needs a label match plus IoU at or above the
threshold. Categories without any ground-truth instance are excluded from
category averages.

The IoU threshold grid is the conventional ten steps from 0.5 to 0.95 built
by repeated 0.05 addition (as ``numpy.arange`` would). The floats drift a few
ulps above the nominal values, so a detection whose IoU is exactly a nominal
boundary such as 0.6 falls below that gridpoint; averages are reported over
these grid floats as-is.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import islice
from typing import Mapping, Sequence

from .errors import InvalidBoxError
from .geometry import Box, CoordinateSpace, box_array, iou, iou_matrix, validate_boxes
from .matching import GroundTruthSet
from .parsing import normalize_label


def _threshold_grid() -> tuple[float, ...]:
    value = 0.5
    grid = [value]
    for _ in range(9):
        value += 0.05
        grid.append(value)
    return tuple(grid)


IOU_THRESHOLDS: tuple[float, ...] = _threshold_grid()
MAX_DETECTIONS_PER_IMAGE = 100
_RECALL_GRID = tuple(i / 100 for i in range(101))


@dataclass(frozen=True)
class EvalImage:
    image_id: str
    space: CoordinateSpace
    gt: GroundTruthSet


@dataclass(frozen=True)
class EvalDataset:
    images: tuple[EvalImage, ...]
    categories: tuple[str, ...]

    def __post_init__(self) -> None:
        ids = [img.image_id for img in self.images]
        if len(set(ids)) != len(ids):
            raise ValueError("image ids must be unique")
        known = {normalize_label(c) for c in self.categories}
        for img in self.images:
            missing = img.gt.by_label.keys() - known
            if missing:
                label = min(missing)
                raise ValueError(f"ground-truth label {label!r} missing from the category list")


@dataclass(frozen=True)
class EvalResult:
    ap_per_iou: Mapping[float, float]
    map_5095: float
    ap50: float
    ap75: float
    ar100: float
    diagnostics: tuple[str, ...] = field(default_factory=tuple)


def _greedy_flags(ious: Sequence[Sequence[float]], threshold: float) -> list[bool]:
    """True-positive flags of greedy matching over a detection x ground-truth IoU matrix.

    Rows are visited in rank order; each takes its best still-unused column
    (the first one on ties) and is a true positive when that IoU reaches the
    threshold. Only true positives consume their column, so a duplicate of an
    already-consumed ground truth is a false positive.
    """
    used: set[int] = set()
    flags: list[bool] = []
    for row in ious:
        best_index = -1
        best_value = -1.0
        for index, value in enumerate(row):
            if value > best_value and index not in used:
                best_index, best_value = index, value
        hit = best_index >= 0 and best_value >= threshold
        if hit:
            used.add(best_index)
        flags.append(hit)
    return flags


def per_image_counts(
    predictions: Sequence[tuple[str, Box]],
    gt: GroundTruthSet,
    iou_threshold: float,
) -> tuple[int, int, int]:
    """Greedy TP/FP/FN counts for one image at one IoU threshold.

    Predictions are matched in rank order against the ground truths of their
    own label (see ``_greedy_flags``).
    """
    rows: dict[str, list[list[float]]] = defaultdict(list)
    for label, box in predictions:
        norm = normalize_label(label)
        rows[norm].append([iou(box, gt.instances[j].box) for j in gt.by_label.get(norm, ())])
    tp = sum(sum(_greedy_flags(label_rows, iou_threshold)) for label_rows in rows.values())
    return tp, len(predictions) - tp, len(gt.instances) - tp


def _interpolated_ap(tp_flags: Sequence[bool], npos: int) -> float:
    """101-point interpolated average precision from rank-ordered TP flags."""
    if npos == 0:
        return 0.0
    if not tp_flags:
        return 0.0
    precisions: list[float] = []
    recalls: list[float] = []
    tp_cum = 0
    for rank, flag in enumerate(tp_flags, start=1):
        tp_cum += flag
        precisions.append(tp_cum / rank)
        recalls.append(tp_cum / npos)
    # precision envelope: best precision achieved at this recall or beyond
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    total = 0.0
    for r in _RECALL_GRID:
        k = bisect_left(recalls, r)
        if k < len(recalls):
            total += precisions[k]
    return total / len(_RECALL_GRID)


def evaluate(
    predictions: Mapping[str, Sequence[tuple[str, Box]]],
    dataset: EvalDataset,
) -> EvalResult:
    """Category-averaged AP across the IoU grid, plus average recall.

    ``predictions`` maps image ids to rank-ordered (label, box) detections in
    that image's coordinate space; missing ids mean no detections. Labels
    outside the category list can never match and are only reported in
    diagnostics.
    """
    diagnostics: list[str] = []
    normalized = [normalize_label(c) for c in dataset.categories]
    known = set(normalized)
    present = {label for img in dataset.images for label in img.gt.by_label}
    active = list(dict.fromkeys(c for c in normalized if c in present))

    # IoU rows (detection x same-category ground truth) per category and image,
    # sliced in ``active`` order from one matrix per image, swept over every
    # threshold below
    ious: dict[str, list[list[list[float]]]] = {c: [] for c in active}
    npos: Counter[str] = Counter()
    unknown = 0
    for img in dataset.images:
        detections = predictions.get(img.image_id, ())
        coords = box_array(box for _, box in detections)
        for row, reason in validate_boxes(coords, img.space)[1].items():  # the first one
            raise InvalidBoxError(
                f"prediction box {detections[row][1].coords()} invalid in image {img.image_id}: {reason}"
            )
        per_category: dict[str, list[int]] = defaultdict(list)
        for row, (label, _) in enumerate(detections):
            norm = normalize_label(label)
            if norm not in known:
                unknown += 1
                continue
            if len(per_category[norm]) < MAX_DETECTIONS_PER_IMAGE:
                per_category[norm].append(row)
        order = [row for category in active for row in per_category.get(category, ())]
        rows = iter(iou_matrix(coords[order], img.gt.coords).tolist() if order else ())
        for category in active:
            cols = img.gt.by_label.get(category, ())
            npos[category] += len(cols)
            dets = per_category.get(category)
            if dets:
                ious[category].append([[row[j] for j in cols] for row in islice(rows, len(dets))])
    if unknown:
        diagnostics.append(
            f"{unknown} prediction(s) with labels outside the category list; "
            "counted as false positives"
        )

    ap_per_iou: dict[float, float] = {}
    recall_values: list[float] = []
    for threshold in IOU_THRESHOLDS:
        ap_values: list[float] = []
        for category in active:
            flags = [
                flag for rows in ious[category] for flag in _greedy_flags(rows, threshold)
            ]
            ap_values.append(_interpolated_ap(flags, npos[category]))
            recall_values.append(sum(flags) / npos[category])
        ap_per_iou[threshold] = sum(ap_values) / len(ap_values) if ap_values else 0.0

    if not active:
        diagnostics.append("no category has ground-truth instances; all metrics are 0")
    ap_list = [ap_per_iou[t] for t in IOU_THRESHOLDS]
    return EvalResult(
        ap_per_iou=ap_per_iou,
        map_5095=sum(ap_list) / len(ap_list),
        ap50=ap_per_iou[IOU_THRESHOLDS[0]],
        ap75=ap_per_iou[IOU_THRESHOLDS[5]],
        ar100=(sum(recall_values) / len(recall_values)) if recall_values else 0.0,
        diagnostics=tuple(diagnostics),
    )
