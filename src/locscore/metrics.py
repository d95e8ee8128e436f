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

``evaluate_objects`` is one array pass over the whole dataset, and
``evaluate`` reads each image's ``Box``es as float64 rows and hands them to
it. Every detection of every image is one row of an (n, 4) float64 array,
checked once against its own image's extent and named by those float
coordinates when invalid; each distinct label is normalized once. IoU is
computed once per (detection, ground truth) pair of the same image and
category that survives the 100-per-image-and-category cut, as one flat array
of pairs. The greedy matcher then takes one detection rank per step, for
every (image, category) block and every threshold at once. Memory grows with
the number of detections, ground truths and such pairs; a block is never
padded to the size of another, so one crowded image does not inflate the
rest.
``tests/oracles.py`` keeps the per-image loop it replaced as the exact
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidBoxError
from .geometry import Box, box_array, iou_pairs, validate_boxes
from .geometry import iou  # looked up by perfbench/tracing.py
from .matching import GroundTruthSet
from .parsing import normalize_label
from .sums import left_sum


def _threshold_grid() -> tuple[float, ...]:
    value = 0.5
    grid = [value]
    for _ in range(9):
        value += 0.05
        grid.append(value)
    return tuple(grid)


IOU_THRESHOLDS: tuple[float, ...] = _threshold_grid()
MAX_DETECTIONS_PER_IMAGE = 100
_RECALL_GRID = np.array([i / 100 for i in range(101)])


@dataclass(frozen=True)
class EvalImage:
    """An image and its ground truth; predictions are checked against ``gt.space``."""

    image_id: str
    gt: GroundTruthSet


@dataclass(frozen=True)
class EvalDataset:
    images: tuple[EvalImage, ...]
    categories: tuple[str, ...]

    def __post_init__(self) -> None:
        ids = [img.image_id for img in self.images]
        if len(set(ids)) != len(ids):
            raise ValueError("image ids must be unique")
        known = set(self.category_keys)
        for img in self.images:
            missing = img.gt.by_label.keys() - known
            if missing:
                label = min(missing)
                raise ValueError(f"ground-truth label {label!r} missing from the category list")

    @cached_property
    def category_keys(self) -> tuple[str, ...]:
        """Each category's ``normalize_label``, in category order."""
        return tuple(normalize_label(c) for c in self.categories)


@dataclass(frozen=True)
class EvalResult:
    ap_per_iou: Mapping[float, float]
    map_5095: float
    ap50: float
    ap75: float
    ar100: float
    diagnostics: tuple[str, ...] = field(default_factory=tuple)


def _block_ranks(keys: np.ndarray) -> np.ndarray:
    """Each row's rank among the rows with its key, counting from 0 in row order."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    ranks = np.empty_like(order)
    ranks[order] = np.arange(len(ordered)) - ordered.searchsorted(ordered)
    return ranks


def _greedy_flags(
    det_keys: np.ndarray,
    det_ranks: np.ndarray,
    det_coords: np.ndarray,
    gt_keys: np.ndarray,
    gt_coords: np.ndarray,
    thresholds: Sequence[float],
) -> np.ndarray:
    """True-positive flags, (len(thresholds), n), of greedy matching within blocks.

    Detections and ground truths each carry a block key, the ground truths
    sorted by it; a detection meets only the ground truths of its own block,
    and ``det_ranks`` orders the detections of a block, from 0. IoU is
    computed once per such pair. Ranks are visited in order, every block and
    threshold at once: each detection takes its best still-unused ground
    truth (the first one on ties) and is a true positive when that IoU
    reaches the threshold. Only true positives consume their ground truth, so
    a duplicate of an already-consumed one is a false positive.
    """
    first_gt = gt_keys.searchsorted(det_keys, "left")
    counts = gt_keys.searchsorted(det_keys, "right") - first_gt
    # the detections that meet a ground truth, rank by rank, then each one's pairs
    # with its block's ground truths: rank r's pairs are one slice of the pair arrays
    order = np.argsort(det_ranks, kind="stable")
    order = order[counts[order] > 0]
    sizes = counts[order]
    ends = np.cumsum(sizes)
    heads = ends - sizes
    segment = np.repeat(np.arange(len(order)), sizes)
    pair_gt = np.arange(len(segment)) - (heads - first_gt[order])[segment]
    ious = iou_pairs(det_coords[order[segment]], gt_coords[pair_gt])
    # each detection's pairs in its order of preference: highest IoU, then first ground truth
    preference = np.lexsort((pair_gt, -ious, segment))
    pair_gt = pair_gt[preference]
    ious = np.concatenate((ious[preference], [-1.0]))  # the last is read when nothing is left

    limits = np.array(thresholds, dtype=float)[:, None]
    flags = np.zeros((len(limits), len(det_keys)), dtype=bool)
    used = np.zeros((len(limits), len(gt_keys)), dtype=bool)
    ranks = det_ranks[order]
    steps = ranks.searchsorted(np.arange(ranks.max(initial=-1) + 2)).tolist()
    positions = np.arange(len(segment))
    for first, last in zip(steps[:-1], steps[1:]):
        start, stop = heads[first], ends[last - 1]
        gts = pair_gt[start:stop]
        pick = np.minimum.reduceat(
            np.where(used[:, gts], len(segment), positions[start:stop]), heads[first:last] - start, axis=1
        )
        hit = ious[pick] >= limits
        rows, cols = hit.nonzero()
        used[rows, pair_gt[pick[rows, cols]]] = True
        flags[:, order[first:last]] = hit
    return flags


def _average_precision(flags: np.ndarray, npos: int) -> tuple[np.ndarray, np.ndarray]:
    """101-point interpolated AP and recall of each row of rank-ordered TP flags (t, n)."""
    rows, n = flags.shape
    if n == 0:
        return np.zeros(rows), np.zeros(rows)
    tp = np.cumsum(flags, axis=1)
    # precision envelope: best precision achieved at this recall or beyond
    precision = np.maximum.accumulate((tp / np.arange(1, n + 1))[:, ::-1], axis=1)[:, ::-1]
    recall = tp / npos
    picked = np.zeros((rows, len(_RECALL_GRID)))
    for row in range(rows):
        at = np.searchsorted(recall[row], _RECALL_GRID)
        reached = at < n
        picked[row, reached] = precision[row, at[reached]]
    # accumulate adds left to right, one picked precision at a time
    return np.add.accumulate(picked, axis=1)[:, -1] / len(_RECALL_GRID), recall[:, -1]


def evaluate(
    predictions: Mapping[str, Sequence[tuple[str, Box]]],
    dataset: EvalDataset,
) -> EvalResult:
    """Category-averaged AP across the IoU grid, plus average recall.

    ``predictions`` maps image ids to rank-ordered (label, box) detections in
    that image's coordinate space; missing ids mean no detections, and ids
    outside the dataset are ignored. Labels outside the category list can
    never match and are only reported in diagnostics. Raises
    ``InvalidBoxError`` naming the first invalid box in image order.
    """
    detections = [predictions.get(img.image_id, ()) for img in dataset.images]
    return evaluate_objects(
        [([label for label, _ in dets], box_array(box for _, box in dets)) for dets in detections], dataset
    )


def evaluate_objects(
    objects: Sequence[tuple[Sequence[str], np.ndarray]], dataset: EvalDataset
) -> EvalResult:
    """``evaluate`` of detections held as arrays, one (labels, (m, 4) boxes) pair per dataset image.

    The pairs follow ``dataset.images``; each holds that image's
    rank-ordered labels and boxes in its coordinate space, as the scoring
    kernel's ``RewardBreakdown.objects`` do. An invalid box is named by its
    coordinates as floats.
    """
    if len(objects) != len(dataset.images):
        raise ValueError(f"{len(objects)} detection sets for {len(dataset.images)} images")
    coords = np.concatenate([box_array(()), *(boxes for _, boxes in objects)])
    diagnostics: list[str] = []
    images = dataset.images
    known = set(dataset.category_keys)
    present = {label for img in images for label in img.gt.by_label}
    active = list(dict.fromkeys(c for c in dataset.category_keys if c in present))
    column = {category: index for index, category in enumerate(active)}

    # every detection of every image, in rank order: one row each
    image_of = np.repeat(np.arange(len(images)), [len(names) for names, _ in objects])
    extents = np.array([(img.gt.space.max_x, img.gt.space.max_y) for img in images]).reshape(-1, 2)[image_of]
    for row, reason in validate_boxes(coords, extents[:, 0], extents[:, 1])[1].items():  # the first one
        image_id = images[image_of[row]].image_id
        raise InvalidBoxError(f"prediction box {tuple(coords[row].tolist())} invalid in image {image_id}: {reason}")
    labels = [label for names, _ in objects for label in names]
    keys = {label: normalize_label(label) for label in set(labels)}
    # -1: a known category without ground truth, -2: outside the category list
    codes = {label: column.get(key, -1 if key in known else -2) for label, key in keys.items()}
    category = np.fromiter(map(codes.__getitem__, labels), dtype=np.intp, count=len(labels))
    unknown = int(np.count_nonzero(category == -2))
    if unknown:
        diagnostics.append(
            f"{unknown} prediction(s) with labels outside the category list; "
            "counted as false positives"
        )

    # blocks are (image, category); the first 100 detections of each are kept
    block = image_of * len(active) + category
    matched = np.flatnonzero(category >= 0)
    ranks = _block_ranks(block[matched])
    kept = ranks < MAX_DETECTIONS_PER_IMAGE
    rows, ranks = matched[kept], ranks[kept]
    gt_category = np.fromiter((column[key] for img in images for key in img.gt.label_keys), dtype=np.intp)
    gt_image = np.repeat(np.arange(len(images)), [len(img.gt) for img in images])
    gt_block = gt_image * len(active) + gt_category
    gt_coords = np.concatenate([box_array(()), *(img.gt.coords for img in images)])
    gt_order = np.argsort(gt_block, kind="stable")
    flags = _greedy_flags(
        block[rows], ranks, coords[rows], gt_block[gt_order], gt_coords[gt_order], IOU_THRESHOLDS
    )

    # each category's detections in rank order: image, then emission
    by_category = np.argsort(category[rows], kind="stable")
    flags = flags[:, by_category]
    bounds = category[rows][by_category].searchsorted(np.arange(len(active) + 1)).tolist()
    npos = np.bincount(gt_category, minlength=len(active)).tolist()
    ap = np.zeros((len(IOU_THRESHOLDS), len(active)))
    recall = np.zeros_like(ap)
    for index in range(len(active)):
        ap[:, index], recall[:, index] = _average_precision(
            flags[:, bounds[index] : bounds[index + 1]], npos[index]
        )

    ap_per_iou = {
        threshold: left_sum(values) / len(values) if values else 0.0
        for threshold, values in zip(IOU_THRESHOLDS, ap.tolist())
    }
    recall_values = [value for values in recall.tolist() for value in values]
    if not active:
        diagnostics.append("no category has ground-truth instances; all metrics are 0")
    ap_list = [ap_per_iou[t] for t in IOU_THRESHOLDS]
    return EvalResult(
        ap_per_iou=ap_per_iou,
        map_5095=left_sum(ap_list) / len(ap_list),
        ap50=ap_per_iou[IOU_THRESHOLDS[0]],
        ap75=ap_per_iou[IOU_THRESHOLDS[5]],
        ar100=(left_sum(recall_values) / len(recall_values)) if recall_values else 0.0,
        diagnostics=tuple(diagnostics),
    )
