"""Independent slow reference implementations for checking the fast paths.

Assignment optima are found by exhaustive enumeration, the canonical
tie-break by repeated sub-solves, statistics by compensated summation, and
detection metrics by a direct transcription of the textbook procedure, and
box validity, IoU and space conversion by scalar formulas; none of these
imports engine internals beyond plain data. Three are exceptions.
``reference_breakdowns`` is the per-completion, per-box scoring path composed
from the engine's public single-completion functions and the scalar box
formulas. ``sequential_evaluate`` is the per-image evaluation loop that
``metrics.evaluate``'s dataset-level array pass replaced; it uses the
engine's box check and IoU kernel and is exact, where ``reference_evaluate``
agrees within 1e-6. ``series_by_series_logprobs`` reads a log-prob record
with the engine's ``read_numbers``, one series at a time, then checks it
value by value, the way records were read before they became arrays;
``tuple_kl`` and ``tuple_log_ratio`` are the KL and ratio formulas on such
tuples.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import Counter, defaultdict
from functools import lru_cache
from itertools import islice

import numpy as np
from scipy.optimize import linear_sum_assignment

from locscore.errors import InvalidBoxError, LengthMismatchError, NonFiniteInputError
from locscore.fields import read_numbers
from locscore.geometry import THOUSANDTHS_EXTENT, Box, SpaceKind, box_array, iou_matrix, validate_boxes
from locscore.matching import match
from locscore.metrics import IOU_THRESHOLDS, MAX_DETECTIONS_PER_IMAGE, EvalResult
from locscore.parsing import extract_objects, normalize_label, parse_completion
from locscore.rewards import score_matches


def mean_std(values):
    """Compensated population mean/std, independent of numpy reductions."""
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def series_by_series_logprobs(entry) -> tuple[tuple[float, ...], ...]:
    """A log-prob record's ``policy``, ``old`` and ``ref`` as tuples of floats; raises on a fault.

    Each series is read by ``read_numbers`` in turn, then the lengths are
    compared, then each value is checked, series by series.
    """
    series = tuple(read_numbers(entry, key) for key in ("policy", "old", "ref"))
    n = len(series[0])
    if n < 1 or any(len(values) != n for values in series):
        raise LengthMismatchError("policy/old/ref must have equal length >= 1")
    for value in itertools.chain(*series):
        if not math.isfinite(value):
            raise NonFiniteInputError("log-probabilities must be finite")
        if value > 0:
            raise ValueError(f"log-probabilities must be <= 0, got {value}")
    return series


def tuple_kl(policy, ref, sequence: bool) -> float:
    """The KL estimate of ``grpo.kl_estimate`` on tuples of floats: k3, or the sequence log ratio."""
    policy = np.asarray(policy, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if sequence:
        return float(policy.sum() - ref.sum())
    diff = ref - policy
    return float(np.mean(np.expm1(diff) - diff))


def tuple_log_ratio(policy, old) -> float:
    """``grpo.sequence_log_ratio``'s unclamped sum on tuples of floats."""
    return float(np.sum(policy) - np.sum(old))


@lru_cache(maxsize=None)
def _perm_array(n: int, k: int) -> np.ndarray:
    perms = list(itertools.permutations(range(n), k))
    return np.array(perms, dtype=np.intp).reshape(len(perms), k)


def min_assignment_cost(cost: np.ndarray) -> float:
    """Exhaustive minimum total cost over all maximal injective assignments."""
    m, g = cost.shape
    if m == 0 or g == 0:
        return 0.0
    if m >= g:
        perms = _perm_array(m, g)  # which prediction serves each ground truth
        totals = cost[perms, np.arange(g)].sum(axis=1)
    else:
        perms = _perm_array(g, m)  # which ground truth serves each prediction
        totals = cost[np.arange(m), perms].sum(axis=1)
    return float(totals.min())


def assignment_total(cost: np.ndarray, pairs) -> float:
    """Total cost of a specific assignment, summed exactly like the oracle."""
    m, g = cost.shape
    if not pairs:
        return 0.0
    if m >= g:
        ordered = sorted(pairs, key=lambda p: p[1])  # ground-truth order
    else:
        ordered = sorted(pairs, key=lambda p: p[0])
    return float(np.array([cost[i, j] for i, j in ordered]).sum())


def _lsa_total(cost: np.ndarray) -> float:
    if cost.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def reference_canonical_pairs(cost: np.ndarray, atol: float = 1e-9) -> list[tuple[int, int]]:
    """Minimum-cost maximal assignment, canonical among cost ties, by sub-solves.

    Scanning predictions (rows) in order, each takes the lowest ground truth
    (column) whose choice still completes to the optimal total of the
    remaining block, or is left out when every optimum leaves it out. Exactly
    ``min(m, g)`` pairs are produced. ``atol`` compares totals, so it only
    absorbs float summation order. O(m * g) solves: the slow reference for
    ``locscore.matching._canonical_pairs``.
    """
    m, g = cost.shape
    need = min(m, g)
    if need == 0:
        return []
    pairs: list[tuple[int, int]] = []
    remaining = list(range(g))
    for i in range(m):
        if need == 0:
            break
        target = _lsa_total(cost[np.ix_(range(i, m), remaining)])
        chosen = None
        for j in remaining:
            if need > 1:
                rest = [c for c in remaining if c != j]
                completion = _lsa_total(cost[np.ix_(range(i + 1, m), rest)])
            else:
                completion = 0.0
            if abs(cost[i, j] + completion - target) <= atol:
                chosen = j
                break
        if chosen is None:
            if m - i - 1 >= need:
                # every optimum leaves prediction i out
                continue
            # numeric safety net (unreachable in practice): accept the plain
            # solver's pairing for the remaining block
            sub = cost[np.ix_(range(i, m), remaining)]
            rows, cols = linear_sum_assignment(sub)
            pairs.extend((i + int(r), remaining[int(c)]) for r, c in zip(rows, cols))
            return pairs
        pairs.append((i, chosen))
        remaining.remove(chosen)
        need -= 1
    return pairs


def padded_reduced_costs(cost: np.ndarray, rows: np.ndarray, real_cols: np.ndarray) -> np.ndarray:
    """Reduced costs on ``cost`` padded with zeros to an n x n square (n =
    max(m, g)), under dual potentials of the solver's optimum ``rows[e] ->
    real_cols[e]``, completed to a perfect matching in which the rows left
    out take the spare columns, both in ascending order.

    The column potentials are Jacobi Bellman-Ford rounds (at most n) over
    ``v_j <= v_cols[i] + c_ij - c_i,cols[i]``: the square that
    ``locscore.matching._reduced_costs`` collapses to one dummy column or
    row, kept as the reference for that collapse.
    """
    m, g = cost.shape
    n = max(m, g)
    cols = np.full(n, -1)
    cols[rows] = real_cols
    spare = np.ones(n, dtype=bool)
    spare[real_cols] = False
    cols[cols < 0] = np.flatnonzero(spare)
    slack = np.zeros((n, n))
    slack[:m, :g] = cost
    slack -= slack[np.arange(n), cols][:, None]
    v = np.zeros(n)
    reduced = slack.copy()
    for _ in range(n):
        relaxed = reduced.min(axis=0)
        if not (relaxed < v).any():
            break
        v = np.minimum(v, relaxed)
        np.add(slack, v[cols][:, None], out=reduced)
    return reduced - v


def box_fault_xyxy(box, max_x=math.inf, max_y=math.inf):
    """First invariant an (x1, y1, x2, y2) box breaks, or None: the scalar
    reference for ``geometry.validate_boxes``."""
    x1, y1, x2, y2 = box
    if not all(math.isfinite(v) for v in box):
        return "coordinate is not finite"
    if min(box) < 0:
        return "coordinate is negative"
    if x2 <= x1:
        return "x2 <= x1 (non-positive width)"
    if y2 <= y1:
        return "y2 <= y1 (non-positive height)"
    if x2 > max_x:
        return f"x2 = {x2} exceeds extent {max_x}"
    if y2 > max_y:
        return f"y2 = {y2} exceeds extent {max_y}"
    return None


def iou_xyxy(a, b) -> float:
    """IoU of two valid (x1, y1, x2, y2) boxes: the scalar reference for
    ``geometry.iou_matrix``. An intersection that underflows to zero gives 0."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    if inter == 0.0:
        return 0.0
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    return inter / (area_a + area_b - inter)


def to_space_xyxy(box, src, dst):
    """A valid (x1, y1, x2, y2) box rescaled from space ``src`` to ``dst`` of
    the same image, multiplying before dividing: the scalar reference for
    ``geometry.to_space`` and for ``geometry.conversion_factors`` as the group
    kernel applies them."""
    if src.kind == dst.kind:
        return tuple(box)
    extent = (src.width, src.height, src.width, src.height)
    if src.kind is SpaceKind.THOUSANDTHS:
        return tuple(v * e / THOUSANDTHS_EXTENT for v, e in zip(box, extent))
    return tuple(v * THOUSANDTHS_EXTENT / e for v, e in zip(box, extent))


def _norm(label: str) -> str:
    return " ".join(label.split()).casefold()


def reference_evaluate(predictions, images, thresholds, max_dets: int = 100):
    """Textbook detection metrics over tiny scenes.

    ``images``: list of (image_id, gts) with gts = [(label, (x1,y1,x2,y2))].
    ``predictions``: {image_id: [(label, (x1,y1,x2,y2))]} in rank order.
    Returns a dict with ap_per_iou / map / ap50 / ap75 / ar100. Categories are
    all labels appearing in any ground truth; every detection has score 1.0
    and rank = (image position, emission position).
    """
    categories = []
    for _, gts in images:
        for label, _ in gts:
            key = _norm(label)
            if key not in categories:
                categories.append(key)
    ap_per_iou = {}
    recalls = []
    for t in thresholds:
        per_cat_ap = []
        for cat in categories:
            npos = 0
            flags = []
            for image_id, gts in images:
                cat_gts = [box for label, box in gts if _norm(label) == cat]
                npos += len(cat_gts)
                dets = [
                    box
                    for label, box in predictions.get(image_id, [])
                    if _norm(label) == cat
                ][:max_dets]
                taken = set()
                for det in dets:
                    best_j = -1
                    best_v = -1.0
                    for j, gt_box in enumerate(cat_gts):
                        if j in taken:
                            continue
                        v = iou_xyxy(det, gt_box)
                        if v > best_v:
                            best_j, best_v = j, v
                    if best_j >= 0 and best_v >= t:
                        taken.add(best_j)
                        flags.append(1)
                    else:
                        flags.append(0)
            # 101-point interpolated AP
            if npos == 0:
                continue
            ap = 0.0
            if flags:
                cum_tp = 0
                points = []  # (recall, precision)
                for rank, flag in enumerate(flags, start=1):
                    cum_tp += flag
                    points.append((cum_tp / npos, cum_tp / rank))
                total = 0.0
                for i in range(101):
                    r = i / 100
                    best_p = 0.0
                    for rec, prec in points:
                        if rec >= r and prec > best_p:
                            best_p = prec
                    total += best_p
                ap = total / 101
            per_cat_ap.append(ap)
            matched = sum(flags) if flags else 0
            recalls.append(matched / npos)
        ap_per_iou[t] = sum(per_cat_ap) / len(per_cat_ap) if per_cat_ap else 0.0
    values = [ap_per_iou[t] for t in thresholds]
    return {
        "ap_per_iou": ap_per_iou,
        "map": sum(values) / len(values),
        "ap50": values[0],
        "ap75": values[5],
        "ar100": sum(recalls) / len(recalls) if recalls else 0.0,
    }


def reference_breakdowns(texts, fmt, space, gt, policy, thresholds, rules):
    """Each completion scored on its own, box by box: ``parse_completion``,
    ``extract_objects``, ``to_space_xyxy`` (dropping boxes that conversion
    makes invalid in the ground-truth space), ``match`` and ``score_matches``.
    Returns (breakdown, objects in ground-truth space) per completion: the
    slow reference for ``rewards.score_groups``.
    """
    out = []
    for text in texts:
        outcome = parse_completion(text, fmt, space)
        objects = extract_objects(outcome)
        if space.kind is not gt.space.kind:
            moved = [(label, to_space_xyxy(box.coords(), space, gt.space)) for label, box in objects]
            objects = [
                (label, Box(*box)) for label, box in moved
                if box_fault_xyxy(box, gt.space.max_x, gt.space.max_y) is None
            ]
        matches = match(objects, gt, policy)
        out.append((score_matches(outcome, matches, len(gt), thresholds, rules), objects))
    return out


def sequential_greedy_flags(ious, threshold):
    """True-positive flags of greedy matching over a detection x ground-truth IoU matrix.

    Rows are visited in rank order; each takes its best still-unused column
    (the first one on ties) and is a true positive when that IoU reaches the
    threshold. Only true positives consume their column, so a duplicate of an
    already-consumed ground truth is a false positive.
    """
    used = set()
    flags = []
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


_RECALL_GRID = tuple(i / 100 for i in range(101))


def _sequential_ap(tp_flags, npos):
    """101-point interpolated average precision from rank-ordered TP flags."""
    if npos == 0:
        return 0.0
    if not tp_flags:
        return 0.0
    precisions = []
    recalls = []
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


def sequential_evaluate(predictions, dataset):
    """``metrics.evaluate`` one image at a time: one box check, one IoU matrix
    and one greedy pass per image, category and threshold. The exact
    reference for the dataset-level array pass."""
    diagnostics = []
    normalized = [normalize_label(c) for c in dataset.categories]
    known = set(normalized)
    present = {label for img in dataset.images for label in img.gt.by_label}
    active = list(dict.fromkeys(c for c in normalized if c in present))

    # IoU rows (detection x same-category ground truth) per category and image
    ious = {c: [] for c in active}
    npos = Counter()
    unknown = 0
    for img in dataset.images:
        detections = predictions.get(img.image_id, ())
        coords = box_array(box for _, box in detections)
        for row, reason in validate_boxes(coords, img.gt.space.max_x, img.gt.space.max_y)[1].items():  # the first one
            raise InvalidBoxError(
                f"prediction box {detections[row][1].coords()} invalid in image {img.image_id}: {reason}"
            )
        per_category = defaultdict(list)
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

    ap_per_iou = {}
    recall_values = []
    for threshold in IOU_THRESHOLDS:
        ap_values = []
        for category in active:
            flags = [
                flag for rows in ious[category] for flag in sequential_greedy_flags(rows, threshold)
            ]
            ap_values.append(_sequential_ap(flags, npos[category]))
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
