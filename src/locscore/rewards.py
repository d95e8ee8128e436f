"""Criterion rewards for one completion and the two-phase threshold schedule.

Each completion earns three components, all in [0, 1]:

* dual format — 1 only when the completion satisfies both the template
  grammar and the coordinate-content constraints;
* recall — fraction of ground-truth instances covered by valid predictions,
  sharpened by the differentiation map;
* precision — sum of per-instance sharpened IoUs of valid predictions,
  divided by the total prediction count (spurious boxes dilute it).

A prediction is valid when its matched IoU reaches the active xi0 threshold
and (by default) its label matches. Thresholds follow a beginner/advanced
schedule that switches at a configured fraction of training progress.

``score_groups`` is the group kernel, over a block of groups at once: every
box of the block is parsed and validated once as one array, moved into its
ground-truth space together, and matched through one IoU buffer in which
each row meets only its own group's ground truths, sliced per completion.
``score_completion`` is that kernel for one completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidConfigError
from .geometry import CoordinateSpace, conversion_factors, validate_boxes
from .geometry import to_space  # looked up by perfbench/tracing.py
from .matching import GroundTruthSet, MatchedPrediction, MatcherPolicy, assign_slices, cost_matrices
from .matching import match  # looked up by perfbench/tracing.py
from .parsing import FormatKind, ParsedGroup, ParseOutcome, ReadGroup, parse_block, read_completions
from .parsing import parse_completion  # looked up by perfbench/tracing.py
from .sums import left_sum

# most cells (entries x most ground truths of a group) of one block's cost,
# IoU and label matrices; a group over it is a block of its own
BLOCK_CELLS = 1 << 16


class ThresholdTriple(NamedTuple):
    xi0: float  # minimum IoU for a prediction to count as valid
    xi1: float  # sharpened values below this collapse to 0
    xi2: float  # sharpened values at or above this saturate to 1


BEGINNER_THRESHOLDS = ThresholdTriple(0.5, 0.5, 0.75)
ADVANCED_THRESHOLDS = ThresholdTriple(0.75, 0.75, 0.9)


def _check_triple(name: str, triple: ThresholdTriple) -> None:
    if not 0.0 < triple.xi0 <= 1.0:
        raise InvalidConfigError(f"{name}: xi0 must lie in (0, 1], got {triple.xi0}")
    if not 0.0 < triple.xi1 <= triple.xi2 <= 1.0:
        raise InvalidConfigError(
            f"{name}: need 0 < xi1 <= xi2 <= 1, got xi1={triple.xi1}, xi2={triple.xi2}"
        )
    if triple.xi0 > triple.xi2:
        raise InvalidConfigError(f"{name}: xi0={triple.xi0} must not exceed xi2={triple.xi2}")


@dataclass(frozen=True)
class PhaseConfig:
    """Beginner/advanced threshold triples, stored as ``ThresholdTriple``, and the switch point between them."""

    beginner: ThresholdTriple = BEGINNER_THRESHOLDS
    advanced: ThresholdTriple = ADVANCED_THRESHOLDS
    step_fraction: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "beginner", ThresholdTriple(*self.beginner))
        object.__setattr__(self, "advanced", ThresholdTriple(*self.advanced))
        self.validate()

    def validate(self) -> "PhaseConfig":
        _check_triple("beginner", self.beginner)
        _check_triple("advanced", self.advanced)
        if not 0.0 < self.step_fraction <= 1.0:
            raise InvalidConfigError(f"step_fraction must lie in (0, 1], got {self.step_fraction}")
        return self


def in_advanced_phase(cfg: PhaseConfig, progress: float) -> bool:
    """The advanced phase starts at ``step_fraction``; 1 disables it entirely."""
    return cfg.step_fraction < 1.0 and progress >= cfg.step_fraction


def phase_thresholds(cfg: PhaseConfig, progress: float) -> ThresholdTriple:
    """Active thresholds at a training-progress fraction (completed / total)."""
    return cfg.advanced if in_advanced_phase(cfg, progress) else cfg.beginner


def differentiate(x: float, xi1: float, xi2: float) -> float:
    """Sharpened reward map: 1 at or above xi2, 0 below xi1, identity between."""
    if x >= xi2:
        return 1.0
    if x < xi1:
        return 0.0
    return x


def _valid_ious(
    pairs: Iterable[tuple[float, bool]], xi0: float, require_label: bool
) -> list[float]:
    """IoUs of the valid predictions among (IoU, label matches) pairs, in order."""
    return [iou for iou, correct in pairs if not iou < xi0 and (correct or not require_label)]


def _matched_pairs(matches: Sequence[MatchedPrediction]) -> Iterable[tuple[float, bool]]:
    return ((m.iou, m.label_correct) for m in matches)


def _recall(n_valid: int, m: int, n_gt: int, t: ThresholdTriple) -> float:
    if n_gt == 0:
        return 1.0 if m == 0 else 0.0
    return differentiate(n_valid / n_gt, t.xi1, t.xi2)


def _precision(valid_ious: list[float], m: int, n_gt: int, t: ThresholdTriple) -> float:
    if m == 0:
        return 1.0 if n_gt == 0 else 0.0
    # in prediction order
    return left_sum(differentiate(v, t.xi1, t.xi2) for v in valid_ious) / m


def recall_reward(
    matches: Sequence[MatchedPrediction],
    n_gt: int,
    thresholds: ThresholdTriple,
    require_label: bool = True,
) -> float:
    """Sharpened fraction of ground truths covered by valid predictions.

    With no ground truths (negative sample) the reward is 1 for abstaining
    and 0 for predicting anything.
    """
    t = ThresholdTriple(*thresholds)
    valid = _valid_ious(_matched_pairs(matches), t.xi0, require_label)
    return _recall(len(valid), len(matches), n_gt, t)


def precision_reward(
    matches: Sequence[MatchedPrediction],
    n_gt: int,
    thresholds: ThresholdTriple,
    require_label: bool = True,
) -> float:
    """Per-instance sharpened IoU of valid predictions over the total count.

    Dividing by the total prediction count (not just the valid ones) makes
    redundant low-quality boxes pull the reward down. With no predictions the
    reward mirrors the recall convention: 1 on a negative sample, else 0.
    """
    t = ThresholdTriple(*thresholds)
    valid = _valid_ious(_matched_pairs(matches), t.xi0, require_label)
    return _precision(valid, len(matches), n_gt, t)


@dataclass(frozen=True)
class RewardRules:
    """Switches for reward variants; defaults reproduce the standard scheme."""

    require_label_match: bool = True
    use_dual_format: bool = True
    use_recall: bool = True
    use_precision: bool = True


@dataclass(frozen=True)
class RewardBreakdown:
    dual_format: float
    recall: float
    precision: float
    total: float
    m_predictions: int
    n_gt: int
    n_valid: int
    # the objects the completion was matched with, in ground-truth space: their
    # labels and an (m, 4) view of the group's coordinate array; set by
    # score_groups, in-process only, never on the wire
    objects: tuple[Sequence[str], np.ndarray] | None = field(default=None, compare=False, repr=False)


def _breakdown(
    format_ok: bool,
    m: int,
    n_gt: int,
    valid_ious: list[float],
    t: ThresholdTriple,
    rules: RewardRules,
    objects: tuple[Sequence[str], np.ndarray] | None = None,
) -> RewardBreakdown:
    dual = (1.0 if format_ok else 0.0) if rules.use_dual_format else 0.0
    rec = _recall(len(valid_ious), m, n_gt, t) if rules.use_recall else 0.0
    prec = _precision(valid_ious, m, n_gt, t) if rules.use_precision else 0.0
    return RewardBreakdown(dual, rec, prec, dual + rec + prec, m, n_gt, len(valid_ious), objects)


def score_matches(
    outcome: ParseOutcome,
    matches: Sequence[MatchedPrediction],
    n_gt: int,
    thresholds: ThresholdTriple,
    rules: RewardRules = RewardRules(),
) -> RewardBreakdown:
    """Assemble the per-completion breakdown from parsed and matched pieces."""
    t = ThresholdTriple(*thresholds)
    valid = _valid_ious(_matched_pairs(matches), t.xi0, rules.require_label_match)
    format_ok = outcome.template_ok and outcome.content_ok
    return _breakdown(format_ok, len(matches), n_gt, valid, t, rules)


class Group(NamedTuple):
    """One group's input to ``score_groups``: its completions and how to score them."""

    texts: Sequence[str]
    fmt: FormatKind  # the completions' grammar
    space: CoordinateSpace  # the completions' coordinate convention; the engine's is of kind fmt.space_kind
    gt: GroundTruthSet
    policy: MatcherPolicy
    thresholds: ThresholdTriple


def _ground_truth_rows(parsed: ParsedGroup, groups: Sequence[Group]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block's valid rows, their boxes, each in its group's ground-truth space, and their groups.

    The groups are ``parsed.group`` at those rows. Unless every group's
    completions use its ground truth's space, each row is multiplied by its
    own group's ``conversion_factors`` as ``coords * multiplier / divisor``
    (``SpaceMismatchError`` for a space of another image) and checked again
    in the ground-truth space: a box that conversion makes invalid there, by
    collapsing it or rounding it past the extent, is dropped.

    Keep the equal-space return: it saves time per stream group.
    """
    rows = np.flatnonzero(parsed.valid)
    boxes = parsed.coords[rows]
    owner = parsed.group[rows]
    if all(group.space == group.gt.space for group in groups):
        return rows, boxes, owner
    multipliers, divisors = zip(*(conversion_factors(group.space, group.gt.space) for group in groups))
    boxes = boxes * np.array(multipliers)[owner] / np.array(divisors)[owner]
    max_x, max_y = np.array([(group.gt.space.max_x, group.gt.space.max_y) for group in groups])[owner].T
    kept, _ = validate_boxes(boxes, max_x, max_y)
    return rows[kept], boxes[kept], owner[kept]


def _score_block(
    block: Sequence[tuple[Group, ReadGroup]], rules: RewardRules
) -> list[tuple[RewardBreakdown, ...]]:
    """The array stages of ``score_groups`` for one block of read groups."""
    groups = [group for group, _ in block]
    parsed = parse_block([(read, group.space) for group, read in block])
    rows, boxes, owner = _ground_truth_rows(parsed, groups)
    labels = [parsed.labels[row] for row in rows.tolist()]
    bounds = np.searchsorted(rows, parsed.bounds).tolist()
    matrices = cost_matrices(
        boxes,
        labels,
        [group.gt for group in groups],
        [group.policy for group in groups],
        owner,
    )
    assigned = assign_slices(*matrices, bounds, [len(group.gt) for group in groups for _ in group.texts])
    firsts = list(accumulate((len(group.texts) for group in groups), initial=0))
    scored = []
    for group, first, end in zip(groups, firsts, firsts[1:]):
        t = group.thresholds
        scored.append(tuple(
            _breakdown(
                parsed.content_ok[index],  # implies template_ok
                hi - lo,
                len(group.gt),
                _valid_ious(((v, ok) for _, _, v, ok in assigned[index]), t.xi0, rules.require_label_match),
                t,
                rules,
                (labels[lo:hi], boxes[lo:hi]),
            )
            for index, lo, hi in zip(range(first, end), bounds[first:end], bounds[first + 1 : end + 1])
        ))
    return scored


def score_groups(
    groups: Sequence[Group], rules: RewardRules = RewardRules()
) -> list[tuple[RewardBreakdown, ...]]:
    """Parse, match, and reward every completion of many groups, each against its own ground truth.

    Each group's ``space`` declares the coordinate convention of its
    completions. The groups' completions are read in order, and consecutive
    groups form a block while the block's matrices stay within
    ``BLOCK_CELLS`` (entries times the most ground truths of any of its
    groups); a group over it is a block of its own. A block's boxes form one
    array: validated once, each row against its own group's extent, and
    converted to the ground-truth spaces once. They are matched through one
    IoU, cost and label-agreement buffer in which a row meets only its own
    group's ground truths; each completion's slice of it goes to the
    canonical matcher on its own. Each group's breakdowns are those of the
    group scored alone, bit for bit, and equal ``score_matches`` on
    ``parse_completion``, ``extract_objects``, ``to_space`` and ``match``,
    where a box that conversion makes invalid in the ground-truth space is
    dropped. Each group's ``thresholds`` are checked as it is read, and its
    ``space`` must describe its ground truth's image (``SpaceMismatchError``).
    """
    scored: list[tuple[RewardBreakdown, ...]] = []
    block: list[tuple[Group, ReadGroup]] = []
    rows = width = 0
    for group in groups:
        _check_triple("thresholds", group.thresholds)  # xi0 > 0: a prediction left unassigned is never valid
        read = read_completions(group.texts, group.fmt)
        if block and (rows + len(read.labels)) * max(width, len(group.gt)) > BLOCK_CELLS:
            scored += _score_block(block, rules)
            block, rows, width = [], 0, 0
        block.append((group, read))
        rows, width = rows + len(read.labels), max(width, len(group.gt))
    if block:
        scored += _score_block(block, rules)
    return scored


def score_completion(
    text: str,
    fmt: FormatKind,
    space: CoordinateSpace,
    gt: GroundTruthSet,
    policy: MatcherPolicy = MatcherPolicy.BOX_ONLY,
    cfg: PhaseConfig = PhaseConfig(),
    progress: float = 0.0,
    rules: RewardRules = RewardRules(),
) -> RewardBreakdown:
    """Parse, match, and reward one completion against its ground truth.

    ``fmt`` names the completion's grammar and ``space`` its own coordinate convention;
    extracted boxes are converted to the ground-truth space before matching.
    Pure in all arguments.
    """
    group = Group([text], fmt, space, gt, policy, phase_thresholds(cfg, progress))
    return score_groups([group], rules)[0][0]
