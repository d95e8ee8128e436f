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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .errors import InvalidConfigError
from .geometry import Box, CoordinateSpace, structural_fault, to_space
from .matching import GroundTruthSet, MatchedPrediction, MatcherPolicy, match
from .parsing import CompletionFormat, ParseOutcome, extract_objects, parse_completion


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
    """Beginner/advanced threshold triples and the switch point between them."""

    beginner: ThresholdTriple = BEGINNER_THRESHOLDS
    advanced: ThresholdTriple = ADVANCED_THRESHOLDS
    step_fraction: float = 0.5

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "PhaseConfig":
        _check_triple("beginner", ThresholdTriple(*self.beginner))
        _check_triple("advanced", ThresholdTriple(*self.advanced))
        if not 0.0 < self.step_fraction <= 1.0:
            raise InvalidConfigError(f"step_fraction must lie in (0, 1], got {self.step_fraction}")
        return self


def in_advanced_phase(cfg: PhaseConfig, progress: float) -> bool:
    """The advanced phase starts at ``step_fraction``; 1 disables it entirely."""
    return cfg.step_fraction < 1.0 and progress >= cfg.step_fraction


def phase_thresholds(cfg: PhaseConfig, progress: float) -> ThresholdTriple:
    """Active thresholds at a training-progress fraction (completed / total)."""
    triple = cfg.advanced if in_advanced_phase(cfg, progress) else cfg.beginner
    return ThresholdTriple(*triple)


def differentiate(x: float, xi1: float, xi2: float) -> float:
    """Sharpened reward map: 1 at or above xi2, 0 below xi1, identity between."""
    if x >= xi2:
        return 1.0
    if x < xi1:
        return 0.0
    return x


def dual_format_reward(outcome: ParseOutcome) -> float:
    """1 only when both the template and content checks pass."""
    return 1.0 if outcome.template_ok and outcome.content_ok else 0.0


def _is_valid(m: MatchedPrediction, xi0: float, require_label: bool) -> bool:
    if m.iou < xi0:
        return False
    return m.label_correct if require_label else True


def count_valid(
    matches: Sequence[MatchedPrediction], xi0: float, require_label: bool = True
) -> int:
    return sum(1 for m in matches if _is_valid(m, xi0, require_label))


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
    if n_gt == 0:
        return 1.0 if len(matches) == 0 else 0.0
    raw = count_valid(matches, t.xi0, require_label) / n_gt
    return differentiate(raw, t.xi1, t.xi2)


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
    total = len(matches)
    if total == 0:
        return 1.0 if n_gt == 0 else 0.0
    sharpened = sum(
        differentiate(m.iou, t.xi1, t.xi2) for m in matches if _is_valid(m, t.xi0, require_label)
    )
    return sharpened / total


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
    # the matched predictions, in ground-truth space; in-process only, never on the wire
    matches: tuple[MatchedPrediction, ...] = field(default=(), compare=False, repr=False)


def score_matches(
    outcome: ParseOutcome,
    matches: Sequence[MatchedPrediction],
    n_gt: int,
    thresholds: ThresholdTriple,
    rules: RewardRules = RewardRules(),
) -> RewardBreakdown:
    """Assemble the per-completion breakdown from parsed and matched pieces."""
    t = ThresholdTriple(*thresholds)
    dual = dual_format_reward(outcome) if rules.use_dual_format else 0.0
    rec = recall_reward(matches, n_gt, t, rules.require_label_match) if rules.use_recall else 0.0
    prec = (
        precision_reward(matches, n_gt, t, rules.require_label_match)
        if rules.use_precision
        else 0.0
    )
    return RewardBreakdown(
        dual_format=dual,
        recall=rec,
        precision=prec,
        total=dual + rec + prec,
        m_predictions=len(matches),
        n_gt=n_gt,
        n_valid=count_valid(matches, t.xi0, rules.require_label_match),
        matches=tuple(matches),
    )


def completion_objects(
    text: str,
    fmt: CompletionFormat,
    space: CoordinateSpace,
    gt_space: CoordinateSpace,
) -> tuple[ParseOutcome, list[tuple[str, Box]]]:
    """Parse one completion and return its objects in the ground-truth space.

    ``space`` declares the coordinate convention of the completion itself.
    Boxes that rounding collapses on conversion are dropped.
    """
    outcome = parse_completion(text, fmt, space)
    objects = extract_objects(outcome)
    if space.kind is not gt_space.kind:
        moved = [(label, to_space(box, space, gt_space)) for label, box in objects]
        objects = [(label, box) for label, box in moved if structural_fault(box) is None]
    return outcome, objects


def score_completion(
    text: str,
    fmt: CompletionFormat,
    space: CoordinateSpace,
    gt: GroundTruthSet,
    policy: MatcherPolicy = MatcherPolicy.BOX_ONLY,
    cfg: PhaseConfig = PhaseConfig(),
    progress: float = 0.0,
    rules: RewardRules = RewardRules(),
) -> RewardBreakdown:
    """Parse, match, and reward one completion against its ground truth.

    ``space`` declares the coordinate convention of the completion itself;
    extracted boxes are converted to the ground-truth space before matching.
    Pure in all arguments.
    """
    thresholds = phase_thresholds(cfg, progress)
    outcome, objects = completion_objects(text, fmt, space, gt.space)
    matches = match(objects, gt, policy)
    return score_matches(outcome, matches, len(gt.instances), thresholds, rules)
