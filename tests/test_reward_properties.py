"""Reward properties through the group kernel, on integer-grid boxes of a
1000x1000 image (and of 6x6 and 40x40 ones, where ties are common), under
both matcher policies: bounded components summing to the total, order of
completions and of advantages, the two completion formats, the two
threshold phases, and a box that misses every ground truth."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locscore.geometry import Box, CoordinateSpace, iou, pixel_space
from locscore.harness.engine import score_group
from locscore.harness.wire import ScoringRequest
from locscore.matching import GroundTruthSet, MatcherPolicy
from locscore.metrics import EvalImage
from locscore.parsing import FormatKind, emit_plain, emit_structured
from locscore.rewards import ADVANCED_THRESHOLDS, BEGINNER_THRESHOLDS, Group, score_groups

SIDE = 1000
LABELS = ("cat", "dog", "traffic light")
POLICIES = pytest.mark.parametrize("policy", list(MatcherPolicy))


# |advantage of a completion - advantage of its permuted copy|: the mean and
# standard deviation are summed in another order
ADVANTAGE_TOLERANCE = 1e-9


@st.composite
def scenes(draw, side=SIDE):
    """Ground truths and 1-5 completions on a ``side`` x ``side`` grid; a
    prediction is a random grid box (zero width or height now and then) or a
    ground truth moved by a few steps (at most ``side // 25``)."""

    def grid_box(strict):
        x1, y1 = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))
        low = 1 if strict else 0
        return x1, y1, draw(st.integers(x1 + low, side)), draw(st.integers(y1 + low, side))

    def near(box):
        step = side // 25
        moved = tuple(min(max(value + draw(st.integers(-step, step)), 0), side) for value in box)
        return moved if moved[0] < moved[2] and moved[1] < moved[3] else box

    gt = [(draw(st.sampled_from(LABELS)), grid_box(True)) for _ in range(draw(st.integers(0, 5)))]
    completions = []
    for _ in range(draw(st.integers(1, 5))):
        boxes = []
        for _ in range(draw(st.integers(0, 6))):
            box = near(draw(st.sampled_from(gt))[1]) if gt and draw(st.booleans()) else grid_box(False)
            boxes.append((draw(st.sampled_from(LABELS)), box))
        completions.append(boxes)
    return gt, completions


def _texts(completions, fmt=FormatKind.STRUCTURED, order=None):
    emit = emit_plain if fmt is FormatKind.PLAIN else emit_structured
    texts = [emit([(label, Box(*map(float, box))) for label, box in boxes]) for boxes in completions]
    return texts if order is None else [texts[index] for index in order]


def _truth(gt, side=SIDE):
    return GroundTruthSet.from_pairs([(label, Box(*map(float, box))) for label, box in gt], pixel_space(side, side))


def score(scene, policy, fmt=FormatKind.STRUCTURED, thresholds=BEGINNER_THRESHOLDS, order=None, side=SIDE):
    """The breakdowns of the scene's completions, in ``order`` if given, as one group."""
    gt, completions = scene
    space = CoordinateSpace(fmt.space_kind, side, side)
    return score_groups([Group(_texts(completions, fmt, order), fmt, space, _truth(gt, side), policy, thresholds)])[0]


@POLICIES
@given(scenes(), st.sampled_from([FormatKind.STRUCTURED, FormatKind.PLAIN]), st.sampled_from([BEGINNER_THRESHOLDS, ADVANCED_THRESHOLDS]))
@settings(max_examples=150, deadline=None)
def test_components_lie_in_unit_interval_and_sum_to_the_total(policy, scene, fmt, thresholds):
    for b in score(scene, policy, fmt, thresholds):
        assert all(0.0 <= value <= 1.0 for value in (b.dual_format, b.recall, b.precision))
        assert b.total == b.dual_format + b.recall + b.precision


@POLICIES
@given(st.data())
@settings(max_examples=150, deadline=None)
def test_permuting_completions_permutes_breakdowns(policy, data):
    scene = data.draw(scenes())
    order = data.draw(st.permutations(range(len(scene[1]))))
    breakdowns = score(scene, policy)
    assert score(scene, policy, order=order) == tuple(breakdowns[index] for index in order)


@POLICIES
@given(scenes())
@settings(max_examples=150, deadline=None)
def test_plain_and_structured_forms_agree(policy, scene):
    assert score(scene, policy, FormatKind.PLAIN) == score(scene, policy, FormatKind.STRUCTURED)


@POLICIES
@given(scenes(), st.sampled_from([FormatKind.STRUCTURED, FormatKind.PLAIN]))
@settings(max_examples=150, deadline=None)
def test_advanced_thresholds_never_reward_more(policy, scene, fmt):
    beginner = score(scene, policy, fmt, BEGINNER_THRESHOLDS)
    advanced = score(scene, policy, fmt, ADVANCED_THRESHOLDS)
    for easy, hard in zip(beginner, advanced):
        assert hard.recall <= easy.recall
        assert hard.precision <= easy.precision
        assert hard.total <= easy.total


@POLICIES
@given(st.data(), st.sampled_from([6, 40, SIDE]), st.sampled_from([BEGINNER_THRESHOLDS, ADVANCED_THRESHOLDS]))
@settings(max_examples=300, deadline=None)
def test_appending_a_box_that_misses_every_ground_truth_never_raises_recall_or_precision(
    policy, data, side, thresholds
):
    """Appended, and under box-label with a label no ground truth carries:
    the pinned cases below show each condition is needed."""
    gt, completions = data.draw(scenes(side))
    which = data.draw(st.integers(0, len(completions) - 1))
    x1, y1 = data.draw(st.integers(0, side - 1)), data.draw(st.integers(0, side - 1))
    box = (x1, y1, data.draw(st.integers(x1 + 1, min(side, x1 + max(1, side // 8)))),
           data.draw(st.integers(y1 + 1, min(side, y1 + max(1, side // 8)))))
    assume(all(iou(Box(*map(float, box)), Box(*map(float, g))) == 0.0 for _, g in gt))
    label = data.draw(st.sampled_from(LABELS + ("kite",)))
    assume(policy is MatcherPolicy.BOX_ONLY or label not in {name for name, _ in gt})
    appended = [list(boxes) for boxes in completions]
    appended[which].append((label, box))
    before = score((gt, completions), policy, thresholds=thresholds, side=side)[which]
    after = score((gt, appended), policy, thresholds=thresholds, side=side)[which]
    assert after.recall <= before.recall
    assert after.precision <= before.precision


def _decoy_scores(gt, completion, decoy, at, policy):
    """(recall, precision, n_valid, total) of ``completion`` on a 40x40 image, without and with ``decoy`` at ``at``."""
    with_decoy = list(completion)
    with_decoy.insert(at, decoy)
    return [
        (b.recall, b.precision, b.n_valid, b.total)
        for b in score((gt, [completion, with_decoy]), policy, side=40)
    ]


# Shrunk by hypothesis, under box-label: the decoy costs 1.0 against a "cat"
# ground truth, as much as the "dog" box that held one, so the dog goes
# unassigned and the [0,0,2,1] box reaches IoU 0.5, wherever the decoy sits.
@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("policy, before, after", [
    (MatcherPolicy.BOX_AND_LABEL, (0.5, 0.5, 2, 2.0), (1.0, 0.5, 3, 2.5)),
    (MatcherPolicy.BOX_ONLY, (0.5, 0.5, 2, 2.0), (0.5, 0.4, 2, 1.9)),
])
def test_a_decoy_of_a_ground_truths_label_raises_recall_under_box_label(policy, before, after, at):
    gt = [("cat", (0, 0, 1, 1))] * 3 + [("cat", (0, 0, 1, 2))]
    completion = [("cat", (0, 0, 2, 1)), ("cat", (0, 0, 1, 1)), ("cat", (0, 0, 1, 1)), ("dog", (0, 0, 1, 1))]
    assert _decoy_scores(gt, completion, ("cat", (0, 2, 1, 3)), at, policy) == [before, after]


# Shrunk by hypothesis, under either policy: both boxes tie for the dog
# [0,0,1,1], and the tie rule lets the first box take the lowest-indexed
# ground truth. A decoy placed first takes it instead, and the dog box
# reaches its own; placed later, it changes nothing.
@POLICIES
@pytest.mark.parametrize("at, after", [(0, (0.5, 1 / 3, 1, 1 + 0.5 + 1 / 3)), (1, (0.0, 0.0, 0, 1.0)), (2, (0.0, 0.0, 0, 1.0))])
def test_a_decoy_placed_first_can_move_the_tie_rule(policy, at, after):
    gt = [("dog", (0, 2, 1, 3)), ("dog", (0, 0, 1, 1))]
    completion = [("dog", (0, 0, 1, 1)), ("cat", (0, 0, 1, 1))]
    assert _decoy_scores(gt, completion, ("cat", (0, 1, 1, 2)), at, policy) == [(0.0, 0.0, 0, 1.0), after]


@POLICIES
@given(st.data())
@settings(max_examples=150, deadline=None)
def test_permuting_completions_permutes_advantages(policy, data):
    gt, completions = data.draw(scenes())
    assume(len(completions) >= 2)
    order = data.draw(st.permutations(range(len(completions))))

    def advantages(order=None):
        request = ScoringRequest(
            "r", EvalImage("img", _truth(gt)), tuple(_texts(completions, order=order)), matcher=policy
        )
        return score_group(request).advantages

    first = advantages()
    assert advantages(order) == pytest.approx([first[index] for index in order], rel=0, abs=ADVANTAGE_TOLERANCE)
