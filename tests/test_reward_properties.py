"""Reward properties through the group kernel, on integer-grid boxes of a
1000x1000 image, under both matcher policies: bounded components summing to
the total, order of completions, the two completion formats, and the two
threshold phases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locscore.geometry import Box, CoordinateSpace, pixel_space
from locscore.matching import GroundTruthSet, MatcherPolicy
from locscore.parsing import PLAIN_FORMAT, STRUCTURED_FORMAT, emit_plain, emit_structured
from locscore.rewards import ADVANCED_THRESHOLDS, BEGINNER_THRESHOLDS, Group, score_groups

SIDE = 1000
IMAGE = pixel_space(SIDE, SIDE)
LABELS = ("cat", "dog", "traffic light")
POLICIES = pytest.mark.parametrize("policy", list(MatcherPolicy))


def _clamp(value):
    return min(max(value, 0), SIDE)


@st.composite
def scenes(draw):
    """Ground truths and 1-5 completions; a prediction is a random grid box
    (zero width or height now and then) or a ground truth moved by a few steps."""

    def grid_box(strict):
        x1, y1 = draw(st.integers(0, SIDE - 1)), draw(st.integers(0, SIDE - 1))
        low = 1 if strict else 0
        return x1, y1, draw(st.integers(x1 + low, SIDE)), draw(st.integers(y1 + low, SIDE))

    def near(box):
        moved = tuple(_clamp(value + draw(st.integers(-40, 40))) for value in box)
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


def score(scene, policy, fmt=STRUCTURED_FORMAT, thresholds=BEGINNER_THRESHOLDS, order=None):
    """The breakdowns of the scene's completions, in ``order`` if given, as one group."""
    gt, completions = scene
    emit = emit_plain if fmt is PLAIN_FORMAT else emit_structured
    texts = [emit([(label, Box(*map(float, box))) for label, box in boxes]) for boxes in completions]
    if order is not None:
        texts = [texts[index] for index in order]
    truth = GroundTruthSet.from_pairs([(label, Box(*map(float, box))) for label, box in gt], IMAGE)
    space = CoordinateSpace(fmt.space_kind, SIDE, SIDE)
    return score_groups([Group(texts, fmt, space, truth, policy, thresholds)])[0]


@POLICIES
@given(scenes(), st.sampled_from([STRUCTURED_FORMAT, PLAIN_FORMAT]), st.sampled_from([BEGINNER_THRESHOLDS, ADVANCED_THRESHOLDS]))
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
    assert score(scene, policy, PLAIN_FORMAT) == score(scene, policy, STRUCTURED_FORMAT)


@POLICIES
@given(scenes(), st.sampled_from([STRUCTURED_FORMAT, PLAIN_FORMAT]))
@settings(max_examples=150, deadline=None)
def test_advanced_thresholds_never_reward_more(policy, scene, fmt):
    beginner = score(scene, policy, fmt, BEGINNER_THRESHOLDS)
    advanced = score(scene, policy, fmt, ADVANCED_THRESHOLDS)
    for easy, hard in zip(beginner, advanced):
        assert hard.recall <= easy.recall
        assert hard.precision <= easy.precision
        assert hard.total <= easy.total
