import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locscore import (
    Box,
    GroundTruthSet,
    InvalidConfigError,
    PhaseConfig,
    ThresholdTriple,
    differentiate,
    dual_format_reward,
    match,
    parse_completion,
    phase_thresholds,
    pixel_space,
    precision_reward,
    recall_reward,
    score_completion,
    thousandths_space,
)
from locscore.matching import MatchedPrediction
from locscore.parsing import STRUCTURED_FORMAT, emit_structured
from locscore.rewards import (
    ADVANCED_THRESHOLDS,
    BEGINNER_THRESHOLDS,
    RewardRules,
    completion_objects,
)

from conftest import random_box, random_gt

SPACE = pixel_space(640, 480)
BEGINNER = BEGINNER_THRESHOLDS


def fake_match(iou_value, label_correct=True, gt_index=0):
    return MatchedPrediction(Box(0, 0, 1, 1), "cat", iou_value, gt_index, label_correct)


def fake_matches(ious, labels_ok=None):
    labels_ok = labels_ok or [True] * len(ious)
    return [
        fake_match(v, ok, i if v > 0 else None) if v > 0 else
        MatchedPrediction(Box(0, 0, 1, 1), "cat", 0.0, None, False)
        for i, (v, ok) in enumerate(zip(ious, labels_ok))
    ]


class TestDifferentiate:
    def test_full_reward_branch(self):
        assert differentiate(0.8, 0.5, 0.75) == 1.0

    def test_penalty_branch(self):
        assert differentiate(0.4, 0.5, 0.75) == 0.0

    def test_passthrough_branch(self):
        assert differentiate(0.6, 0.5, 0.75) == 0.6

    def test_boundaries_closed_on_left(self):
        assert differentiate(0.75, 0.5, 0.75) == 1.0
        assert differentiate(0.5, 0.5, 0.75) == 0.5

    def test_identity_mode(self):
        for x in (0.0, 0.1, 0.5, 0.999):
            assert differentiate(x, 0.0, 1.0) == x
        assert differentiate(1.0, 0.0, 1.0) == 1.0


class TestPhaseThresholds:
    def test_beginner_phase(self):
        assert phase_thresholds(PhaseConfig(), 0.3) == (0.5, 0.5, 0.75)

    def test_advanced_phase(self):
        assert phase_thresholds(PhaseConfig(), 0.7) == (0.75, 0.75, 0.9)

    def test_switch_is_closed_at_step(self):
        assert phase_thresholds(PhaseConfig(step_fraction=0.5), 0.5) == ADVANCED_THRESHOLDS

    def test_step_one_never_switches(self):
        cfg = PhaseConfig(step_fraction=1.0)
        for progress in (0.0, 0.5, 0.99, 1.0):
            assert phase_thresholds(cfg, progress) == BEGINNER_THRESHOLDS

    def test_invalid_config_rejected(self):
        with pytest.raises(InvalidConfigError):
            phase_thresholds(PhaseConfig(beginner=ThresholdTriple(0.5, 0.8, 0.6)), 0.0)
        with pytest.raises(InvalidConfigError):
            phase_thresholds(PhaseConfig(step_fraction=0.0), 0.0)
        with pytest.raises(InvalidConfigError):
            phase_thresholds(PhaseConfig(beginner=ThresholdTriple(0.9, 0.5, 0.75)), 0.0)


class TestCompletionObjects:
    def test_same_space_returns_extracted_objects(self):
        text = emit_structured([("cat", Box(1, 2, 30, 40)), ("dog", Box(5, 5, 9, 9))])
        outcome, objects = completion_objects(text, STRUCTURED_FORMAT, SPACE, SPACE)
        assert outcome == parse_completion(text, STRUCTURED_FORMAT, SPACE)
        assert objects == [("cat", Box(1, 2, 30, 40)), ("dog", Box(5, 5, 9, 9))]

    def test_converts_to_ground_truth_space(self):
        text = '[{"bbox_2d": [0, 0, 500, 1000], "label": "cat"}]'
        _, objects = completion_objects(
            text, STRUCTURED_FORMAT, thousandths_space(640, 480), SPACE
        )
        assert objects == [("cat", Box(0.0, 0.0, 320.0, 480.0))]

    def test_drops_boxes_that_collapse_on_conversion(self):
        # 5e-324 thousandths of a 1-pixel image rounds to 0 pixels
        text = (
            '[{"bbox_2d": [0, 0, 5e-324, 5e-324], "label": "speck"},'
            ' {"bbox_2d": [0, 0, 500, 1000], "label": "cat"}]'
        )
        outcome, objects = completion_objects(
            text, STRUCTURED_FORMAT, thousandths_space(1, 1), pixel_space(1, 1)
        )
        assert outcome.content_ok and len(outcome.predictions) == 2
        assert objects == [("cat", Box(0.0, 0.0, 0.5, 1.0))]

    def test_template_failure_has_no_objects(self):
        outcome, objects = completion_objects("garbage", STRUCTURED_FORMAT, SPACE, SPACE)
        assert not outcome.template_ok
        assert objects == []


class TestDualFormat:
    def test_both_flags_required(self):
        good = parse_completion("[]", STRUCTURED_FORMAT, SPACE)
        assert dual_format_reward(good) == 1.0
        bad_content = parse_completion(
            '[{"bbox_2d": [0, 0, 700, 100], "label": "cat"}]', STRUCTURED_FORMAT, SPACE
        )
        assert dual_format_reward(bad_content) == 0.0
        bad_template = parse_completion("nope", STRUCTURED_FORMAT, SPACE)
        assert dual_format_reward(bad_template) == 0.0


class TestRecallReward:
    def test_three_of_five(self):
        matches = fake_matches([0.9, 0.8, 0.6, 0.3, 0.0])
        assert recall_reward(matches, 5, BEGINNER) == pytest.approx(0.6)

    def test_four_of_five_saturates(self):
        matches = fake_matches([0.9, 0.8, 0.6, 0.55, 0.0])
        assert recall_reward(matches, 5, BEGINNER) == 1.0

    def test_empty_gt_abstention(self):
        assert recall_reward([], 0, BEGINNER) == 1.0
        assert recall_reward(fake_matches([0.0]), 0, BEGINNER) == 0.0

    def test_label_requirement_toggle(self):
        matches = fake_matches([0.9, 0.9], labels_ok=[True, False])
        assert recall_reward(matches, 2, BEGINNER) == pytest.approx(0.5)
        assert recall_reward(matches, 2, BEGINNER, require_label=False) == 1.0


class TestPrecisionReward:
    def test_worked_example(self):
        matches = fake_matches([0.9, 0.6, 0.3])
        assert precision_reward(matches, 3, BEGINNER) == pytest.approx((1 + 0.6 + 0) / 3)

    def test_single_perfect(self):
        assert precision_reward(fake_matches([1.0]), 1, BEGINNER) == 1.0

    def test_all_below_threshold(self):
        assert precision_reward(fake_matches([0.4, 0.2, 0.1]), 3, BEGINNER) == 0.0

    def test_empty_conventions(self):
        assert precision_reward([], 0, BEGINNER) == 1.0
        assert precision_reward([], 3, BEGINNER) == 0.0

    def test_denominator_counts_every_prediction(self):
        # one saturated valid box among four predictions: 1/4
        matches = fake_matches([0.95, 0.1, 0.1, 0.1])
        assert precision_reward(matches, 4, BEGINNER) == pytest.approx(0.25)


class TestScoreCompletion:
    def test_perfect_completion_totals_three(self):
        gt = random_gt(random.Random(3), 4)
        text = emit_structured([(i.label, i.box) for i in gt.instances])
        breakdown = score_completion(text, STRUCTURED_FORMAT, SPACE, gt)
        assert breakdown.total == 3.0
        assert breakdown.n_valid == 4

    def test_unparseable_completion_totals_zero(self):
        gt = random_gt(random.Random(4), 3)
        breakdown = score_completion("garbage", STRUCTURED_FORMAT, SPACE, gt)
        assert breakdown.total == 0.0
        assert breakdown.m_predictions == 0

    def test_composite_worked_example(self):
        gt = GroundTruthSet.from_pairs(
            [("cat", Box(1, 1, 10, 10)), ("dog", Box(19, 19, 31, 31))], SPACE
        )
        text = emit_structured([("cat", Box(0, 0, 10, 10)), ("dog", Box(20, 20, 30, 30))])
        breakdown = score_completion(text, STRUCTURED_FORMAT, SPACE, gt)
        assert breakdown.dual_format == 1.0
        assert breakdown.recall == 1.0
        assert breakdown.precision == pytest.approx((1 + 100 / 144) / 2, abs=1e-12)
        assert breakdown.total == pytest.approx(2.8472, abs=1e-4)

    def test_components_always_sum_exactly(self):
        gt = random_gt(random.Random(5), 3)
        for text in ("[]", "junk", emit_structured([(i.label, i.box) for i in gt.instances])):
            b = score_completion(text, STRUCTURED_FORMAT, SPACE, gt)
            assert b.total == b.dual_format + b.recall + b.precision

    def test_abstention_on_negative_sample(self):
        gt = GroundTruthSet((), SPACE)
        assert score_completion("[]", STRUCTURED_FORMAT, SPACE, gt).total == 3.0

    def test_lenient_retention_scores_well_formed_entries(self):
        gt = GroundTruthSet.from_pairs([("dog", Box(10, 10, 20, 20))], SPACE)
        text = (
            '[{"bbox_2d": [1, 2, 3], "label": "cat"},'
            ' {"bbox_2d": [10, 10, 20, 20], "label": "dog"}]'
        )
        b = score_completion(text, STRUCTURED_FORMAT, SPACE, gt)
        assert b.dual_format == 0.0
        assert b.recall == 1.0
        assert b.precision == 1.0
        assert b.total == 2.0

    def test_thousandths_completion_matched_against_pixel_gt(self):
        gt = GroundTruthSet.from_pairs([("cat", Box(0, 0, 320, 240))], SPACE)
        from locscore.parsing import PLAIN_FORMAT
        from locscore import thousandths_space

        b = score_completion(
            "cat-[0,0,500,500]", PLAIN_FORMAT, thousandths_space(640, 480), gt
        )
        assert b.total == 3.0

    def test_rules_disable_components(self):
        gt = random_gt(random.Random(6), 2)
        text = emit_structured([(i.label, i.box) for i in gt.instances])
        b = score_completion(
            text, STRUCTURED_FORMAT, SPACE, gt, rules=RewardRules(use_recall=False)
        )
        assert b.recall == 0.0
        assert b.total == 2.0


class TestProperties:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**30)))
        n_gt = data.draw(st.integers(0, 5))
        ious = data.draw(st.lists(st.floats(0, 1, allow_nan=False), max_size=6))
        matches = fake_matches(ious)
        for thresholds in (BEGINNER_THRESHOLDS, ADVANCED_THRESHOLDS):
            rec = recall_reward(matches, n_gt, thresholds)
            prec = precision_reward(matches, n_gt, thresholds)
            assert 0.0 <= rec <= 1.0
            assert 0.0 <= prec <= 1.0

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=6),
           st.integers(0, 5), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=150)
    def test_monotone_in_iou(self, ious, bump_index, bump, progress):
        # raising one matched IoU never lowers recall or precision
        n_gt = len(ious)
        matches = fake_matches(ious)
        index = bump_index % len(ious)
        raised = list(ious)
        raised[index] = min(1.0, raised[index] + bump)
        matches_up = fake_matches(raised)
        for thresholds in (BEGINNER_THRESHOLDS, ADVANCED_THRESHOLDS):
            assert recall_reward(matches_up, n_gt, thresholds) >= recall_reward(
                matches, n_gt, thresholds
            )
            assert precision_reward(matches_up, n_gt, thresholds) >= precision_reward(
                matches, n_gt, thresholds
            )

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=6))
    @settings(max_examples=150)
    def test_identity_thresholds_reduce_to_raw(self, ious):
        # with xi1=0, xi2=1 the sharpening map is the identity below 1
        identity = ThresholdTriple(0.5, 0.0, 1.0)
        matches = fake_matches(ious)
        n_gt = len(ious)
        raw_valid = [v for v in ious if v >= 0.5]
        raw_recall = len(raw_valid) / n_gt
        raw_precision = sum(raw_valid) / len(ious)
        if raw_recall < 1.0:
            assert recall_reward(matches, n_gt, identity) == pytest.approx(raw_recall)
        if all(v < 1.0 for v in raw_valid):
            assert precision_reward(matches, n_gt, identity) == pytest.approx(raw_precision)

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=6),
           st.integers(1, 6))
    @settings(max_examples=150)
    def test_advanced_never_beats_beginner(self, ious, n_gt):
        matches = fake_matches(ious)
        assert recall_reward(matches, n_gt, ADVANCED_THRESHOLDS) <= recall_reward(
            matches, n_gt, BEGINNER_THRESHOLDS
        )
        assert precision_reward(matches, n_gt, ADVANCED_THRESHOLDS) <= precision_reward(
            matches, n_gt, BEGINNER_THRESHOLDS
        )

    def test_determinism(self):
        rng = random.Random(9)
        gt = random_gt(rng, 3)
        text = emit_structured([("cat", random_box(rng)) for _ in range(3)])
        first = score_completion(text, STRUCTURED_FORMAT, SPACE, gt, progress=0.4)
        second = score_completion(text, STRUCTURED_FORMAT, SPACE, gt, progress=0.4)
        assert first == second

    @given(st.integers(0, 2**30), st.integers(0, 6), st.integers(0, 6), st.floats(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_breakdown_counting_invariants(self, seed, n_pred, n_gt, progress):
        rng = random.Random(seed)
        gt = random_gt(rng, n_gt)
        text = emit_structured(
            [(rng.choice(("person", "car", "dog")), random_box(rng)) for _ in range(n_pred)]
        )
        b = score_completion(text, STRUCTURED_FORMAT, SPACE, gt, progress=progress)
        assert b.m_predictions == n_pred
        assert b.n_gt == n_gt
        assert 0 <= b.n_valid <= min(b.m_predictions, b.n_gt)
