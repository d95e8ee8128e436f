import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locscore import (
    Box,
    GroundTruthSet,
    InvalidConfigError,
    PhaseConfig,
    SpaceMismatchError,
    ThresholdTriple,
    differentiate,
    match,
    parse_completion,
    phase_thresholds,
    pixel_space,
    precision_reward,
    recall_reward,
    score_completion,
    thousandths_space,
)
from locscore.geometry import CoordinateSpace, SpaceKind, to_space
from locscore.matching import MatchedPrediction, MatcherPolicy
from locscore.parsing import FormatKind, emit_structured
from locscore.rewards import (
    ADVANCED_THRESHOLDS,
    BEGINNER_THRESHOLDS,
    Group,
    RewardRules,
    score_groups,
)

from conftest import random_box, random_gt
from oracles import reference_breakdowns

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

    def test_triples_stored_as_threshold_triples(self):
        cfg = PhaseConfig(beginner=[0.4, 0.3, 0.8], advanced=(0.6, 0.6, 0.95))
        assert type(cfg.beginner) is ThresholdTriple and cfg.beginner.xi2 == 0.8
        assert type(cfg.advanced) is ThresholdTriple and cfg.advanced.xi0 == 0.6
        assert phase_thresholds(cfg, 0.0) is cfg.beginner
        assert phase_thresholds(cfg, 1.0) is cfg.advanced

    def test_invalid_config_rejected(self):
        with pytest.raises(InvalidConfigError):
            phase_thresholds(PhaseConfig(beginner=ThresholdTriple(0.5, 0.8, 0.6)), 0.0)
        with pytest.raises(InvalidConfigError):
            phase_thresholds(PhaseConfig(step_fraction=0.0), 0.0)
        with pytest.raises(InvalidConfigError):
            phase_thresholds(PhaseConfig(beginner=ThresholdTriple(0.9, 0.5, 0.75)), 0.0)


def completion_objects(text, space, gt_space):
    """One structured completion scored alone: its breakdown and its objects in
    the ground-truth space, as (label, Box) pairs."""
    gt = GroundTruthSet((), gt_space)
    breakdown, = score_groups([Group([text], FormatKind.STRUCTURED, space, gt, MatcherPolicy.BOX_ONLY, BEGINNER)])[0]
    labels, boxes = breakdown.objects
    return breakdown, [(label, Box(*row)) for label, row in zip(labels, boxes.tolist())]


class TestCompletionObjects:
    def test_same_space_returns_extracted_objects(self):
        text = emit_structured([("cat", Box(1, 2, 30, 40)), ("dog", Box(5, 5, 9, 9))])
        breakdown, objects = completion_objects(text, SPACE, SPACE)
        assert breakdown.dual_format == 1.0 and breakdown.m_predictions == 2
        assert objects == [("cat", Box(1, 2, 30, 40)), ("dog", Box(5, 5, 9, 9))]

    def test_converts_to_ground_truth_space(self):
        text = '[{"bbox_2d": [0, 0, 500, 1000], "label": "cat"}]'
        _, objects = completion_objects(text, thousandths_space(640, 480), SPACE)
        assert objects == [("cat", Box(0.0, 0.0, 320.0, 480.0))]

    def test_drops_boxes_that_collapse_on_conversion(self):
        # 5e-324 thousandths of a 1-pixel image rounds to 0 pixels
        text = (
            '[{"bbox_2d": [0, 0, 5e-324, 5e-324], "label": "speck"},'
            ' {"bbox_2d": [0, 0, 500, 1000], "label": "cat"}]'
        )
        breakdown, objects = completion_objects(text, thousandths_space(1, 1), pixel_space(1, 1))
        assert parse_completion(text, FormatKind.STRUCTURED, thousandths_space(1, 1)).content_ok
        assert breakdown.dual_format == 1.0 and breakdown.m_predictions == 1
        assert objects == [("cat", Box(0.0, 0.0, 0.5, 1.0))]

    def test_drops_boxes_that_round_past_the_extent(self):
        # 1000 * 9007199254736064 / 9007199254736064 rounds to 1000.0000000000001
        width = 9007199254736064
        text = (
            f'[{{"bbox_2d": [0, 0, {width}, 1], "label": "cat"}},'
            ' {"bbox_2d": [0, 0, 1, 1], "label": "dog"}]'
        )
        breakdown, objects = completion_objects(text, pixel_space(width, 1), thousandths_space(width, 1))
        assert breakdown.dual_format == 1.0 and breakdown.m_predictions == 1
        assert [label for label, _ in objects] == ["dog"]

    def test_template_failure_has_no_objects(self):
        breakdown, objects = completion_objects("garbage", SPACE, SPACE)
        assert breakdown.dual_format == 0.0 and breakdown.m_predictions == 0
        assert objects == []


class TestEmissionOrder:
    """The tie rule follows emission order, and can move a reward: both
    assignments of this scene sum to IoU 0.5, but only one of them has a pair
    at or above xi0 (docs/protocol.md, "Fixed engine conventions")."""

    SCENE = pixel_space(12, 12)
    GT = GroundTruthSet.from_pairs([("a", Box(10, 4, 12, 12)), ("a", Box(7, 10, 12, 12))], SCENE)
    FIRST = json.dumps([{"bbox_2d": [6, 7, 12, 10], "label": "a"}, {"bbox_2d": [10, 8, 12, 12], "label": "a"}])
    SWAPPED = json.dumps([{"bbox_2d": [10, 8, 12, 12], "label": "a"}, {"bbox_2d": [6, 7, 12, 10], "label": "a"}])
    # (total, n_valid, recall, precision) under the beginner phase
    EXPECTED = {FIRST: (1.0, 0, 0.0, 0.0), SWAPPED: (1.75, 1, 0.5, 0.25)}

    @staticmethod
    def _numbers(b):
        return b.total, b.n_valid, b.recall, b.precision

    def test_score_completion(self):
        for text, expected in self.EXPECTED.items():
            assert self._numbers(score_completion(text, FormatKind.STRUCTURED, self.SCENE, self.GT)) == expected

    def test_two_group_block(self, monkeypatch):
        import locscore.rewards as rewards_module

        sizes = []
        real = rewards_module._score_block
        monkeypatch.setattr(
            rewards_module, "_score_block", lambda block, rules: sizes.append(len(block)) or real(block, rules)
        )
        orders = [[self.FIRST, self.SWAPPED], [self.SWAPPED, self.FIRST]]
        groups = [
            Group(texts, FormatKind.STRUCTURED, self.SCENE, self.GT, MatcherPolicy.BOX_ONLY, BEGINNER)
            for texts in orders
        ]
        scored = score_groups(groups)
        assert sizes == [2]
        assert [[self._numbers(b) for b in group] for group in scored] == [
            [self.EXPECTED[text] for text in texts] for texts in orders
        ]


class TestDualFormat:
    def test_both_flags_required(self):
        gt = GroundTruthSet((), SPACE)
        good = score_completion("[]", FormatKind.STRUCTURED, SPACE, gt)
        assert good.dual_format == 1.0
        bad_content = '[{"bbox_2d": [0, 0, 700, 100], "label": "cat"}]'
        assert parse_completion(bad_content, FormatKind.STRUCTURED, SPACE).template_ok
        assert score_completion(bad_content, FormatKind.STRUCTURED, SPACE, gt).dual_format == 0.0
        assert score_completion("nope", FormatKind.STRUCTURED, SPACE, gt).dual_format == 0.0


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
        breakdown = score_completion(text, FormatKind.STRUCTURED, SPACE, gt)
        assert breakdown.total == 3.0
        assert breakdown.n_valid == 4

    def test_unparseable_completion_totals_zero(self):
        gt = random_gt(random.Random(4), 3)
        breakdown = score_completion("garbage", FormatKind.STRUCTURED, SPACE, gt)
        assert breakdown.total == 0.0
        assert breakdown.m_predictions == 0

    def test_composite_worked_example(self):
        gt = GroundTruthSet.from_pairs(
            [("cat", Box(1, 1, 10, 10)), ("dog", Box(19, 19, 31, 31))], SPACE
        )
        text = emit_structured([("cat", Box(0, 0, 10, 10)), ("dog", Box(20, 20, 30, 30))])
        breakdown = score_completion(text, FormatKind.STRUCTURED, SPACE, gt)
        assert breakdown.dual_format == 1.0
        assert breakdown.recall == 1.0
        assert breakdown.precision == pytest.approx((1 + 100 / 144) / 2, abs=1e-12)
        assert breakdown.total == pytest.approx(2.8472, abs=1e-4)

    def test_components_always_sum_exactly(self):
        gt = random_gt(random.Random(5), 3)
        for text in ("[]", "junk", emit_structured([(i.label, i.box) for i in gt.instances])):
            b = score_completion(text, FormatKind.STRUCTURED, SPACE, gt)
            assert b.total == b.dual_format + b.recall + b.precision

    def test_abstention_on_negative_sample(self):
        gt = GroundTruthSet((), SPACE)
        assert score_completion("[]", FormatKind.STRUCTURED, SPACE, gt).total == 3.0

    def test_lenient_retention_scores_well_formed_entries(self):
        gt = GroundTruthSet.from_pairs([("dog", Box(10, 10, 20, 20))], SPACE)
        text = (
            '[{"bbox_2d": [1, 2, 3], "label": "cat"},'
            ' {"bbox_2d": [10, 10, 20, 20], "label": "dog"}]'
        )
        b = score_completion(text, FormatKind.STRUCTURED, SPACE, gt)
        assert b.dual_format == 0.0
        assert b.recall == 1.0
        assert b.precision == 1.0
        assert b.total == 2.0

    def test_thousandths_completion_matched_against_pixel_gt(self):
        gt = GroundTruthSet.from_pairs([("cat", Box(0, 0, 320, 240))], SPACE)
        from locscore import thousandths_space

        b = score_completion(
            "cat-[0,0,500,500]", FormatKind.PLAIN, thousandths_space(640, 480), gt
        )
        assert b.total == 3.0

    def test_completion_space_of_another_image_rejected(self):
        gt = GroundTruthSet.from_pairs([("cat", Box(0, 0, 100, 100))], SPACE)
        text = '[{"bbox_2d": [700, 0, 800, 100], "label": "cat"}]'
        with pytest.raises(SpaceMismatchError) as raised:
            score_completion(text, FormatKind.STRUCTURED, pixel_space(1000, 1000), gt)
        assert str(raised.value) == "cannot convert between images 1000x1000 and 640x480"

    def test_rules_disable_components(self):
        gt = random_gt(random.Random(6), 2)
        text = emit_structured([(i.label, i.box) for i in gt.instances])
        b = score_completion(
            text, FormatKind.STRUCTURED, SPACE, gt, rules=RewardRules(use_recall=False)
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
        first = score_completion(text, FormatKind.STRUCTURED, SPACE, gt, progress=0.4)
        second = score_completion(text, FormatKind.STRUCTURED, SPACE, gt, progress=0.4)
        assert first == second

    @given(st.integers(0, 2**30), st.integers(0, 6), st.integers(0, 6), st.floats(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_breakdown_counting_invariants(self, seed, n_pred, n_gt, progress):
        rng = random.Random(seed)
        gt = random_gt(rng, n_gt)
        text = emit_structured(
            [(rng.choice(("person", "car", "dog")), random_box(rng)) for _ in range(n_pred)]
        )
        b = score_completion(text, FormatKind.STRUCTURED, SPACE, gt, progress=progress)
        assert b.m_predictions == n_pred
        assert b.n_gt == n_gt
        assert 0 <= b.n_valid <= min(b.m_predictions, b.n_gt)


KERNEL_LABELS = ("cat", "Cat", " cat\t", "dog", "traffic  light", "traffic light")


# specks that rounding collapses when rescaled to a small image
SPECKS = st.sampled_from([0.0, 5e-324, 1e-321, 2e-320, 1e-310])


def _side(draw, limit):
    ends = sorted(draw(st.one_of(st.floats(0, limit), SPECKS)) for _ in range(2))
    assume(ends[0] < ends[1])
    return ends


def _any_box(draw, space):
    """A box for a completion in ``space``: mostly valid, sometimes past the
    extent, negative or degenerate."""
    (x1, x2), (y1, y2) = _side(draw, space.max_x), _side(draw, space.max_y)
    fault = draw(st.sampled_from([None] * 6 + ["past", "negative", "flat"]))
    if fault == "past":
        x2 = space.max_x + draw(st.floats(0.001, 50))
    elif fault == "negative":
        x1 = -draw(st.floats(0.5, 5))
    elif fault == "flat":
        y2 = y1
    return [x1, y1, x2, y2]


def _render(entries, fmt, draw):
    if fmt is FormatKind.PLAIN:
        digits = draw(st.integers(0, 4))

        def number(v):
            return f"{v:.340f}" if 0 < abs(v) < 1e-300 else f"{v:.{digits}f}"

        return ";".join(f"{label.strip()}-[{','.join(map(number, box))}]" for label, box in entries)
    payload = [{"bbox_2d": box, "label": label} for label, box in entries]
    if draw(st.booleans()):  # an entry that is not well formed, kept out of the predictions
        payload.insert(draw(st.integers(0, len(payload))), {"bbox_2d": [1, 2, 3], "label": "cat"})
    return json.dumps(payload)


@st.composite
def scoring_groups(draw):
    """A group of completions with its ground truth, matcher, thresholds and rules."""
    width, height = draw(st.sampled_from([(1, 1), (37, 5), (640, 480)]))
    fmt = draw(st.sampled_from([FormatKind.STRUCTURED, FormatKind.PLAIN]))
    space = CoordinateSpace(fmt.space_kind, width, height)
    gt_space = CoordinateSpace(draw(st.sampled_from(list(SpaceKind))), width, height)
    gt_boxes = []
    for _ in range(draw(st.integers(0, 6))):
        (x1, x2), (y1, y2) = _side(draw, gt_space.max_x), _side(draw, gt_space.max_y)
        gt_boxes.append(Box(x1, y1, x2, y2))
    gt = GroundTruthSet.from_pairs([(draw(st.sampled_from(KERNEL_LABELS)), box) for box in gt_boxes], gt_space)
    # ground-truth boxes restated in the completion's space: exact hits and ties
    hits = [list(to_space(box, gt_space, space).coords()) for box in gt_boxes]
    texts = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["boxes", "boxes", "boxes", "ties", "garbage", "empty"]))
        if kind == "garbage":
            texts.append(draw(st.sampled_from(["I see a cat.", "[{", "cat-[1,2", "```json\n[]"])))
        elif kind == "empty":
            texts.append(draw(st.sampled_from(["", "[]"])))
        else:
            boxes = [hits[0]] * draw(st.integers(1, 8)) if kind == "ties" and hits else [
                draw(st.sampled_from(hits)) if hits and draw(st.booleans()) else _any_box(draw, space)
                for _ in range(draw(st.integers(0, 8)))
            ]
            entries = [(draw(st.sampled_from(KERNEL_LABELS)), box) for box in boxes]
            texts.append(_render(entries, fmt, draw))
    policy = draw(st.sampled_from(list(MatcherPolicy)))
    thresholds = draw(st.sampled_from([BEGINNER_THRESHOLDS, ADVANCED_THRESHOLDS, ThresholdTriple(0.3, 0.2, 0.9)]))
    rules = RewardRules(*draw(st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans())))
    return texts, fmt, space, gt, policy, thresholds, rules


class TestGroupKernel:
    @given(scoring_groups())
    @settings(max_examples=300, deadline=None)
    def test_kernel_equals_per_box_path(self, case):
        got = score_groups([Group(*case[:6])], case[6])[0]
        expected = reference_breakdowns(*case)
        # repr shows every float exactly, so equal reprs mean bit-identical rewards
        assert [repr(b) for b in got] == [repr(b) for b, _ in expected]
        for breakdown, (_, objects) in zip(got, expected):
            labels, boxes = breakdown.objects
            assert [(label, [v.hex() for v in row]) for label, row in zip(labels, boxes.tolist())] == [
                (label, [float(v).hex() for v in box.coords()]) for label, box in objects
            ]

    def test_thresholds_looked_up_once_per_group(self, monkeypatch):
        import locscore.harness.engine as engine
        from locscore.harness import handle_request_line

        calls = []
        original = engine.phase_thresholds
        monkeypatch.setattr(engine, "phase_thresholds", lambda *a: calls.append(a) or original(*a))
        gt = [{"label": "cat", "bbox": [10.0, 10.0, 50.0, 50.0]}]
        completions = ['[{"bbox_2d": [10, 10, 50, 50], "label": "cat"}]'] * 8
        request = {"v": 1, "request_id": "r", "completions": completions,
                   "sample": {"image_id": "i", "width": 64, "height": 64, "gt": gt}}
        assert handle_request_line(json.dumps(request))["ok"]
        assert len(calls) == 1

    def test_phase_decided_once_per_request(self, monkeypatch):
        import locscore.harness.engine as engine
        import locscore.rewards as rewards
        from locscore.harness import handle_request_line

        calls = []
        original = rewards.in_advanced_phase

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(rewards, "in_advanced_phase", counting)
        monkeypatch.setattr(engine, "in_advanced_phase", counting, raising=False)
        gt = [{"label": "cat", "bbox": [10.0, 10.0, 50.0, 50.0]}]
        completions = ['[{"bbox_2d": [10, 10, 50, 50], "label": "cat"}]'] * 2
        same = {"beginner": [0.5, 0.5, 0.75], "advanced": [0.5, 0.5, 0.75]}  # named by the phase, not the values
        for progress, phase, name in [(0.2, None, "beginner"), (0.8, None, "advanced"),
                                      (0.2, same, "beginner"), (0.8, same, "advanced")]:
            calls.clear()
            request = {"v": 1, "request_id": "r", "completions": completions, "progress": progress,
                       "phase": phase, "sample": {"image_id": "i", "width": 64, "height": 64, "gt": gt}}
            assert handle_request_line(json.dumps(request))["thresholds"]["phase"] == name
            assert len(calls) == 1

    def test_completion_space_of_another_image_rejected_in_a_block(self):
        gt = GroundTruthSet.from_pairs([("cat", Box(0, 0, 100, 100))], SPACE)
        text = '[{"bbox_2d": [700, 0, 800, 100], "label": "cat"}]'
        good = Group([text], FormatKind.STRUCTURED, pixel_space(1000, 1000), GroundTruthSet((), pixel_space(1000, 1000)),
                     MatcherPolicy.BOX_ONLY, BEGINNER)
        bad = Group([text], FormatKind.STRUCTURED, pixel_space(1000, 1000), gt, MatcherPolicy.BOX_ONLY, BEGINNER)
        assert len(score_groups([good, good])) == 2  # one block of two groups
        with pytest.raises(SpaceMismatchError) as raised:
            score_groups([good, bad])
        assert str(raised.value) == "cannot convert between images 1000x1000 and 640x480"

    def test_invalid_thresholds_rejected(self):
        gt = GroundTruthSet((), SPACE)
        with pytest.raises(InvalidConfigError):
            score_groups(
                [Group(["[]"], FormatKind.STRUCTURED, SPACE, gt, MatcherPolicy.BOX_ONLY, ThresholdTriple(0.0, 0.5, 0.75))]
            )
