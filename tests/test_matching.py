import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locscore import (
    Box,
    GroundTruthSet,
    MatcherPolicy,
    SpaceMismatchError,
    assignment_cost,
    iou,
    match,
    pixel_space,
    validate_box,
)
from locscore.geometry import box_array, iou_matrix
from locscore.matching import (
    _COST_TIE_ATOL,
    LABEL_MISMATCH_PENALTY,
    _canonical_pairs,
    _load_linear_sum_assignment,
    cost_matrices,
)

from conftest import INT_BOXES, LABELS, box_strategy, random_box, random_gt, related_boxes
from oracles import assignment_total, min_assignment_cost, reference_canonical_pairs

SPACE = pixel_space(640, 480)
SRC = str(Path(__file__).resolve().parent.parent / "src")


def engine_cost_matrix(preds, gt, policy):
    """The engine's (cost, IoU) matrices for (label, box) predictions."""
    boxes = box_array(box for _, box in preds)
    return cost_matrices(boxes, [label for label, _ in preds], [gt], [policy], np.zeros(len(preds), dtype=np.intp))[:2]


def _cost_matrix(preds, gt, policy):
    return np.array(
        [
            [assignment_cost(p, (inst.label, inst.box), policy) for inst in gt.instances]
            for p in preds
        ]
    )


def _matched_pairs(result):
    return [(i, m.gt_index) for i, m in enumerate(result) if m.gt_index is not None]


class TestAssignmentCost:
    def test_identical_box_same_label(self):
        pred = ("cat", Box(0, 0, 10, 10))
        for policy in MatcherPolicy:
            assert assignment_cost(pred, pred, policy) == 0.0

    def test_identical_box_label_mismatch_penalty(self):
        pred = ("cat", Box(0, 0, 10, 10))
        gt = ("dog", Box(0, 0, 10, 10))
        assert assignment_cost(pred, gt, MatcherPolicy.BOX_AND_LABEL) == 1.0
        assert assignment_cost(pred, gt, MatcherPolicy.BOX_ONLY) == 0.0

    def test_disjoint_same_label(self):
        pred = ("cat", Box(0, 0, 10, 10))
        gt = ("cat", Box(20, 20, 30, 30))
        assert assignment_cost(pred, gt, MatcherPolicy.BOX_ONLY) == 1.0

    def test_label_comparison_is_normalized(self):
        pred = ("Traffic  Light", Box(0, 0, 10, 10))
        gt = ("traffic light", Box(0, 0, 10, 10))
        assert assignment_cost(pred, gt, MatcherPolicy.BOX_AND_LABEL) == 0.0


class TestMatch:
    def test_two_by_two_example(self):
        preds = [("cat", Box(0, 0, 10, 10)), ("dog", Box(20, 20, 30, 30))]
        gt = GroundTruthSet.from_pairs(
            [("cat", Box(1, 1, 10, 10)), ("dog", Box(19, 19, 31, 31))], SPACE
        )
        result = match(preds, gt, MatcherPolicy.BOX_ONLY)
        assert [m.gt_index for m in result] == [0, 1]
        assert result[0].iou == pytest.approx(81 / 100)
        assert result[1].iou == pytest.approx(100 / 144)
        assert all(m.label_correct for m in result)

    def test_empty_predictions(self):
        assert match([], random_gt(random.Random(1), 3), MatcherPolicy.BOX_ONLY) == []

    def test_empty_gt(self):
        gt = GroundTruthSet((), SPACE)
        result = match([("cat", Box(0, 0, 10, 10))], gt)
        assert len(result) == 1
        assert result[0].gt_index is None
        assert result[0].iou == 0.0
        assert not result[0].label_correct

    def test_more_predictions_than_gt(self):
        preds = [
            ("cat", Box(0, 0, 10, 10)),
            ("cat", Box(1, 1, 11, 11)),
            ("cat", Box(100, 100, 120, 120)),
        ]
        gt = GroundTruthSet.from_pairs([("cat", Box(0, 0, 10, 10))], SPACE)
        result = match(preds, gt)
        assigned = [m for m in result if m.gt_index is not None]
        assert len(assigned) == 1
        assert assigned[0].iou == 1.0

    def test_label_mismatch_flag(self):
        preds = [("dog", Box(0, 0, 10, 10))]
        gt = GroundTruthSet.from_pairs([("cat", Box(0, 0, 10, 10))], SPACE)
        result = match(preds, gt, MatcherPolicy.BOX_ONLY)
        assert result[0].gt_index == 0
        assert result[0].iou == 1.0
        assert not result[0].label_correct

    def test_box_and_label_prefers_matching_label(self):
        # equal boxes; label agreement must win under box-and-label
        preds = [("cat", Box(0, 0, 10, 10))]
        gt = GroundTruthSet.from_pairs(
            [("dog", Box(0, 0, 10, 10)), ("cat", Box(1, 1, 10, 10))], SPACE
        )
        box_only = match(preds, gt, MatcherPolicy.BOX_ONLY)
        with_label = match(preds, gt, MatcherPolicy.BOX_AND_LABEL)
        assert box_only[0].gt_index == 0  # higher IoU wins
        assert with_label[0].gt_index == 1  # label correctness wins
        assert with_label[0].label_correct

    def test_space_mismatch_detected(self):
        gt = GroundTruthSet.from_pairs([("cat", Box(0, 0, 10, 10))], SPACE)
        with pytest.raises(SpaceMismatchError):
            match([("cat", Box(0, 0, 10_000, 10))], gt)

    def test_tie_break_prefers_low_indices(self):
        # two identical predictions, two identical ground truths: all four
        # pairings cost the same, so pred 0 must take gt 0
        box = Box(0, 0, 10, 10)
        preds = [("cat", box), ("cat", box)]
        gt = GroundTruthSet.from_pairs([("cat", box), ("cat", box)], SPACE)
        result = match(preds, gt)
        assert [m.gt_index for m in result] == [0, 1]

    def test_underflowing_overlap_scores_zero(self):
        # both areas underflow to 0.0, where geometry.iou would divide 0 by 0
        box = Box(0, 0, 1e-200, 1e-200)
        gt = GroundTruthSet.from_pairs([("cat", box)], SPACE)
        result = match([("cat", box)], gt)
        assert result[0].gt_index == 0
        assert result[0].iou == 0.0

    def test_zero_overlap_pairs_still_assigned(self):
        preds = [("cat", Box(0, 0, 10, 10))]
        gt = GroundTruthSet.from_pairs([("cat", Box(100, 100, 200, 200))], SPACE)
        result = match(preds, gt)
        assert result[0].gt_index == 0
        assert result[0].iou == 0.0


class TestCanonicalTieBreak:
    # exercises the solver's documented tie order on exact-tie cost matrices
    def test_exact_cost_tie_prefers_low_gt_for_low_pred(self):
        from locscore.matching import _canonical_pairs

        # both assignments total exactly 1.0 (binary-exact values)
        cost = np.array([[0.25, 0.5], [0.5, 0.75]])
        assert _canonical_pairs(cost) == [(0, 0), (1, 1)]

    def test_all_equal_matrix(self):
        from locscore.matching import _canonical_pairs

        cost = np.ones((3, 3))
        assert _canonical_pairs(cost) == [(0, 0), (1, 1), (2, 2)]

    def test_surplus_predictions_prefer_low_index_assignment(self):
        from locscore.matching import _canonical_pairs

        cost = np.ones((3, 1))
        assert _canonical_pairs(cost) == [(0, 0)]

    def test_rectangular_tie(self):
        from locscore.matching import _canonical_pairs

        cost = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])
        assert _canonical_pairs(cost) == [(0, 0), (1, 1)]

    def test_forced_skip_of_expensive_prediction(self):
        from locscore.matching import _canonical_pairs

        # pred 0 is costly everywhere; the optimum must leave it out
        cost = np.array([[10.0], [0.25]])
        assert _canonical_pairs(cost) == [(1, 0)]

    def test_rotation_only_when_a_real_row_can_move(self, monkeypatch):
        import locscore.matching as matching

        moved = []
        real = matching._lexicographic_rotation

        def spy(tight, assigned, m):
            before = list(assigned)
            real(tight, assigned, m)
            moved.append(assigned != before)

        monkeypatch.setattr(matching, "_lexicographic_rotation", spy)
        # a unique best column: only the two padded dummy rows tie, on every column
        for cost in (np.array([[0.2, 0.5, 0.9]]), np.array([[0.2, 0.5, 0.9], [0.7, 0.1, 0.9]])):
            assert _canonical_pairs(cost) == reference_canonical_pairs(cost)
        assert moved == []
        # a real tie that the solver breaks the other way does rotate
        assert _canonical_pairs(np.array([[0.5, 0.0], [0.5, 0.0]])) == [(0, 0), (1, 1)]
        assert moved == [True]


class TestOptimality:
    @pytest.mark.parametrize("policy", list(MatcherPolicy))
    def test_matches_brute_force_on_random_instances(self, policy):
        rng = random.Random(97)
        for _ in range(60):
            m = rng.randrange(0, 7)
            g = rng.randrange(0, 7)
            preds = [(rng.choice(LABELS), random_box(rng)) for _ in range(m)]
            gt = random_gt(rng, g)
            result = match(preds, gt, policy)
            assert len(result) == m
            pairs = _matched_pairs(result)
            assert len(pairs) == min(m, g)
            if m and g:
                cost = _cost_matrix(preds, gt, policy)
                assert assignment_total(cost, pairs) == min_assignment_cost(cost)

    def test_one_to_one(self):
        rng = random.Random(5)
        for _ in range(40):
            preds = [(rng.choice(LABELS), random_box(rng)) for _ in range(rng.randrange(1, 8))]
            gt = random_gt(rng, rng.randrange(1, 8))
            used = [m.gt_index for m in match(preds, gt) if m.gt_index is not None]
            assert len(used) == len(set(used))

    def test_shuffle_invariance_of_total_cost(self):
        rng = random.Random(11)
        for _ in range(25):
            preds = [(rng.choice(LABELS), random_box(rng)) for _ in range(rng.randrange(1, 7))]
            gt = random_gt(rng, rng.randrange(1, 7))
            base = match(preds, gt)
            cost = _cost_matrix(preds, gt, MatcherPolicy.BOX_ONLY)
            base_total = assignment_total(cost, _matched_pairs(base))

            shuffled = preds[:]
            rng.shuffle(shuffled)
            index_of = {id(p): i for i, p in enumerate(preds)}
            other = match(shuffled, gt)
            other_pairs = [
                (index_of[id(shuffled[i])], m.gt_index)
                for i, m in enumerate(other)
                if m.gt_index is not None
            ]
            assert assignment_total(cost, other_pairs) == pytest.approx(base_total, abs=1e-9)
            # continuous random boxes: optimum is unique, multisets agree
            assert sorted((m.gt_index, m.iou) for m in base if m.gt_index is not None) == sorted(
                (m.gt_index, m.iou) for m in other if m.gt_index is not None
            )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_output_shape_properties(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**28)))
        m = data.draw(st.integers(0, 6))
        g = data.draw(st.integers(0, 6))
        preds = [(rng.choice(LABELS), random_box(rng)) for _ in range(m)]
        gt = random_gt(rng, g)
        result = match(preds, gt)
        assert len(result) == m
        assert [r.label for r in result] == [p[0] for p in preds]
        used = [r.gt_index for r in result if r.gt_index is not None]
        assert len(used) == len(set(used))
        for r in result:
            if r.gt_index is None:
                assert r.iou == 0.0
            assert 0.0 <= r.iou <= 1.0


# The matcher counts a pair as tied when its reduced cost (against the
# optimal dual potentials) is at most this; the reference counts a choice as
# tied when the total of its best completion is within this of the optimum.
# The two agree except when an alternative optimum is dearer than the
# optimum by more than TIE_ATOL in total but by at most TIE_ATOL on each of
# its edges, a band no matrix below can reach: their distinct totals differ
# by far more (continuous values are drawn by numpy, not as hypothesis
# floats, which can place alternatives a few 1e-10 apart on purpose).
TIE_ATOL = 1e-9
SMALL_VALUES = {
    "quarters": [0.0, 0.25, 0.5, 0.75, 1.0],
    "zero-one-label": [0.0, 1.0, 2.0],
}


def _orient(m, g, shape):
    return (min(m, g), max(m, g)) if shape == "wide" else (max(m, g), min(m, g))


@st.composite
def tie_cost_matrices(draw, shape):
    m, g = _orient(draw(st.integers(1, 9)), draw(st.integers(1, 9)), shape)
    kind = draw(st.sampled_from(["continuous", "quarters", "equal", "zero-one-label"]))
    if kind == "continuous":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.uniform(0.0, 2.0, size=(m, g))
    if kind == "equal":
        return np.full((m, g), draw(st.sampled_from([0.0, 0.3, 1.0, 2.0])))
    values = st.sampled_from(SMALL_VALUES[kind])
    return np.array(draw(st.lists(values, min_size=m * g, max_size=m * g))).reshape(m, g)


@st.composite
def box_cost_matrices(draw, shape):
    m, g = _orient(draw(st.integers(1, 9)), draw(st.integers(1, 9)), shape)
    labels = st.sampled_from(LABELS[:3])
    gt = [(draw(labels), draw(INT_BOXES)) for _ in range(g)]
    # about half the predictions duplicate a ground-truth box, so ties abound
    boxes = st.one_of(INT_BOXES, st.sampled_from([box for _, box in gt]))
    preds = [(draw(labels), draw(boxes)) for _ in range(m)]
    policy = draw(st.sampled_from(list(MatcherPolicy)))
    return engine_cost_matrix(preds, GroundTruthSet.from_pairs(gt, pixel_space(64, 64)), policy)[0]


class TestCanonicalPairsDifferential:
    def test_tolerance(self):
        assert _COST_TIE_ATOL == TIE_ATOL

    @pytest.mark.parametrize("shape", ["wide", "tall"])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_tie_matrices(self, shape, data):
        cost = data.draw(tie_cost_matrices(shape))
        assert _canonical_pairs(cost) == reference_canonical_pairs(cost, atol=TIE_ATOL)

    @pytest.mark.parametrize("shape", ["wide", "tall"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_box_matrices(self, shape, data):
        cost = data.draw(box_cost_matrices(shape))
        assert _canonical_pairs(cost) == reference_canonical_pairs(cost, atol=TIE_ATOL)


class TestCostMatrix:
    @given(boxes=related_boxes(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_cost_matches_assignment_cost(self, boxes, data):
        split = data.draw(st.integers(1, len(boxes) - 1))
        labels = st.sampled_from(LABELS[:3])
        preds = [(data.draw(labels), box) for box in boxes[:split]]
        gt_pairs = [(data.draw(labels), box) for box in boxes[split:]]
        gt = GroundTruthSet.from_pairs(gt_pairs, pixel_space(300, 300))
        expected = iou_matrix(box_array(box for _, box in preds), gt.coords)
        for policy in MatcherPolicy:
            cost, ious = engine_cost_matrix(preds, gt, policy)
            assert np.array_equal(ious, expected)
            assert cost.tolist() == [
                [assignment_cost(p, (inst.label, inst.box), policy) for inst in gt.instances]
                for p in preds
            ]

    @given(boxes=related_boxes(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_group_broadcast_equals_gather(self, boxes, data):
        """One group's matrices by broadcasting (one ground-truth set) and by
        the block gather (the same set twice, every row owned by either copy)
        are bit-identical."""
        split = data.draw(st.integers(0, len(boxes)))
        labels = st.sampled_from(LABELS[:3] + (" Cat ",))
        preds = [(data.draw(labels), box) for box in boxes[:split]]
        gt = GroundTruthSet.from_pairs([(data.draw(labels), box) for box in boxes[split:]], pixel_space(300, 300))
        args = box_array(box for _, box in preds), [label for label, _ in preds]
        for policy in MatcherPolicy:
            broadcast = cost_matrices(*args, [gt], [policy], np.zeros(len(preds), dtype=np.intp))
            for copy in (0, 1):
                gathered = cost_matrices(*args, [gt, gt], [policy, policy], np.full(len(preds), copy, dtype=np.intp))
                for one, other in zip(broadcast, gathered):
                    assert (one.shape, one.dtype, one.tobytes()) == (other.shape, other.dtype, other.tobytes())


# a space that holds coordinates on both sides of 2**53, where a float64 rounds an integer
WIDE = pixel_space(2**53 + 8, 2**53 + 8)
_WIDE_COORDS = st.one_of(
    st.integers(0, 2000), st.integers(2**53 - 4, 2**53 + 4), st.floats(0, 2000), st.floats(2**53 - 4, 2**53 + 4)
)


@st.composite
def wide_boxes(draw):
    """Int and float boxes in ``WIDE``, valid once read as float64."""
    (x1, x2), (y1, y2) = (sorted(draw(st.lists(_WIDE_COORDS, min_size=2, max_size=2))) for _ in "xy")
    box = Box(x1, y1, x2, y2)
    assume(validate_box(box, WIDE)[0])
    return box


def _hex(matrix):
    return [[value.hex() for value in row] for row in matrix.tolist()]


class TestScalarHelpersAgreeWithMatch:
    """``iou`` and ``assignment_cost`` on a pair give what ``match`` and
    ``cost_matrices`` give it, bit for bit, whatever form the boxes were given in."""

    def test_integers_that_one_float_holds(self):
        a, b = Box(0, 0, 2**53 + 1, 1), Box(0, 0, 2**53, 1)
        [matched] = match([("cat", a)], GroundTruthSet.from_pairs([("cat", b)], WIDE))
        assert iou(a, b) == matched.iou == 1.0
        assert assignment_cost(("cat", a), ("cat", b)) == 0.0

    @given(st.lists(st.tuples(st.sampled_from(LABELS[:2]), wide_boxes()), min_size=1, max_size=4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_iou_and_cost_equal_the_matcher(self, preds, data):
        gt_pairs = data.draw(st.lists(st.tuples(st.sampled_from(LABELS[:2]), wide_boxes()), min_size=1, max_size=4))
        gt = GroundTruthSet.from_pairs(gt_pairs, WIDE)
        for policy in MatcherPolicy:
            cost, ious = engine_cost_matrix(preds, gt, policy)
            assert _hex(cost) == [[assignment_cost(p, g, policy).hex() for g in gt_pairs] for p in preds]
            assert _hex(ious) == [[iou(p_box, g_box).hex() for _, g_box in gt_pairs] for _, p_box in preds]
            for (label, box), matched in zip(preds, match(preds, gt, policy)):
                if matched.gt_index is None:
                    continue
                gt_label, gt_box = gt_pairs[matched.gt_index]
                assert matched.iou.hex() == iou(box, gt_box).hex()
                expected = 1.0 - matched.iou
                if policy is MatcherPolicy.BOX_AND_LABEL and not matched.label_correct:
                    expected += LABEL_MISMATCH_PENALTY
                assert assignment_cost((label, box), (gt_label, gt_box), policy).hex() == expected.hex()


def _fresh_interpreter(code):
    """stdout of ``code`` run by a new interpreter with the source tree on its path."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, check=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    return done.stdout


class TestSolverLoading:
    def test_start_does_not_import_heavy_scipy_packages(self):
        loaded = _fresh_interpreter(
            "import json, sys, locscore, locscore.harness.cli\n"
            "print(json.dumps([m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.sparse') if m in sys.modules]))"
        )
        assert json.loads(loaded) == []

    @pytest.mark.parametrize(
        "imports", ["import scipy.optimize, locscore.matching", "import locscore.matching, scipy.optimize"]
    )
    def test_one_solver_in_either_import_order(self, imports):
        same = _fresh_interpreter(
            f"{imports}\nprint(scipy.optimize.linear_sum_assignment is locscore.matching.linear_sum_assignment)"
        )
        assert same.strip() == "True"

    def test_falls_back_to_public_solver_without_extension(self, tmp_path, monkeypatch):
        import scipy.optimize

        monkeypatch.delitem(sys.modules, "scipy.optimize._lsap")
        assert _load_linear_sum_assignment([str(tmp_path)]) is scipy.optimize.linear_sum_assignment
