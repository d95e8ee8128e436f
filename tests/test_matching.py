import json
import os
import random
import subprocess
import sys
import tracemalloc
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
import locscore.matching as matching
from locscore.matching import (
    _COST_TIE_ATOL,
    LABEL_MISMATCH_PENALTY,
    STACK_LIMIT,
    _canonical_pairs,
    _load_linear_sum_assignment,
    _reduced_costs,
    _stacked_pairs,
    _stacked_reduced_costs,
    assign_slices,
    cost_matrices,
)

from conftest import INT_BOXES, LABELS, box_strategy, random_box, random_gt, related_boxes
from oracles import assignment_total, min_assignment_cost, padded_reduced_costs, reference_canonical_pairs

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


def _block(costs, pad=-7.0):
    """The slices ``costs`` one above the other in one block matrix, each row
    padded on the right with ``pad`` (which no slice may read); with the
    slices' row bounds and widths, as ``assign_slices`` takes them."""
    bounds = [0]
    for cost in costs:
        bounds.append(bounds[-1] + len(cost))
    block = np.full((bounds[-1], max(cost.shape[1] for cost in costs)), pad)
    for lo, cost in zip(bounds, costs):
        block[lo : lo + len(cost), : cost.shape[1]] = cost
    return block, bounds, [cost.shape[1] for cost in costs]


def block_pairs(costs):
    """Each slice's (row, ground truth) pairs from ``assign_slices`` on one block of ``costs``."""
    block, bounds, widths = _block(costs)
    return [[(i, j) for i, j, _, _ in pairs] for pairs in assign_slices(block, block, block, bounds, widths)]


def stacked_pairs(costs):
    """``_stacked_pairs`` of a block of ``costs`` (none empty), whatever their size."""
    block, bounds, widths = _block(costs)
    return _stacked_pairs(block, list(zip(bounds, bounds[1:], widths)))


def both_paths(cost):
    """``_canonical_pairs`` of ``cost``, checked equal to ``assign_slices``' on a block of two copies of
    it, which goes through the stack when ``cost`` is small enough."""
    pairs = _canonical_pairs(cost)
    assert block_pairs([cost, cost]) == [pairs, pairs]
    return pairs


def every_path(cost):
    """``both_paths`` of ``cost`` (none of its sides 0), checked equal to the stack's on any size."""
    pairs = both_paths(cost)
    assert stacked_pairs([cost, cost]) == [pairs, pairs]
    return pairs


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

    @pytest.mark.parametrize("m, g", [(2000, 5), (5, 2000)])
    def test_unbalanced_match_keeps_memory_bounded(self, m, g):
        """2000 predictions against 5 ground truths, or 5 against 2000: the
        dual pass works on m x (g + 1) or (m + 1) x g cells, and the peak
        stays under 10 MiB (259 and 130 MiB when both were padded to a 2000
        x 2000 square)."""
        rng = random.Random(m)
        preds = [(rng.choice(LABELS), random_box(rng)) for _ in range(m)]
        gt = random_gt(rng, g)
        tracemalloc.start()
        try:
            result = match(preds, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len([r for r in result if r.gt_index is not None]) == min(m, g)
        assert peak < 10 * 2**20, peak

    def test_zero_overlap_pairs_still_assigned(self):
        preds = [("cat", Box(0, 0, 10, 10))]
        gt = GroundTruthSet.from_pairs([("cat", Box(100, 100, 200, 200))], SPACE)
        result = match(preds, gt)
        assert result[0].gt_index == 0
        assert result[0].iou == 0.0


class TestCanonicalTieBreak:
    # exercises the solver's documented tie order on exact-tie cost matrices,
    # on the one-matrix path and the stack (both_paths)
    def test_exact_cost_tie_prefers_low_gt_for_low_pred(self):
        # both assignments total exactly 1.0 (binary-exact values)
        cost = np.array([[0.25, 0.5], [0.5, 0.75]])
        assert both_paths(cost) == [(0, 0), (1, 1)]

    def test_all_equal_matrix(self):
        cost = np.ones((3, 3))
        assert both_paths(cost) == [(0, 0), (1, 1), (2, 2)]

    def test_surplus_predictions_prefer_low_index_assignment(self):
        cost = np.ones((3, 1))
        assert both_paths(cost) == [(0, 0)]

    def test_rectangular_tie(self):
        cost = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])
        assert both_paths(cost) == [(0, 0), (1, 1)]

    def test_forced_skip_of_expensive_prediction(self):
        # pred 0 is costly everywhere; the optimum must leave it out
        cost = np.array([[10.0], [0.25]])
        assert both_paths(cost) == [(1, 0)]

    def test_rotation_only_when_a_real_row_can_move(self, monkeypatch):
        moved = []
        real = matching._lexicographic_rotation

        def spy(tight, assigned, g):
            before = list(assigned)
            real(tight, assigned, g)
            moved.append(assigned != before)

        monkeypatch.setattr(matching, "_lexicographic_rotation", spy)
        # every case goes through the one-matrix path and the stack (both_paths)
        # a unique best column: only the dummy row R ties, on every free column
        for cost in (np.array([[0.2, 0.5, 0.9]]), np.array([[0.2, 0.5, 0.9], [0.7, 0.1, 0.9]])):
            assert both_paths(cost) == reference_canonical_pairs(cost)
        assert moved == []
        # row 1's lowest tight column is below its own, but row 0 owns it and
        # is fixed first, so no pair can move and the rotation does not run
        cost = np.array([[0.0, 0.5], [0.0, 0.5]])
        assert matching.linear_sum_assignment(cost)[1].tolist() == [0, 1]
        assert both_paths(cost) == [(0, 0), (1, 1)]
        assert moved == []
        # a real tie that the solver breaks the other way does rotate
        assert both_paths(np.array([[0.5, 0.0], [0.5, 0.0]])) == [(0, 0), (1, 1)]
        assert moved == [True, True, True]

    def test_numeric_safety_net_keeps_the_solvers_pairs(self, monkeypatch):
        real = matching.linear_sum_assignment

        def solver(cost):
            if cost.shape in ((2, 2), (20, 20)):
                # not optimal on 1 - eye(n): every row takes its neighbour's column
                return np.arange(len(cost)), np.roll(np.arange(len(cost)), 1)
            return real(cost)

        monkeypatch.setattr(matching, "linear_sum_assignment", solver)
        small, large = 1.0 - np.eye(2), 1.0 - np.eye(20)
        assert 20 > STACK_LIMIT >= 3
        expected = [list(zip(range(n), np.roll(np.arange(n), 1).tolist())) for n in (2, 20)]
        assert [_canonical_pairs(small), _canonical_pairs(large)] == expected
        # on the stack, the small slice's fault leaves its neighbour's pairs alone
        fine = np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 0.5]])
        assert block_pairs([small, fine, large]) == [expected[0], [(0, 1), (2, 0)], expected[1]]


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
    return draw(box_costs(*_orient(draw(st.integers(1, 9)), draw(st.integers(1, 9)), shape)))


@st.composite
def box_costs(draw, m, g):
    labels = st.sampled_from(LABELS[:3])
    gt = [(draw(labels), draw(INT_BOXES)) for _ in range(g)]
    # about half the predictions duplicate a ground-truth box, so ties abound
    boxes = st.one_of(INT_BOXES, st.sampled_from([box for _, box in gt]))
    preds = [(draw(labels), draw(boxes)) for _ in range(m)]
    policy = draw(st.sampled_from(list(MatcherPolicy)))
    return engine_cost_matrix(preds, GroundTruthSet.from_pairs(gt, pixel_space(64, 64)), policy)[0]


# Near ties: one offset below TIE_ATOL goes on one cell only, since several
# add up to the band the two tie rules read differently; offsets above it
# are whole multiples of one value, so an alternative is off by 0 or by more
# than TIE_ATOL, on each edge and in total.
NEAR_TIES = (5e-10, 2e-9, 1e-8)


@st.composite
def tie_heavy_costs(draw, m, g):
    """An m x g cost rich in exact and near ties, or a box cost under either policy."""
    kind = draw(st.sampled_from(["quarters", "equal-rows", "equal-columns", "continuous", "boxes"]))
    if min(m, g) == 0:
        return np.zeros((m, g))
    if kind == "boxes":
        return draw(box_costs(m, g))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "continuous":
        return rng.uniform(0.0, 2.0, size=(m, g))
    cost = rng.choice(SMALL_VALUES["quarters"], size=(m, g))
    if kind == "equal-rows":
        cost[:] = cost[0]
    elif kind == "equal-columns":
        cost[:] = cost[:, :1]
    near = draw(st.sampled_from((None,) + NEAR_TIES))
    if near is not None and near <= TIE_ATOL:
        cost[rng.integers(m), rng.integers(g)] += rng.choice([-near, near])
    elif near is not None:
        cost += rng.integers(-1, 2, size=(m, g)) * near
    return cost


@st.composite
def slice_blocks(draw):
    """1-12 slices of 0-20 rows and columns, on both sides of ``STACK_LIMIT``."""
    side = st.integers(0, 20)
    return [draw(tie_heavy_costs(draw(side), draw(side))) for _ in range(draw(st.integers(1, 12)))]


@st.composite
def plateau_costs(draw, m, g):
    """An m x g cost on a plateau: every cell equal, or IoU-0 rows (cost exactly 1.0) among rows of
    positive overlap, or else a ``tie_heavy_costs`` matrix."""
    kind = draw(st.sampled_from(["all-equal", "iou-0-rows", "tie-heavy"]))
    if kind == "tie-heavy":
        return draw(tie_heavy_costs(m, g))
    if kind == "all-equal":
        return np.full((m, g), draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cost = rng.choice(SMALL_VALUES["quarters"][:-1], size=(m, g))
    cost[rng.random(m) < 0.5] = 1.0
    return cost


# strongly unbalanced shapes: one dummy column or row D or R stands for many
UNBALANCED = [(40, 3), (3, 40), (1, 12), (12, 1), (1, 40), (40, 1), (16, 2), (2, 16)]


class TestCanonicalPairsDifferential:
    def test_tolerance(self):
        assert _COST_TIE_ATOL == TIE_ATOL

    @pytest.mark.parametrize("shape", [(6, 2), (2, 6), (5, 5), (30, 4), (4, 30)])
    def test_collapse_is_exact(self, shape):
        """The collapsed layout's reduced costs are the padded square's, bit
        for bit: on every real cell; D against each dummy column; R against
        the least of the dummy rows, cell by cell (at Bellman-Ford's fixed
        point every dummy row's)."""
        rng = np.random.default_rng(sum(shape))
        m, g = shape
        for cost in [rng.uniform(0.0, 2.0, size=shape), rng.choice([0.0, 0.5, 1.0], size=shape), np.ones(shape)]:
            rows, real = matching.linear_sum_assignment(cost)
            cols = np.full(m, g)
            cols[rows] = real
            reduced, padded = _reduced_costs(cost, cols), padded_reduced_costs(cost, rows, real)
            assert reduced[:m, :g].tobytes() == padded[:m, :g].tobytes()
            if m > g:
                assert reduced.shape == (m, g + 1)
                for dummy in padded[:, g:].T:
                    assert reduced[:, g].tobytes() == dummy.tobytes()
            elif m < g:
                assert reduced.shape == (m + 1, g)
                assert reduced[m].tobytes() == padded[m:].min(axis=0).tobytes()
            else:
                assert reduced.shape == shape

    @pytest.mark.parametrize("shape", UNBALANCED)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_on_unbalanced_shapes(self, shape, data):
        cost = data.draw(plateau_costs(*shape))
        assert every_path(cost) == reference_canonical_pairs(cost, atol=TIE_ATOL)

    @pytest.mark.parametrize("shape", [(40, 3), (3, 40), (6, 6), (1, 9), (9, 1)])
    @given(box=INT_BOXES, data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_on_identical_boxes(self, shape, box, data):
        labels = st.lists(st.sampled_from(LABELS[:2]), min_size=shape[0] + shape[1], max_size=shape[0] + shape[1])
        drawn = data.draw(labels)
        gt = GroundTruthSet.from_pairs([(label, box) for label in drawn[shape[0] :]], pixel_space(64, 64))
        for policy in MatcherPolicy:
            cost = engine_cost_matrix([(label, box) for label in drawn[: shape[0]]], gt, policy)[0]
            assert every_path(cost) == reference_canonical_pairs(cost, atol=TIE_ATOL)

    @pytest.mark.parametrize("shape", ["wide", "tall"])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_tie_matrices(self, shape, data):
        cost = data.draw(tie_cost_matrices(shape))
        assert both_paths(cost) == reference_canonical_pairs(cost, atol=TIE_ATOL)

    @pytest.mark.parametrize("shape", ["wide", "tall"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_box_matrices(self, shape, data):
        cost = data.draw(box_cost_matrices(shape))
        assert both_paths(cost) == reference_canonical_pairs(cost, atol=TIE_ATOL)


@st.composite
def unbalanced_blocks(draw):
    """1-12 slices of strongly unbalanced shapes, small and large, on plateaus."""
    shapes = st.sampled_from(UNBALANCED + [(1, 1), (16, 1), (1, 16), (12, 3), (3, 12)])
    return [draw(plateau_costs(*draw(shapes))) for _ in range(draw(st.integers(1, 12)))]


class TestStackedSlices:
    """``assign_slices`` matches the slices of at most ``STACK_LIMIT`` rows and
    columns on one stack, the others one by one."""

    @given(slice_blocks())
    @settings(max_examples=100, deadline=None)
    def test_each_slice_matches_the_reference(self, costs):
        for cost, pairs in zip(costs, block_pairs(costs)):
            assert pairs == reference_canonical_pairs(cost, atol=TIE_ATOL)

    @given(unbalanced_blocks())
    @settings(max_examples=60, deadline=None)
    def test_unbalanced_plateau_slices_match_the_reference_on_both_paths(self, costs):
        expected = [reference_canonical_pairs(cost, atol=TIE_ATOL) for cost in costs]
        assert block_pairs(costs) == expected
        assert stacked_pairs(costs) == expected
        self.assert_inert(costs)

    @staticmethod
    def assert_inert(costs):
        """Each layer of the stack of ``costs`` (none empty) holds, bit for
        bit, the reduced costs of its slice alone, and its padding is +inf."""
        block, bounds, widths = _block(costs)
        _, reduced, cols, _ = _stacked_reduced_costs(block, list(zip(bounds, bounds[1:], widths)))
        for layer, matched, cost in zip(reduced, cols, costs):
            m, g = cost.shape
            rows, real = matching.linear_sum_assignment(cost)
            alone = np.full(m, g)
            alone[rows] = real
            assert matched[:m].tolist() == alone.tolist()
            corner = _reduced_costs(cost, alone)
            expected = np.full(layer.shape, np.inf)
            expected[: len(corner), : corner.shape[1]] = corner
            assert layer.tobytes() == expected.tobytes()

    def test_padding_is_inert_bit_for_bit(self):
        rng = np.random.default_rng(5)
        # m > g, m < g and m = g in one stack; continuous costs take many rounds
        costs = [rng.uniform(0.0, 2.0, size=shape) for shape in [(5, 3), (2, 7), (4, 4), (1, 1), (16, 2), (9, 9)]]
        costs.append(np.full((3, 5), 0.5))
        self.assert_inert(costs)

    @given(slice_blocks())
    @settings(max_examples=60, deadline=None)
    def test_padding_is_inert_on_drawn_blocks(self, costs):
        costs = [cost for cost in costs if min(cost.shape) > 0]
        assume(costs)
        self.assert_inert(costs)

    def test_many_small_slices_keep_memory_bounded(self):
        """4096 slices of 16 predictions against one ground truth: in one
        stack of 16 x 2 layouts they would take 1 MiB per array; in stacks of
        ``STACK_SQUARES`` the peak stays under 3 MiB (2.3 MiB when the stack
        padded each slice to a 16 x 16 square)."""
        cost = np.random.default_rng(3).random((4096 * 16, 1))
        tracemalloc.start()
        try:
            assign_slices(cost, cost, cost, list(range(0, len(cost) + 1, 16)), [1] * 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, peak


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
