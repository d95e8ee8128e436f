import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locscore import (
    Box,
    CoordinateSpace,
    EvalDataset,
    EvalImage,
    GroundTruthSet,
    InvalidBoxError,
    SpaceKind,
    evaluate,
    pixel_space,
)
from locscore.metrics import IOU_THRESHOLDS

from conftest import LABELS, random_box, random_int_box
from oracles import reference_evaluate, sequential_evaluate

SPACE = pixel_space(640, 480)


def make_dataset(scenes):
    """scenes: list of (image_id, [(label, Box)])."""
    images = []
    categories = []
    for image_id, gts in scenes:
        images.append(
            EvalImage(image_id, GroundTruthSet.from_pairs(gts, SPACE))
        )
        for label, _ in gts:
            if label not in categories:
                categories.append(label)
    return EvalDataset(tuple(images), tuple(sorted(categories)))


def as_plain(scenes):
    return [
        (image_id, [(label, box.coords()) for label, box in gts]) for image_id, gts in scenes
    ]


def preds_as_plain(predictions):
    return {
        image_id: [(label, box.coords()) for label, box in preds]
        for image_id, preds in predictions.items()
    }


def _shift(box, delta, max_x=640.0, max_y=480.0):
    """Translate a box, clamped so it stays valid inside the image."""
    x1 = min(max(0.0, box.x1 + delta), max_x - 1.0)
    y1 = min(max(0.0, box.y1 + delta), max_y - 1.0)
    x2 = min(max_x, max(x1 + 1.0, box.x2 + delta))
    y2 = min(max_y, max(y1 + 1.0, box.y2 + delta))
    return Box(x1, y1, x2, y2)


class TestPerImageCounts:
    """True and false positives on one image, read off ``evaluate`` of a one-image dataset."""

    def test_exact_reproduction(self):
        gts = [("cat", Box(0, 0, 10, 10)), ("dog", Box(20, 20, 40, 40))]
        result = evaluate({"img0": gts}, make_dataset([("img0", gts)]))
        assert (result.map_5095, result.ar100) == (1.0, 1.0)

    def test_no_predictions(self):
        gts = [("cat", Box(0, 0, 10, 10)), ("cat", Box(20, 0, 30, 10)), ("dog", Box(0, 20, 10, 30))]
        result = evaluate({"img0": []}, make_dataset([("img0", gts)]))
        assert (result.map_5095, result.ar100) == (0.0, 0.0)

    def test_duplicate_is_false_positive(self):
        # the duplicate of the first cat is ranked before the second cat, so
        # precision at full recall is 2/3: 51 recall points at 1, then 50 at 2/3
        gts = [("cat", Box(0, 0, 10, 10)), ("cat", Box(100, 100, 110, 110))]
        preds = [("cat", Box(0, 0, 10, 10)), ("cat", Box(1, 1, 11, 11)), ("cat", Box(100, 100, 110, 110))]
        result = evaluate({"img0": preds}, make_dataset([("img0", gts)]))
        assert result.ap50 == pytest.approx((51 + 50 * 2 / 3) / 101)
        assert result.ar100 == 1.0

    def test_label_must_match(self):
        gts = [("cat", Box(0, 0, 10, 10))]
        dataset = EvalDataset(make_dataset([("img0", gts)]).images, ("cat", "dog"))
        result = evaluate({"img0": [("dog", Box(0, 0, 10, 10))]}, dataset)
        assert (result.map_5095, result.ar100, result.diagnostics) == (0.0, 0.0, ())


class TestEvalDataset:
    def test_duplicate_image_ids_rejected(self):
        image = make_dataset([("img0", [("cat", Box(0, 0, 10, 10))])]).images[0]
        with pytest.raises(ValueError) as raised:
            EvalDataset((image, image), ("cat",))
        assert str(raised.value) == "image ids must be unique"

    def test_label_outside_the_categories_rejected(self):
        images = make_dataset([("img0", [("cat", Box(0, 0, 10, 10))])]).images
        with pytest.raises(ValueError) as raised:
            EvalDataset(images, ("dog",))
        assert str(raised.value) == "ground-truth label 'cat' missing from the category list"


class TestEvaluateExamples:
    def test_perfect_detector(self):
        rng = random.Random(31)
        scenes = [
            (f"img{i}", [(rng.choice(LABELS), random_box(rng)) for _ in range(3)])
            for i in range(4)
        ]
        dataset = make_dataset(scenes)
        predictions = {image_id: list(gts) for image_id, gts in scenes}
        result = evaluate(predictions, dataset)
        assert result.map_5095 == 1.0
        assert result.ar100 == 1.0

    def test_no_predictions(self):
        dataset = make_dataset([("img0", [("cat", Box(0, 0, 10, 10))])])
        result = evaluate({}, dataset)
        assert result.map_5095 == 0.0
        assert result.ar100 == 0.0

    def test_single_prediction_iou_point_six(self):
        # intersection 60, union 100: IoU is exactly 60/100, which reaches the
        # 0.5 and 0.55 gridpoints but not the accumulated-float 0.6 gridpoint
        dataset = make_dataset([("img0", [("cat", Box(0, 0, 10, 10))])])
        predictions = {"img0": [("cat", Box(0, 0, 10, 6))]}
        result = evaluate(predictions, dataset)
        assert result.ap50 == 1.0
        assert result.ap75 == 0.0
        assert result.map_5095 == 0.2

    def test_unknown_category_is_diagnosed_not_fatal(self):
        dataset = make_dataset([("img0", [("cat", Box(0, 0, 10, 10))])])
        predictions = {"img0": [("unicorn", Box(0, 0, 10, 10)), ("cat", Box(0, 0, 10, 10))]}
        result = evaluate(predictions, dataset)
        assert result.map_5095 == 1.0
        assert any("outside the category list" in d for d in result.diagnostics)

    def test_threshold_monotonicity(self):
        rng = random.Random(77)
        scenes = [
            (f"img{i}", [(rng.choice(LABELS), random_box(rng)) for _ in range(4)])
            for i in range(3)
        ]
        dataset = make_dataset(scenes)
        predictions = {
            image_id: [(label, _shift(b, 2.0)) for label, b in gts]
            for image_id, gts in scenes
        }
        result = evaluate(predictions, dataset)
        values = [result.ap_per_iou[t] for t in IOU_THRESHOLDS]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_map_is_mean_of_per_threshold_values(self):
        rng = random.Random(78)
        scenes = [("img0", [(rng.choice(LABELS), random_box(rng)) for _ in range(4)])]
        dataset = make_dataset(scenes)
        predictions = {"img0": [(label, b) for label, b in scenes[0][1][:2]]}
        result = evaluate(predictions, dataset)
        mean = sum(result.ap_per_iou.values()) / len(result.ap_per_iou)
        assert abs(result.map_5095 - mean) < 1e-9

    def test_duplicating_an_unmatched_gt_never_lowers_ar(self):
        rng = random.Random(79)
        scenes = [("img0", [(rng.choice(LABELS), random_int_box(rng)) for _ in range(4)])]
        dataset = make_dataset(scenes)
        covered = scenes[0][1][:2]
        result_before = evaluate({"img0": list(covered)}, dataset)
        uncovered = scenes[0][1][2]
        result_after = evaluate({"img0": list(covered) + [uncovered]}, dataset)
        assert result_after.ar100 >= result_before.ar100


def _random_scene(rng, n_images, max_boxes):
    scenes = []
    predictions = {}
    for i in range(n_images):
        image_id = f"img{i}"
        gts = [
            (rng.choice(LABELS), random_int_box(rng))
            for _ in range(rng.randrange(0, max_boxes + 1))
        ]
        scenes.append((image_id, gts))
        preds = []
        for label, box in gts:
            roll = rng.random()
            if roll < 0.25:
                continue  # miss
            if roll < 0.55:
                preds.append((label, box))  # perfect hit
            else:
                preds.append((label, _shift(box, rng.uniform(-8, 8))))
        for _ in range(rng.randrange(0, 3)):
            preds.append((rng.choice(LABELS), random_int_box(rng)))  # spurious
        rng.shuffle(preds)
        predictions[image_id] = preds
    return scenes, predictions


# boxes 10 wide at one corner: heights h <= k overlap with IoU h / k, correctly
# rounded, so 12/20 lands exactly on the nominal 0.6 and 9/12 on 0.75, and a
# box between two others ties exactly (12: 9/12 = 12/16; 20: 16/20 = 20/25)
_TIE_HEIGHTS = (8.0, 9.0, 12.0, 16.0, 20.0, 25.0)
_TIE_LABELS = ("cat", "Cat ", "dog")


def _tie_heavy_scene(rng, n_images):
    """Scenes of duplicated ground truths, identical predictions and exact IoU ties."""
    scenes = []
    predictions = {}
    for i in range(n_images):
        x, y = float(rng.randrange(0, 20)), float(rng.randrange(0, 20))

        def box():
            return Box(x, y, x + 10.0, y + rng.choice(_TIE_HEIGHTS))

        image_id = f"img{i}"
        gts = [(rng.choice(_TIE_LABELS), box()) for _ in range(rng.randrange(0, 8))]
        preds = [(rng.choice(_TIE_LABELS), box()) for _ in range(rng.randrange(0, 9))]
        if gts and rng.random() < 0.5:
            preds.append(rng.choice(gts))  # an exact copy of a ground truth
        if preds:
            preds += [rng.choice(preds)] * rng.randrange(0, 3)  # identical repeats
        scenes.append((image_id, gts))
        predictions[image_id] = preds
    return scenes, predictions


class TestOracleAgreement:
    def test_random_scenes_match_reference(self):
        rng = random.Random(404)
        for _ in range(60):
            scenes, predictions = _random_scene(rng, rng.randrange(1, 5), 8)
            if not any(gts for _, gts in scenes):
                continue
            dataset = make_dataset(scenes)
            result = evaluate(predictions, dataset)
            reference = reference_evaluate(
                preds_as_plain(predictions), as_plain(scenes), IOU_THRESHOLDS
            )
            assert result.map_5095 == pytest.approx(reference["map"], abs=1e-6)
            assert result.ap50 == pytest.approx(reference["ap50"], abs=1e-6)
            assert result.ap75 == pytest.approx(reference["ap75"], abs=1e-6)
            assert result.ar100 == pytest.approx(reference["ar100"], abs=1e-6)

    def test_tie_heavy_scenes_match_reference(self):
        rng = random.Random(405)
        checked = 0
        for _ in range(150):
            scenes, predictions = _tie_heavy_scene(rng, rng.randrange(1, 4))
            if not any(gts for _, gts in scenes):
                continue
            checked += 1
            dataset = make_dataset(scenes)
            result = evaluate(predictions, dataset)
            reference = reference_evaluate(
                preds_as_plain(predictions), as_plain(scenes), IOU_THRESHOLDS
            )
            for t in IOU_THRESHOLDS:
                assert result.ap_per_iou[t] == pytest.approx(reference["ap_per_iou"][t], abs=1e-6)
            assert result.map_5095 == pytest.approx(reference["map"], abs=1e-6)
            assert result.ar100 == pytest.approx(reference["ar100"], abs=1e-6)
        assert checked > 100


def _outcome(evaluator, predictions, dataset):
    try:
        return evaluator(predictions, dataset)
    except InvalidBoxError as exc:
        return str(exc)


# small integer corners, so identical boxes and exact IoU ties are common; x = 37
# puts a box past a 40-pixel extent
_GRID_BOXES = st.builds(
    lambda x, y, w, h: Box(float(x), float(y), float(x + w), float(y + h)),
    st.integers(0, 4) | st.just(37), st.integers(0, 4), st.integers(1, 6), st.integers(1, 6),
)


@st.composite
def grid_datasets(draw):
    """Tie-heavy datasets: repeated ground truths and detections, label spellings,
    a category without ground truth, unknown labels, both spaces, missing and
    foreign prediction ids."""
    images, predictions = [], {}
    for index in range(draw(st.integers(0, 4))):
        space = CoordinateSpace(draw(st.sampled_from(SpaceKind)), 40, 30)
        gts = draw(st.lists(st.tuples(st.sampled_from(("cat", "Cat ", "dog")), _GRID_BOXES), max_size=6))
        gts = [(label, box) for label, box in gts if box.x2 <= 40]
        detections = draw(st.lists(
            st.tuples(st.sampled_from(("cat", "CAT", "dog", " dog", "bird", "unicorn")), _GRID_BOXES),
            max_size=9,
        ))
        if gts:
            detections += draw(st.lists(st.sampled_from(gts), max_size=3))  # exact copies
        images.append(EvalImage(f"img{index}", GroundTruthSet.from_pairs(gts, space)))
        if draw(st.booleans()) or not detections:
            predictions[f"img{index}"] = draw(st.permutations(detections))
    predictions["elsewhere"] = [("cat", Box(0.0, 0.0, 99.0, 99.0))]
    return predictions, EvalDataset(tuple(images), ("cat", "dog", "bird"))


class TestExactDifferential:
    """The dataset-level kernel equals the per-image loop it replaced, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(grid_datasets())
    def test_grid_datasets_equal_sequential(self, case):
        predictions, dataset = case
        assert _outcome(evaluate, predictions, dataset) == _outcome(
            sequential_evaluate, predictions, dataset
        )

    def test_crowded_image_memory_grows_with_pairs(self):
        # one image holds 2,000 ground truths of one category and 100 detections
        # of it; padding every image to that block would need 500 x 100 x 2000
        # cells (800 MB of float64), pairs need 200,000 and some
        rng = random.Random(406)
        labels = ("cat", "dog", "car", "bird", "cup")

        def box():
            x, y = rng.randrange(0, 600), rng.randrange(0, 440)
            return Box(float(x), float(y), float(x + rng.randrange(2, 40)), float(y + rng.randrange(2, 40)))

        crowd = [("cat", box()) for _ in range(2000)]
        images = [EvalImage("crowd", GroundTruthSet.from_pairs(crowd, SPACE))]
        predictions = {"crowd": crowd[:100]}
        for index in range(499):
            gts = [(rng.choice(labels), box()) for _ in range(rng.randrange(1, 8))]
            images.append(EvalImage(f"img{index}", GroundTruthSet.from_pairs(gts, SPACE)))
            predictions[f"img{index}"] = [pair for pair in gts if rng.random() < 0.8] + [
                (rng.choice(labels), box()) for _ in range(2)
            ]
        dataset = EvalDataset(tuple(images), labels)
        pairs = 0
        for img in images:
            per_label = {}
            for label, _ in predictions[img.image_id]:
                per_label[label] = per_label.get(label, 0) + 1
            pairs += sum(min(n, 100) * len(img.gt.by_label.get(l, ())) for l, n in per_label.items())
        assert pairs > 200_000

        tracemalloc.start()
        try:
            result = evaluate(predictions, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 120 bytes per pair are measured: pair indices, gathered corners, IoU
        assert peak < 200 * pairs
        assert result == sequential_evaluate(predictions, dataset)
