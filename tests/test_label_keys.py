"""Labels keyed once per block or evaluation give what keying each ground-truth set alone gives.

``parsing.label_key_map`` keys every label of a scoring block
(``cost_matrices``) or of an evaluation (``label_spellings``,
``EvalDataset``, ``evaluate_objects``) at once. Each of them is checked
here against ``normalize_label`` applied set by set, on sets that spread
case and whitespace variants of a few labels over several images.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locscore.parsing as parsing
from locscore import Box, EvalDataset, EvalImage, GroundTruthSet, MatcherPolicy, evaluate, pixel_space
from locscore.geometry import box_array
from locscore.harness.annotations import dataset_from_images
from locscore.matching import cost_matrices, label_spellings
from locscore.parsing import label_key_map, normalize_label

from oracles import sequential_evaluate

SPACE = pixel_space(40, 30)

# case and whitespace variants of three labels
VARIANTS = ("cat", "Cat", " CAT", "traffic light", "Traffic  Light", "traffic\tlight ", "dog", "DOG", "Dog ")

# small integer corners, so overlaps and exact ties are common
BOXES = st.builds(
    lambda x, y, w, h: Box(float(x), float(y), float(x + w), float(y + h)),
    st.integers(0, 4), st.integers(0, 4), st.integers(1, 6), st.integers(1, 6),
)
OBJECTS = st.lists(st.tuples(st.sampled_from(VARIANTS), BOXES), max_size=6)
SETS = st.lists(OBJECTS.map(lambda pairs: GroundTruthSet.from_pairs(pairs, SPACE)), max_size=5)


def test_label_key_map_keys_each_spelling_once_in_first_order():
    assert label_key_map(["Cat", "dog", "Cat", " CAT", "dog"]) == {"Cat": "cat", "dog": "dog", " CAT": "cat"}
    assert list(label_key_map(["b", "a", "b"])) == ["b", "a"]
    assert label_key_map([]) == {}


@given(SETS)
@settings(max_examples=200)
def test_label_spellings_equal_per_set_keys(gts):
    """Category order and first spellings are those of keying each set alone, in set order."""
    expected: dict[str, str] = {}
    for gt in gts:
        for label in gt.labels:
            expected.setdefault(normalize_label(label), label)
    assert list(label_spellings(gts).items()) == list(expected.items())
    assert all(gt.label_keys == tuple(map(normalize_label, gt.labels)) for gt in gts)


@given(SETS, st.lists(st.sampled_from(VARIANTS), max_size=4))
@settings(max_examples=200)
def test_dataset_check_names_what_per_set_keys_name(gts, categories):
    """The "missing from the category list" fault names the least missing key of the first image
    that holds one, as a check of each image's own keys does."""
    images = tuple(EvalImage(f"img{index}", gt) for index, gt in enumerate(gts))
    known = {normalize_label(category) for category in categories}
    expected = None
    for gt in gts:
        missing = {normalize_label(label) for label in gt.labels} - known
        if missing:
            expected = f"ground-truth label {min(missing)!r} missing from the category list"
            break
    try:
        EvalDataset(images, tuple(categories))
        fault = None
    except ValueError as exc:
        fault = str(exc)
    assert fault == expected


@given(SETS, st.data())
@settings(max_examples=150, deadline=None)
def test_evaluation_equals_the_per_image_reference(gts, data):
    """Over the images' own categories, spelled as first seen, and detections spelled as any
    variant or as an unknown label, the evaluation equals the per-image loop bit for bit."""
    images = [EvalImage(f"img{index}", gt) for index, gt in enumerate(gts)]
    labels = st.sampled_from((*VARIANTS, "bird"))
    predictions = {image.image_id: data.draw(st.lists(st.tuples(labels, BOXES), max_size=8)) for image in images}
    dataset = dataset_from_images(images)
    assert evaluate(predictions, dataset) == sequential_evaluate(predictions, dataset)


@given(SETS, st.data())
@settings(max_examples=200, deadline=None)
def test_block_label_agreement_equals_per_pair_keys(gts, data):
    """Each cell of a block's label-agreement matrix is the two labels' ``normalize_label``
    compared, in a row's own columns, and False in its padding; one set is met by broadcasting."""
    if not gts:
        gts = [GroundTruthSet((), SPACE)]
    owner = data.draw(st.lists(st.integers(0, len(gts) - 1), max_size=12))
    labels = data.draw(st.lists(st.sampled_from((*VARIANTS, "bird")), min_size=len(owner), max_size=len(owner)))
    boxes = box_array(data.draw(BOXES) for _ in owner)
    policies = [MatcherPolicy.BOX_AND_LABEL] * len(gts)
    _, _, same = cost_matrices(boxes, labels, gts, policies, np.array(owner, dtype=np.intp))
    width = max(len(gt) for gt in gts) if len(gts) > 1 else len(gts[0])
    expected = [
        [j < len(gts[o]) and normalize_label(label) == normalize_label(gts[o].labels[j]) for j in range(width)]
        for label, o in zip(labels, owner)
    ]
    assert same.shape == (len(owner), width)
    assert same.tolist() == expected


@pytest.mark.parametrize("count", [1, 3])
def test_block_keys_each_spelling_once(count, monkeypatch):
    """A block of ``count`` sets keys each distinct spelling of its ground truths and predictions
    once, however many sets and rows hold it."""
    calls = []
    real = parsing.normalize_label
    monkeypatch.setattr(parsing, "normalize_label", lambda label: calls.append(label) or real(label))
    gt = GroundTruthSet.from_arrays(["Cat", "dog", "Cat"], [[0, 0, 5, 5], [1, 1, 4, 4], [2, 2, 9, 9]], SPACE)
    labels = ["cat", "Cat", "dog", "cat"]
    boxes = box_array([Box(0, 0, 3, 3)] * len(labels))
    cost_matrices(boxes, labels, [gt] * count, [MatcherPolicy.BOX_ONLY] * count, np.arange(len(labels)) % count)
    assert sorted(calls) == ["Cat", "cat", "dog"]
