"""Recorded evaluations (``scripts/make_eval_golden.py``) must come back byte for byte."""

import importlib.util
import json
from pathlib import Path

import pytest

from locscore.errors import InvalidBoxError
from locscore.geometry import box_array
from locscore.harness.wire import dump_line, eval_to_dict
from locscore.metrics import evaluate_objects

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_eval_golden.py"
GOLDEN = Path(__file__).parent / "data" / "eval_golden.jsonl"
CASES = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def _load_script():
    spec = importlib.util.spec_from_file_location("make_eval_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_eval_golden = _load_script()


def test_golden_covers_the_edge_cases():
    names = {case["name"] for case in CASES}
    assert {"grid-iou", "over-100-per-image-and-category", "thousandths-spaces"} <= names
    assert sum("error" in case for case in CASES) == 3


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_evaluation_is_byte_identical(case):
    recorded = {key: case[key] for key in ("result", "error") if key in case}
    assert make_eval_golden.outcome(case) == recorded


def _objects(case):
    """The golden line's detections as (labels, (m, 4) array) per image, as run_batch holds them."""
    predictions, dataset = make_eval_golden.load_case(case)
    detections = [predictions.get(img.image_id, ()) for img in dataset.images]
    return [([label for label, _ in dets], box_array(box for _, box in dets)) for dets in detections], dataset


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_array_form_gives_the_recorded_evaluation(case):
    objects, dataset = _objects(case)
    if "result" in case:
        assert dump_line(eval_to_dict(evaluate_objects(objects, dataset))) == case["result"]
    else:  # the same first invalid box, named by its coordinates as floats
        with pytest.raises(InvalidBoxError) as raised:
            evaluate_objects(objects, dataset)
        assert f"InvalidBoxError: {raised.value}".split(" invalid in ")[1] == case["error"].split(" invalid in ")[1]


def test_array_form_needs_one_detection_set_per_image():
    objects, dataset = _objects(CASES[0])
    with pytest.raises(ValueError, match="detection sets for"):
        evaluate_objects(objects[:-1], dataset)
