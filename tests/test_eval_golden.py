"""Recorded evaluations (``scripts/make_eval_golden.py``) must come back byte for byte."""

import importlib.util
import json
from pathlib import Path

import pytest

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
