"""Every recorded number is the same under either float ``sum`` of CPython.

Python 3.12 sums floats with Neumaier compensation, and 3.10 and 3.11 add
them left to right. ``compensated_sum`` is 3.12's algorithm written in
Python; bound as ``sum`` into every ``locscore`` module, it must leave the
score, batch and evaluation golden replays byte for byte as recorded.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from locscore.harness.batch import run_batch
from locscore.harness.engine import handle_request_line
from locscore.harness.wire import dump_line, eval_to_dict
from locscore.metrics import evaluate_objects
from locscore.sums import left_sum
from test_eval_golden import CASES as EVAL_CASES
from test_eval_golden import _objects, make_eval_golden

DATA = Path(__file__).parent / "data"


def compensated_sum(values, start=0):
    """CPython 3.12's builtin ``sum``: exact floats are added with Neumaier compensation."""
    total, compensation = start, 0.0
    for value in values:
        if type(total) is float and type(value) is float:
            step = total + value
            if abs(total) >= abs(value):
                compensation += (total - step) + value
            else:
                compensation += (value - step) + total
            total = step
        elif type(total) is float and isinstance(value, int):
            total += value
        else:
            if type(total) is float and compensation and math.isfinite(compensation):
                total += compensation
            compensation = 0.0
            total = total + value
    if type(total) is float and compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_the_two_sums_differ():
    """The emulation is compensated, and ``left_sum`` is the builtin sum of this interpreter
    up to 3.11."""
    assert compensated_sum([0.1] * 10) == 1.0 and left_sum([0.1] * 10) == 0.9999999999999999
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0 and left_sum([1e100, 1.0, -1e100]) == 0.0
    assert compensated_sum([True, False, True]) == left_sum([True, False, True]) == 2
    if sys.version_info < (3, 12):
        for values in ([0.1] * 10, [1e100, 1.0, -1e100], [0.5, True, 2, 1e-300]):
            assert left_sum(values).hex() == sum(values).hex()


@pytest.fixture
def with_compensated_sum(monkeypatch):
    for name, module in list(sys.modules.items()):
        if name == "locscore" or name.startswith("locscore."):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def test_golden_replays_are_unchanged(with_compensated_sum, tmp_path):
    changed = []
    score = [json.loads(line) for line in (DATA / "score_golden.jsonl").read_text(encoding="utf-8").splitlines()]
    for number, case in enumerate(score, start=1):
        if dump_line(handle_request_line(case["request"])) != case["reply"]:
            changed.append(f"score line{number}")
    batch = [json.loads(line) for line in (DATA / "batch_golden.jsonl").read_text(encoding="utf-8").splitlines()]
    for case in batch:
        out = tmp_path / case["name"]
        out.mkdir()
        (out / "manifest.jsonl").write_text(case["manifest"], encoding="utf-8")
        run_batch(out / "manifest.jsonl", out)
        responses = (out / "responses.jsonl").read_text(encoding="utf-8")
        if (responses, (out / "report.json").read_text(encoding="utf-8")) != (case["responses"], case["report"]):
            changed.append(f"batch {case['name']}")
    for case in EVAL_CASES:
        recorded = {key: case[key] for key in ("result", "error") if key in case}
        if make_eval_golden.outcome(case) != recorded:
            changed.append(f"eval {case['name']}")
        if "result" in case and dump_line(eval_to_dict(evaluate_objects(*_objects(case)))) != case["result"]:
            changed.append(f"eval {case['name']} as arrays")
    assert changed == []
