"""Recorded service replies (``scripts/make_score_golden.py``) must come back byte for byte."""

import json
from pathlib import Path

import pytest

from locscore.harness.engine import handle_request_line
from locscore.harness.wire import dump_line

GOLDEN = Path(__file__).parent / "data" / "score_golden.jsonl"
CASES = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("case", CASES, ids=[f"line{i + 1}" for i in range(len(CASES))])
def test_reply_is_byte_identical(case):
    assert dump_line(handle_request_line(case["request"])) == case["reply"]
