"""Recorded batch runs (``scripts/make_batch_golden.py``) must come back byte for byte."""

import json
from pathlib import Path

import pytest

import locscore.harness.engine as engine_module
from locscore.harness import handle_request_line
from locscore.harness.batch import ERROR_TEXT, run_batch

GOLDEN = Path(__file__).parent / "data" / "batch_golden.jsonl"
CASES = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def test_golden_covers_blocks_and_faults():
    reports = {case["name"]: json.loads(case["report"]) for case in CASES}
    # more than two blocks of 64 when replayed at that size (below); at
    # engine.BLOCK_GROUPS = 256 every manifest is one block
    assert max(report["groups"] for report in reports.values()) > 128
    errors = [entry["error"] for report in reports.values() for entry in report["errors"]]
    for text in ("invalid JSON: nesting too deep", "invalid JSON: number too long",
                 "unknown task 'segmentation'", "KL estimate or objective overflows float64",
                 "advantage computation needs at least two completions per group"):
        assert text in errors
    assert any(text.startswith("duplicate final entry") for text in errors)
    assert all("eval" in report for report in reports.values())


def assert_replayed(case, tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_bytes(case["manifest"].encode("utf-8"))
    run_batch(manifest, tmp_path / "out")
    assert (tmp_path / "out" / "responses.jsonl").read_bytes().decode("utf-8") == case["responses"]
    assert (tmp_path / "out" / "report.json").read_bytes().decode("utf-8") == case["report"]


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_batch_outputs_are_byte_identical(case, tmp_path):
    assert_replayed(case, tmp_path)


@pytest.mark.parametrize("block_groups", [64, 7])
@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_batch_outputs_do_not_depend_on_the_block_size(case, block_groups, tmp_path, monkeypatch):
    """Blocks of 7 requests close inside every manifest, blocks of 64 inside the two largest."""
    monkeypatch.setattr(engine_module, "BLOCK_GROUPS", block_groups)
    assert_replayed(case, tmp_path)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_serve_and_score_agree_line_by_line(case):
    """Each manifest line's service reply is its recorded batch outcome."""
    lines = [(n, line) for n, line in enumerate(case["manifest"].splitlines(), start=1) if line.strip()]
    responses = iter(case["responses"].splitlines())
    errors = {}
    for entry in json.loads(case["report"])["errors"]:
        if not entry["error"].startswith("duplicate final entry"):  # a fact of the batch, not of a line
            errors[entry["line"]] = entry["error"]
    for lineno, line in lines:
        reply = handle_request_line(line.strip())
        if reply["ok"]:
            assert lineno not in errors
            assert reply == json.loads(next(responses))
        else:
            error = reply["error"]
            assert ERROR_TEXT[error["kind"]].format(error["detail"]) == errors.pop(lineno)
    assert next(responses, None) is None
    assert errors == {}
