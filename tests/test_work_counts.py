"""Counted work: how often the costly steps of scoring and evaluation run on a fixed input.

Counts do not move with the machine's load, so a rise here shows more work
without a clock. A change that lowers a count lowers it here; one that raises
it says why in CHANGES.md.
"""

import json
from collections import Counter
from pathlib import Path

import locscore.matching as matching
import locscore.metrics as metrics
import locscore.parsing as parsing
import locscore.rewards as rewards
from locscore.harness.batch import run_batch

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "data" / "batch_golden.jsonl"


def count(monkeypatch, counts, module, *names):
    """Count in ``counts`` each later call of ``module``'s functions ``names``, by name."""
    for name in names:
        real = getattr(module, name)

        def spy(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, spy)


def test_matcher_work_on_the_fixture_manifest(tmp_path, monkeypatch):
    counts = Counter()
    count(monkeypatch, counts, matching, "linear_sum_assignment", "_lexicographic_rotation")
    run_batch(FIXTURES / "manifest.jsonl", tmp_path / "out")
    # one solve per non-empty completion, and no rotation; the 20 completions
    # matched one by one here are all empty slices, so this manifest reaches
    # neither the one-by-one dual pass nor the rotation (the next test does)
    assert (counts["linear_sum_assignment"], counts["_lexicographic_rotation"]) == (60, 0)


def run_golden_manifests(tmp_path):
    for number, line in enumerate(GOLDEN.read_text(encoding="utf-8").splitlines()):
        manifest = tmp_path / f"manifest-{number}.jsonl"
        manifest.write_bytes(json.loads(line)["manifest"].encode("utf-8"))
        run_batch(manifest, tmp_path / f"out-{number}")


def test_work_on_the_batch_golden_manifests(tmp_path, monkeypatch):
    counts = Counter()
    count(
        monkeypatch, counts, matching,
        "linear_sum_assignment", "_lexicographic_rotation", "_stacked_pairs", "_reduced_costs", "_can_move",
    )
    count(monkeypatch, counts, parsing, "read_numbers")
    cells = count_dual_cells(monkeypatch)
    run_golden_manifests(tmp_path)
    # one solve per non-empty completion; 14 stacks, and 10 slices matched one
    # by one with their own dual pass; _can_move runs once per stack and once
    # per one-by-one slice, and read_numbers once per entry of a completion
    # that fails the whole-list check
    assert dict(counts) == {
        "linear_sum_assignment": 656,
        "_lexicographic_rotation": 154,
        "_stacked_pairs": 14,
        "_reduced_costs": 10,
        "_can_move": 24,
        "read_numbers": 123,
    }
    # the cells of every dual pass's reduced costs: a slice alone is m x (g + 1)
    # or (m + 1) x g, a stack (k, M + 1, G + 1). Padding each slice to its
    # max(m, g) square, and a stack to its largest square, took 170,907
    assert cells == [128_392]


def count_dual_cells(monkeypatch):
    """A one-item list that sums the cells of the reduced costs of each later dual pass."""
    cells = [0]
    alone, stacked = matching._reduced_costs, matching._stacked_reduced_costs

    def spy_alone(*args):
        reduced = alone(*args)
        cells[0] += reduced.size
        return reduced

    def spy_stacked(*args):
        solved, reduced, *rest = stacked(*args)
        cells[0] += reduced.size
        return (solved, reduced, *rest)

    monkeypatch.setattr(matching, "_reduced_costs", spy_alone)
    monkeypatch.setattr(matching, "_stacked_reduced_costs", spy_stacked)
    return cells


def count_box_checks(monkeypatch, counts):
    """Count each later ``validate_boxes`` call made through the name that
    ``matching``, ``parsing``, ``rewards`` or ``metrics`` looks up."""
    for module in (matching, parsing, rewards, metrics):
        count(monkeypatch, counts, module, "validate_boxes")


def test_box_checks_on_the_fixture_manifest(tmp_path, monkeypatch):
    counts = Counter()
    count_box_checks(monkeypatch, counts)
    run_batch(FIXTURES / "manifest.jsonl", tmp_path / "out")
    # its 20 requests are one block: one ground-truth check for all of them
    # (matching), one for the block's completion boxes (parsing) and one for
    # the evaluation (metrics)
    assert counts["validate_boxes"] == 3


def test_box_checks_on_the_batch_golden_manifests(tmp_path, monkeypatch):
    counts = Counter()
    count_box_checks(monkeypatch, counts)
    run_golden_manifests(tmp_path)
    # each of the six manifests is one block. matching: 22, one ground-truth
    # check per block and one more for each of the 16 requests with a fault
    # in a field read after their ground truth, which is checked first.
    # parsing and rewards: 7 each, one completion check and one conversion
    # check per part of a block the kernel builds at once (the floods of
    # "mixed" make two). metrics: one evaluation per manifest
    assert counts["validate_boxes"] == 22 + 7 + 7 + 6


def count_label_keys(monkeypatch, counts):
    """Count each later ``normalize_label`` call made through the name that
    ``parsing``, ``matching`` or ``metrics`` looks up."""
    for module in (parsing, matching, metrics):
        count(monkeypatch, counts, module, "normalize_label")


def test_label_keys_on_the_fixture_manifest(tmp_path, monkeypatch):
    counts = Counter()
    count_label_keys(monkeypatch, counts)
    run_batch(FIXTURES / "manifest.jsonl", tmp_path / "out")
    # 24 through label_key_map: each distinct spelling of the one block once
    # (cost_matrices), and once per evaluation in each of label_spellings, the
    # dataset's ground-truth keys and the detections; 6 for the categories.
    # Keying each ground-truth set on its own took 76
    assert counts["normalize_label"] == 24 + 6


def test_label_keys_on_the_batch_golden_manifests(tmp_path, monkeypatch):
    counts = Counter()
    count_label_keys(monkeypatch, counts)
    run_golden_manifests(tmp_path)
    # 329 through label_key_map, each manifest one block and one evaluation, as
    # above; 56 for the categories. Keying each ground-truth set on its own took 1,652
    assert counts["normalize_label"] == 329 + 56
