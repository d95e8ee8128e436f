"""Counted work: how often the matcher's costly steps run on a fixed input.

Counts do not move with the machine's load, so a rise here shows more work
without a clock. A change that lowers a count lowers it here; one that raises
it says why in CHANGES.md.
"""

from collections import Counter
from pathlib import Path

import locscore.matching as matching
from locscore.harness.batch import run_batch

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_matcher_work_on_the_fixture_manifest(tmp_path, monkeypatch):
    counts = Counter()

    def count(name):
        real = getattr(matching, name)

        def spy(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(matching, name, spy)

    count("linear_sum_assignment")
    count("_lexicographic_rotation")
    run_batch(FIXTURES / "manifest.jsonl", tmp_path / "out")
    # one solve per non-empty completion; the rotation ran 4 times here under
    # the trigger "a real row's lowest tight column is below its own", and
    # moved no pair in any of them
    assert (counts["linear_sum_assignment"], counts["_lexicographic_rotation"]) == (60, 0)
