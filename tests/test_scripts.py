"""The demo scripts run to the end, and each golden-file and fixture script
writes its committed files again, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["threshold_sweep.py", "reward_shaping_demo.py"])
def test_demo_script_runs(name):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


GOLDEN = {
    "make_score_golden.py": "score_golden.jsonl",
    "make_eval_golden.py": "eval_golden.jsonl",
    "make_parser_golden.py": "parser_golden.jsonl",
    "make_batch_golden.py": "batch_golden.jsonl",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_script_reproduces_committed_file(name, tmp_path):
    out = tmp_path / GOLDEN[name]
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == (SCRIPTS.parent / "tests" / "data" / GOLDEN[name]).read_bytes()


def test_fixture_script_reproduces_committed_fixtures(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "make_fixtures.py"), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    fixtures = SCRIPTS.parent / "fixtures"
    names = ["annotations.jsonl", "corpus.jsonl", "golden_eval.json", "manifest.jsonl"]
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (fixtures / name).read_bytes(), name
