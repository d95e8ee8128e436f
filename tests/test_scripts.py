"""The demo scripts run to the end, each golden-file and fixture script writes
its committed files again, byte for byte, also with glibc's maths library
without its FMA variants, and no script draws through that library."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DATA = SCRIPTS.parent / "tests" / "data"
FIXTURES = SCRIPTS.parent / "fixtures"


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
FIXTURE_FILES = ["annotations.jsonl", "corpus.jsonl", "golden_eval.json", "manifest.jsonl"]


def _write(name, out, env=os.environ):
    """Run script ``name`` with ``--out out`` in ``env``, the package on the path."""
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), "--out", str(out)],
        capture_output=True, text=True, timeout=120, env={**env, "PYTHONPATH": str(SCRIPTS.parent / "src")},
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_script_reproduces_committed_file(name, tmp_path):
    out = tmp_path / GOLDEN[name]
    _write(name, out)
    assert out.read_bytes() == (DATA / GOLDEN[name]).read_bytes()


def test_fixture_script_reproduces_committed_fixtures(tmp_path):
    _write("make_fixtures.py", tmp_path)
    assert sorted(path.name for path in tmp_path.iterdir()) == FIXTURE_FILES
    for name in FIXTURE_FILES:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


# glibc's libm without its FMA code paths: exp and log then differ in the last bit on some inputs
WITHOUT_FMA = "glibc.cpu.hwcaps=-AVX2_Usable,-FMA_Usable,-FMA4_Usable,-AVX2,-FMA"
LOG_PROBE = "import math, random; print([math.log(1 - random.Random(i).random()).hex() for i in range(20000)])"
# The batch golden's "wide" request has a sequence log-ratio of 0.05672987426475995,
# whose math.exp in grpo.grpo_objective_detailed is 1.0583698788368257 here and
# 1.0583698788368259 without FMA, so its objective is not the same bytes: for
# that script only the recorded inputs are compared.
INPUTS_ONLY = {"make_batch_golden.py": ("name", "manifest")}


@pytest.fixture(scope="module")
def without_fma():
    """The environment without glibc's FMA variants; a skip where that changes no ``math.log`` here."""
    env = {**os.environ, "GLIBC_TUNABLES": WITHOUT_FMA}
    logs = [
        subprocess.run([sys.executable, "-c", LOG_PROBE], capture_output=True, text=True, timeout=120, env=e).stdout
        for e in (os.environ, env)
    ]
    if logs[0] == logs[1]:
        pytest.skip("GLIBC_TUNABLES without FMA changes no math.log result on this machine")
    return env


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_script_reproduces_committed_file_without_fma(name, without_fma, tmp_path):
    out = tmp_path / GOLDEN[name]
    _write(name, out, without_fma)
    if name in INPUTS_ONLY:
        def inputs(path):
            return [[json.loads(line)[key] for key in INPUTS_ONLY[name]] for line in path.read_text().splitlines()]
        assert inputs(out) == inputs(DATA / GOLDEN[name])
    else:
        assert out.read_bytes() == (DATA / GOLDEN[name]).read_bytes()


def test_fixture_script_reproduces_committed_fixtures_without_fma(without_fma, tmp_path):
    _write("make_fixtures.py", tmp_path, without_fma)
    for name in FIXTURE_FILES:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


# the methods of random.Random whose draws go through the C maths library (log, exp, cos, ...)
LIBM_DRAWS = {"gauss", "normalvariate", "lognormvariate", "expovariate", "vonmisesvariate",
              "gammavariate", "betavariate", "paretovariate", "weibullvariate"}


def _libm_draws(source):
    """Line and name of each call in ``source`` to a ``LIBM_DRAWS`` method, as an attribute or a bare name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if name in LIBM_DRAWS:
                found.append((node.lineno, name))
    return found


def test_no_script_draws_through_libm():
    """The scripts' bytes do not depend on the machine's libm: no script calls a ``LIBM_DRAWS`` method."""
    probe = "rng.gauss(0, 1)\nrandom.expovariate(2.0)\nbetavariate(1, 2)\nrng.uniform(0, 1)\nrng.gauss\n"
    assert _libm_draws(probe) == [(1, "gauss"), (2, "expovariate"), (3, "betavariate")]
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SCRIPTS.glob("*.py"))
        for line, name in _libm_draws(path.read_text())
    ]
    assert found == []
