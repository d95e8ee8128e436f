"""The demo scripts run to the end, each golden-file and fixture script writes
its committed files again, byte for byte, also with glibc's maths library
without its FMA variants, and no script draws through that library."""

import ast
import importlib.util
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


def test_limits_probe_prints_one_line():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "limits_probe.py"), "--boxes", "30", "--gt", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line, = done.stdout.splitlines()
    fields = dict(item.split("=") for item in line.split())
    assert (fields["boxes"], fields["gt"]) == ("30", "4")
    assert int(fields["bytes"]) > 0 and float(fields["time_ms"]) > 0 and float(fields["peak_mib"]) > 0


def _load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", SCRIPTS / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _runs(values, failed=0):
    """Synthetic ``perfbench/run.py`` results: one per value, every end-to-end metric at that value."""
    return [
        {"correct": True, "attempted": 100, "failed": failed,
         "metrics": {m["name"]: {"value": value, "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}}
        for value in values
    ]


class TestPairs:
    """``scripts/pairs.py``'s statistics, on synthetic results: no benchmark runs here."""

    pairs = _load_pairs()
    spread = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_seed_range(self):
        assert self.pairs.seed_range("1..4") == [1, 2, 3, 4]
        assert self.pairs.seed_range("7") == [7]

    def test_quartiles(self):
        assert self.pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)

    def test_the_same_runs_read_level(self):
        summary = self.pairs.summarize(BENCHMARK, _runs(self.spread), _runs(self.spread))
        assert {m["verdict"] for m in summary["metrics"].values()} == {"level"}
        assert summary["verdict"] == "level"

    def test_a_loss_past_the_bound_reads_worse(self):
        slower = self.pairs.compare({"better": "higher", "bound": 0.25}, self.spread, [v * 0.7 for v in self.spread])
        assert (slower["verdict"], slower["wins"]) == ("worse", 0)
        # a 4% rise of a lower-is-better metric is inside a 0.05 bound, and a 6% one is not
        bound = {"better": "lower", "bound": 0.05}
        assert self.pairs.compare(bound, self.spread, [v * 1.04 for v in self.spread])["verdict"] == "level"
        assert self.pairs.compare(bound, self.spread, [v * 1.06 for v in self.spread])["verdict"] == "worse"

    def test_a_gain_needs_nine_wins_in_ten_and_more_than_the_base_spread(self):
        lower = {"better": "lower", "bound": 0.05}
        gain = self.pairs.compare(lower, self.spread, [v - 2.0 for v in self.spread])
        assert (gain["verdict"], gain["wins"], gain["pairs"]) == ("better", 10, 10)
        assert gain["relative"] == pytest.approx(-0.02)
        # the base's quartiles are 0.4 apart: a 0.3 gain in every pair is not enough
        assert self.pairs.compare(lower, self.spread, [v - 0.3 for v in self.spread])["verdict"] == "level"
        # a large gain in only eight pairs of ten is not enough either
        eight = [v - 2.0 for v in self.spread[:8]] + [v + 0.1 for v in self.spread[8:]]
        assert self.pairs.compare(lower, self.spread, eight)["verdict"] == "level"

    def test_more_failed_operations_read_worse(self):
        summary = self.pairs.summarize(BENCHMARK, _runs(self.spread), _runs(self.spread, failed=1))
        assert summary["failure_share"] == {"base": 0.0, "change": 0.01}
        assert summary["verdict"] == "worse"

    def test_table_row(self):
        summary = self.pairs.summarize(BENCHMARK, _runs([1.0, 2.0, 3.0]), _runs([2.0, 3.0, 4.0]))
        row = self.pairs.table_row("stream-dense", [1, 2, 3], summary)
        first = "2 [1.5–2.5] → 3 [2.5–3.5], +50.0%, 3/3"
        assert row.startswith(f"| stream-dense (1–3, 3) | {first} | ")
        assert row.count("|") == len(BENCHMARK["end_to_end"]) + 2
        assert self.pairs.table_header(BENCHMARK).splitlines()[0].startswith("| workload (seed, pairs) | `groups_per_s`")
