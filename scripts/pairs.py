#!/usr/bin/env python3
"""Paired benchmark runs of two revisions, recorded as ``BENCH_<sha>_<workload>.json``.

    python3 scripts/pairs.py --base HEAD~1 --workload stream-dense --seeds 1..10 --seconds 28

Before each run, the committed files of that run's revision are unpacked
with ``git archive`` into one scratch directory, the same path for both
sides, and the revision's own, unchanged ``perfbench/run.py`` runs there:
once per seed and side, alternating which side runs first. Every run starts
with no ``__pycache__`` and runs with ``PYTHONDONTWRITEBYTECODE=1``, so it
compiles ``src/`` afresh and ``setup_s`` and ``peak_rss_mb`` compare like
with like.

The record holds both revisions, the settings, every run's JSON line, and
for each end-to-end metric of ``BENCHMARK.json`` the medians, quartiles,
wins and a verdict: ``worse`` when the change's median is worse than the
base's by more than the metric's bound, ``better`` when the change wins at
least nine pairs in ten and its median beats the base's by more than the
base's interquartile range, and ``level`` otherwise. A higher share of
failed operations is ``worse`` too. The script prints the table row that
CHANGES.md quotes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    """``"1..10"`` -> ``[1, ..., 10]``; a single number is one seed."""
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(metric: dict, base: list[float], change: list[float]) -> dict:
    """Medians, quartiles, wins and verdict of ``change`` against ``base``, run pair by run pair.

    ``metric`` is an ``end_to_end`` entry of ``BENCHMARK.json``: its
    ``better`` (``"higher"`` or ``"lower"``) and ``bound`` (largest allowed
    relative loss of the median).
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    gain = sign * (c_med - b_med)
    relative = (c_med - b_med) / b_med if b_med else 0.0
    if -gain > metric["bound"] * abs(b_med):
        verdict = "worse"
    elif wins * 10 >= 9 * len(base) and gain > b3 - b1:
        verdict = "better"
    else:
        verdict = "level"
    return {
        "base": {"median": b_med, "q1": b1, "q3": b3},
        "change": {"median": c_med, "q1": c1, "q3": c3},
        "relative": relative,
        "wins": wins,
        "pairs": len(base),
        "verdict": verdict,
    }


def failure_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def summarize(benchmark: dict, base_runs: list[dict], change_runs: list[dict]) -> dict:
    """Each end-to-end metric compared, and the failure shares, of paired runs (JSON lines of ``perfbench/run.py``)."""
    metrics = {
        metric["name"]: compare(
            metric,
            [run["metrics"][metric["name"]]["value"] for run in base_runs],
            [run["metrics"][metric["name"]]["value"] for run in change_runs],
        )
        for metric in benchmark["end_to_end"]
    }
    failures = {"base": failure_share(base_runs), "change": failure_share(change_runs)}
    correct = all(run["correct"] for run in base_runs + change_runs)
    worse = failures["change"] > failures["base"] or not correct
    verdict = "worse" if worse or any(m["verdict"] == "worse" for m in metrics.values()) else "level"
    if verdict == "level" and any(m["verdict"] == "better" for m in metrics.values()):
        verdict = "better"
    return {"metrics": metrics, "failure_share": failures, "correct": correct, "verdict": verdict}


def _number(value: float) -> str:
    return f"{value:.4g}"


def table_row(workload: str, seeds: list[int], summary: dict) -> str:
    """The CHANGES.md row: per metric, ``base [q1–q3] → change [q1–q3], ±x.x%, wins/pairs``."""
    cells = []
    for result in summary["metrics"].values():
        b, c = result["base"], result["change"]
        cells.append(
            f"{_number(b['median'])} [{_number(b['q1'])}–{_number(b['q3'])}] → "
            f"{_number(c['median'])} [{_number(c['q1'])}–{_number(c['q3'])}], "
            f"{result['relative'] * 100:+.1f}%, {result['wins']}/{result['pairs']}"
        )
    label = f"{seeds[0]}–{seeds[-1]}" if len(seeds) > 1 else str(seeds[0])
    return f"| {workload} ({label}, {len(seeds)}) | " + " | ".join(cells) + " |"


def table_header(benchmark: dict) -> str:
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    return "\n".join([
        "| workload (seed, pairs) | " + " | ".join(f"`{name}`" for name in names) + " |",
        "| --- | " + " | ".join("---" for _ in names) + " |",
    ])


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def unpack(sha: str, target: Path) -> None:
    """The committed files of ``sha``, and nothing else, in the new directory ``target``."""
    target.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(target, filter="data")
    if archive.wait():
        raise SystemExit(f"git archive {sha} failed")


def run_once(sha: str, checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run of ``sha``, unpacked afresh at ``checkout``; its JSON line."""
    shutil.rmtree(checkout, ignore_errors=True)
    unpack(sha, checkout)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench/run.py gave no result in {checkout} (exit {done.returncode}):\n{done.stderr}")
    return {"seed": seed, **json.loads(lines[-1])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--change", default="HEAD", help="revision under test (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1..10"), help="S..T, one pair per seed")
    parser.add_argument("--seconds", type=float, default=28.0, help="measured phase of each run")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the BENCH_*.json record")
    parser.add_argument("--scratch", type=Path, help="where the checkouts go (a new temporary directory by default)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
            for side, rev in (("base", args.base), ("change", args.change))}
    scratch = Path(tempfile.mkdtemp(prefix="pairs-", dir=args.scratch))
    try:
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for index, seed in enumerate(args.seeds):
            for side in ("base", "change") if index % 2 == 0 else ("change", "base"):
                runs[side].append(run_once(shas[side], scratch / "checkout", args.workload, seed, args.seconds))
                values = {name: round(item["value"], 4) for name, item in runs[side][-1]["metrics"].items()}
                print(f"# seed {seed} {side}: {json.dumps(values)}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = summarize(benchmark, runs["base"], runs["change"])
    record = {
        "workload": args.workload,
        "base": shas["base"],
        "change": shas["change"],
        "settings": {"seeds": args.seeds, "seconds": args.seconds, "python": sys.version.split()[0],
                     "order": "alternating, base first on even pairs", "bytecode": "none, PYTHONDONTWRITEBYTECODE=1"},
        **summary,
        "runs": runs,
    }
    out = args.out / f"BENCH_{shas['change'][:12]}_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(table_header(benchmark))
    print(table_row(args.workload, args.seeds, summary))
    print(f"verdict: {summary['verdict']}; written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
