#!/usr/bin/env python3
"""Write the committed batch golden file: seeded manifests and the files ``run_batch`` writes.

Each line of ``tests/data/batch_golden.jsonl`` holds one manifest (its exact
text) and the exact text of the ``responses.jsonl`` and ``report.json`` that
``run_batch`` writes for it. The outputs were recorded while ``run_batch``
still scored one manifest line at a time, so the file pins every response,
error entry and report number byte for byte; ``tests/test_batch_golden.py``
replays it. Regenerate it only for a deliberate, documented behaviour change:

    PYTHONPATH=src python scripts/make_batch_golden.py [--out PATH]

The requests come from ``make_score_golden.py``'s seeded generator.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import make_score_golden as score  # noqa: E402  (the seeded request generator)

from locscore.harness.batch import run_batch  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "batch_golden.jsonl"
SEED = 20261019

# a KL estimate of exp(1e300): the objective overflows, a scoring error
OVERFLOW = {"policy": [-1e300, -0.5], "old": [-1e300, -0.5], "ref": [0.0, -0.5]}


def outcome(manifest: str) -> dict[str, str]:
    """The exact text of the two files ``run_batch`` writes for ``manifest``."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "manifest.jsonl", Path(tmp) / "out"
        path.write_bytes(manifest.encode("utf-8"))
        run_batch(path, out)
        return {
            "responses": (out / "responses.jsonl").read_bytes().decode("utf-8"),
            "report": (out / "report.json").read_bytes().decode("utf-8"),
        }


def ordinary(rng, rid, **overrides):
    """One seeded request of the score golden's mix; ``final`` on about half."""
    options = dict(
        size=rng.choice((1, 2, 4, 8)), g=rng.randint(0, 12), plain=rng.random() < 0.35,
        matcher=rng.choice(("box", "box-label")),
        gt_space=rng.choice(("pixels", "pixels", "thousandths")),
        progress=rng.choice((None, 0.0, 0.5, 0.75, 1.0)),
        phase=rng.choice((None, {"step_fraction": 0.3}, {"step_fraction": 1.0},
                          {"beginner": [0.3, 0.4, 0.8], "advanced": [0.6, 0.7, 0.95]})),
        logprobs=rng.random() < 0.3,
    )
    options.update(overrides)
    data = score.request(rng, rid, **options)
    if options["size"] < 2 or rng.random() < 0.3:
        data["advantages"] = False
    if rng.random() < 0.5:
        data["final"] = True
    return data


def faults(rng, rid):
    """Manifest lines that each fail on their own line, and the batch goes on."""
    base = ordinary(rng, rid, size=2)
    sample = base["sample"]
    return [
        '{"v": 1, "request_id": ',  # bad JSON
        "[" * 5000,  # deep nesting
        '{"v": 1, "request_id": "long", "progress": ' + "9" * 5000 + "}",  # over-long number
        json.dumps({**base, "request_id": rid + "-progress", "progress": "0.5"}),
        json.dumps({**base, "request_id": rid + "-completions", "completions": "[]"}),
        json.dumps({**base, "request_id": rid + "-task", "sample": {**sample, "task": "segmentation"}}),
        json.dumps({**base, "request_id": rid + "-final", "final": "yes"}),
        json.dumps({**base, "request_id": rid + "-one", "completions": base["completions"][:1],
                    "advantages": True, "logprobs": None}),
        json.dumps({**base, "request_id": rid + "-count", "completions": base["completions"][:1],
                    "logprobs": [OVERFLOW, OVERFLOW]}),
        json.dumps({**base, "request_id": rid + "-kl", "advantages": True, "logprobs": [OVERFLOW, OVERFLOW]}),
        json.dumps([base]),
    ]


def manifest(lines, rng, blanks=True):
    """Manifest text: the lines in order, with blank and whitespace-only lines among them."""
    out = []
    for line in lines:
        if blanks and rng.random() < 0.05:
            out.append(rng.choice(("", "   ", "\t")))
        out.append(line)
    return "\n".join(out) + "\n"


def with_duplicate_final(rng, requests):
    """A second ``final`` entry for an image that already has one."""
    finals = [data for data in requests if data.get("final")]
    twin = {**rng.choice(finals), "request_id": "duplicate"}
    return requests + [twin]


def manifests():
    rng = random.Random(SEED)
    cases = []

    mixed = [ordinary(rng, f"m{index}") for index in range(40)]
    mixed += [score.request(rng, f"flood{index}", size=4, g=rng.randint(20, 60), plain=index == 1,
                            matcher=("box", "box-label")[index], kind="flood") for index in range(2)]
    mixed += [score.request(rng, f"tie{index}", size=8, g=rng.randint(4, 24), plain=index == 1,
                            matcher=("box", "box-label")[index], kind="tie") for index in range(2)]
    mixed.append(score.request(rng, "wide", size=64, g=4, plain=False, matcher="box-label", logprobs=True))
    rng.shuffle(mixed)
    cases.append(("mixed", [json.dumps(data) for data in mixed]))

    advantages = [ordinary(rng, f"a{index}", size=rng.choice((2, 4, 8)), logprobs=True) for index in range(12)]
    for data in advantages:
        data["advantages"] = True
    overflow = ordinary(rng, "kl-overflow", size=2, logprobs=False)
    overflow.update(advantages=True, logprobs=[OVERFLOW, OVERFLOW], final=True)
    single = ordinary(rng, "single", size=1, logprobs=False)
    single.update(advantages=True, final=True)
    mismatch = ordinary(rng, "mismatch", size=3, logprobs=True)
    mismatch["logprobs"] = mismatch["logprobs"][:2]
    lines = advantages[:6] + [overflow, single, mismatch] + advantages[6:]
    cases.append(("advantages", [json.dumps(data) for data in lines]))

    samples = []
    for index in range(16):
        data = ordinary(rng, f"n{index}", g=0 if index % 2 == 0 else rng.randint(1, 8),
                        gt_space="thousandths" if index % 4 < 2 else "pixels")
        data["final"] = True
        samples.append(data)
    cases.append(("negatives-and-thousandths", [json.dumps(data) for data in samples]))

    lines = [json.dumps(data) for data in with_duplicate_final(rng, [ordinary(rng, f"w{i}") for i in range(6)])]
    lines[3:3] = faults(rng, "w-fault")
    cases.append(("wire-faults", lines))

    for name, count, sizes in (("three-blocks", 140, (1, 1, 2, 3)), ("four-blocks-final", 200, (1,))):
        requests = [ordinary(rng, f"{name}-{index}", size=rng.choice(sizes), g=rng.randint(0, 8),
                             logprobs=False) for index in range(count)]
        if name.endswith("final"):
            for data in requests:
                data["final"] = True
        lines = [json.dumps(data) for data in with_duplicate_final(rng, requests)]
        bad = faults(rng, name + "-fault")
        for position in sorted(rng.sample(range(len(lines)), len(bad)), reverse=True):
            lines.insert(position, bad.pop())
        cases.append((name, lines))

    return [(name, manifest(lines, rng)) for name, lines in cases]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT, help="file to write (default: the committed one)")
    out = parser.parse_args(argv).out
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        for name, text in manifests():
            handle.write(json.dumps({"name": name, "manifest": text, **outcome(text)}) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
