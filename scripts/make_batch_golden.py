#!/usr/bin/env python3
"""Write the committed batch golden file: seeded manifests and the files ``run_batch`` writes.

Each line of ``tests/data/batch_golden.jsonl`` holds one manifest (its exact
text) and the exact text of the ``responses.jsonl`` and ``report.json`` that
``run_batch`` writes for it. The manifests are hand-made faults among
requests drawn by ``scenes.py``, which calls no libm, so they are the same
bytes on every machine; the outputs pin every response, error entry and
report number ``run_batch`` gives for them, across blocks of 64, byte for
byte. ``tests/test_batch_golden.py`` replays the file. Regenerate it only for
a deliberate, documented behaviour change:

    PYTHONPATH=src python scripts/make_batch_golden.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import random
import tempfile
from pathlib import Path

import scenes
from locscore.harness.batch import run_batch

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


def ordinary(rng, rid, *, sizes=(1, 2, 4, 8), most=12, final=False, negative=False, logprobs=False, **overrides):
    """One drawn request of the score golden's mix, with no ground truth when ``negative``."""
    size = rng.choice(sizes)
    options = {**scenes.options(rng), **overrides}
    data = scenes.request(rng, rid, size=size, g=0 if negative else rng.randint(1, most), logprobs=logprobs, **options)
    if size < 2 or rng.random() < 0.3:
        data["advantages"] = False
    if final:
        data["final"] = True
    return data


def dealt(index, n, k):
    """Whether ``index`` is one of ``k`` among ``n`` spread evenly: a count fixed by construction."""
    return index * k % n < k


def group(rng, prefix, n, *, final, negative, logprobs=0, **options):
    """``n`` ordinary requests, exactly ``final``, ``negative`` and ``logprobs`` of which are of each kind."""
    return [ordinary(rng, f"{prefix}{i}", final=dealt(i, n, final), negative=dealt(i, n, negative),
                     logprobs=dealt(i, n, logprobs), **options) for i in range(n)]


def faults(rng, rid, negative):
    """Manifest lines that each fail on their own line, and the batch goes on."""
    base = ordinary(rng, rid, sizes=(2,), final=True, negative=negative)
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


def with_duplicate_final(requests):
    """A second ``final`` entry for the image of the last one."""
    twin = {**[data for data in requests if data.get("final")][-1], "request_id": "duplicate"}
    return requests + [twin]


def manifests():
    rng = random.Random(SEED)
    cases = []

    mixed = group(rng, "m", 40, final=19, negative=3, logprobs=9)
    # floods of 60 ground truths: the block's matrices pass rewards.BLOCK_CELLS and are built in two parts
    mixed += [scenes.request(rng, f"flood{index}", size=4, g=60, plain=index == 1,
                             matcher=("box", "box-label")[index], kind="flood") for index in range(2)]
    mixed += [scenes.request(rng, f"tie{index}", size=8, g=rng.randint(4, 24), plain=index == 1,
                             matcher=("box", "box-label")[index], kind="tie") for index in range(2)]
    mixed.append(scenes.request(rng, "wide", size=64, g=4, plain=False, matcher="box-label", logprobs=True))
    rng.shuffle(mixed)
    cases.append(("mixed", [json.dumps(data) for data in mixed]))

    advantages = group(rng, "a", 12, final=9, negative=2, logprobs=12, sizes=(2, 4, 8))
    for data in advantages:
        data["advantages"] = True
    overflow = ordinary(rng, "kl-overflow", sizes=(2,))
    overflow.update(advantages=True, logprobs=[OVERFLOW, OVERFLOW], final=True)
    single = ordinary(rng, "single", sizes=(1,))
    single.update(advantages=True, final=True)
    mismatch = ordinary(rng, "mismatch", sizes=(3,), final=True, logprobs=True)
    mismatch["logprobs"] = mismatch["logprobs"][:2]
    lines = advantages[:6] + [overflow, single, mismatch] + advantages[6:]
    cases.append(("advantages", [json.dumps(data) for data in lines]))

    samples = [ordinary(rng, f"n{index}", most=8, final=True, negative=index % 2 == 0, logprobs=index % 8 < 4,
                        gt_space="thousandths" if index % 4 < 2 else "pixels") for index in range(16)]
    for entry in samples[1]["sample"]["gt"]:
        entry["label"] = "zebra"  # a category with ground truth that no final answer names
    cases.append(("negatives-and-thousandths", [json.dumps(data) for data in samples]))

    requests = group(rng, "w", 6, final=3, negative=0, logprobs=4)
    lines = [json.dumps(data) for data in with_duplicate_final(requests)]
    lines[3:3] = faults(rng, "w-fault", negative=False)
    cases.append(("wire-faults", lines))

    for name, count, sizes, final, negative in (("three-blocks", 140, (1, 1, 2, 3), 67, 17),
                                                ("four-blocks-final", 200, (1,), 200, 18)):
        requests = group(rng, f"{name}-", count, final=final, negative=negative, sizes=sizes, most=8)
        lines = [json.dumps(data) for data in with_duplicate_final(requests)]
        bad = faults(rng, name + "-fault", negative=True)
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
