#!/usr/bin/env python3
"""Write the committed scoring golden file: seeded request lines and their replies.

Each line of ``tests/data/score_golden.jsonl`` holds one request line and the
exact reply line the service writes for it (``handle_request_line`` then
``dump_line``). The requests are hand-made edge cases and groups drawn by
``scenes.py``, which calls no libm, so they are the same bytes on every
machine; the replies pin every reward, advantage and error the engine gives
for them, byte for byte. ``tests/test_score_golden.py`` replays the file.
Regenerate it only for a deliberate, documented behaviour change:

    PYTHONPATH=src python scripts/make_score_golden.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import scenes
from locscore.harness.engine import handle_request_line
from locscore.harness.wire import dump_line

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "score_golden.jsonl"
SEED = 20250611

# a plain decimal near 1e-321: valid in thousandths, zero once scaled to a 1-pixel image
SPECK = "0." + "0" * 320 + "1"


def special_requests():
    """Hand-made groups for the conversion and empty-input edge cases."""
    speck_plain = f"speck-[0,0,{SPECK},{SPECK}];cat-[0,0,500,1000]"
    speck_structured = json.dumps([
        {"bbox_2d": [0, 0, 1e-320, 1e-320], "label": "speck"},
        {"bbox_2d": [0, 0, 2e9, 4e9], "label": "cat"},
    ])
    base = {"v": 1, "progress": 0.25}
    return [
        # thousandths completions on a 1x1 pixel image: the speck collapses to zero
        {**base, "request_id": "collapse-plain", "format": "plain",
         "sample": {"image_id": "c1", "width": 1, "height": 1,
                    "gt": [{"label": "cat", "bbox": [0.0, 0.0, 0.5, 1.0]}]},
         "completions": [speck_plain, "cat-[0,0,500,1000]", f"cat-[0,0,{scenes.HUGE},5]", ""]},
        # pixel completions against thousandths ground truth on a huge image
        {**base, "request_id": "collapse-structured", "format": "structured",
         "sample": {"image_id": "c2", "width": 4000000000, "height": 4000000000,
                    "coord_space": "thousandths",
                    "gt": [{"label": "cat", "bbox": [0.0, 0.0, 0.5, 1.0]}]},
         "completions": [speck_structured, "[]", f'[{{"bbox_2d": [0, 0, {scenes.HUGE}, 5], "label": "cat"}}]']},
        # empty ground truth: abstention earns everything, any box loses recall
        {**base, "request_id": "empty-gt", "format": "structured", "matcher": "box-label",
         "sample": {"image_id": "c3", "width": 640, "height": 480, "gt": []},
         "completions": ["[]", "", '[{"bbox_2d": [1, 1, 50, 50], "label": "cat"}]', "nope"]},
        {**base, "request_id": "empty-gt-plain", "format": "plain", "progress": 0.9,
         "sample": {"image_id": "c4", "width": 640, "height": 480, "gt": []},
         "completions": ["", "  ", "cat-[1,1,50,50]", "[]"]},
        # empty completions against a populated ground truth
        {**base, "request_id": "empty-completions", "format": "structured",
         "sample": {"image_id": "c5", "width": 640, "height": 480,
                    "gt": [{"label": "Cat", "bbox": [10.0, 10.0, 100.0, 100.0]}]},
         "completions": ["", "[]", "```json\n[]\n```", '[{"bbox_2d": [10, 10, 100, 100], "label": " cAT "}]']},
        # a box at the pixel extent that rounds past 1000 thousandths: dropped, like a speck
        {**base, "request_id": "extent-rounding", "format": "structured",
         "sample": {"image_id": "c6", "width": 9007199254736064, "height": 1,
                    "coord_space": "thousandths",
                    "gt": [{"label": "cat", "bbox": [0.0, 0.0, 500.0, 1000.0]}]},
         "completions": ["[]", '[{"bbox_2d": [0, 0, 9007199254736064, 1], "label": "cat"}]']},
    ]


def requests():
    rng = random.Random(SEED)
    out = []
    # 60 drawn groups: every fourth carries log-probs, and every twelfth from the second has no ground truth
    for index in range(60):
        out.append(scenes.request(
            rng, f"g{index}", size=rng.choice((2, 4, 8, 8, 16)), g=0 if index % 12 == 1 else rng.randint(1, 12),
            logprobs=index % 4 == 0, **scenes.options(rng),
        ))
    for index in range(4):
        out.append(scenes.request(rng, f"flood{index}", size=4, g=rng.randint(20, 60), plain=index % 2 == 1,
                                  matcher=("box", "box-label")[index // 2], kind="flood"))
    for index in range(4):
        out.append(scenes.request(rng, f"tie{index}", size=8, g=rng.randint(4, 24), plain=index % 2 == 1,
                                  matcher=("box", "box-label")[index // 2], kind="tie"))
    for index in range(3):
        out.append(scenes.request(rng, f"wide{index}", size=64, g=rng.randint(1, 6), plain=index == 1,
                                  matcher="box-label" if index == 2 else "box", logprobs=index == 0))
    out.extend(special_requests())
    lines = [json.dumps(data) for data in out]
    # wire faults: each is an error reply, and the service goes on
    lines += [
        lines[0][: len(lines[0]) // 2],
        lines[1].replace('"progress": ', '"progress": 7.5, "_": ', 1),
        lines[2].replace('"matcher": "', '"matcher": "hungarian", "_": "', 1),
        json.dumps({**json.loads(lines[3]), "completions": ["[]"]}),
    ]
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT, help="file to write (default: the committed one)")
    out = parser.parse_args(argv).out
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        for line in requests():
            reply = dump_line(handle_request_line(line))
            handle.write(json.dumps({"request": line, "reply": reply}) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
