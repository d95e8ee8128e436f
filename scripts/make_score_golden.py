#!/usr/bin/env python3
"""Write the committed scoring golden file: seeded request lines and their replies.

Each line of ``tests/data/score_golden.jsonl`` holds one request line and the
exact reply line the service writes for it (``handle_request_line`` then
``dump_line``). The replies were recorded from the engine before its group
scoring kernel was rewritten, so the file pins every reward, advantage and
error byte for byte; ``tests/test_score_golden.py`` replays it. Regenerate
it only for a deliberate, documented behaviour change:

    PYTHONPATH=src python scripts/make_score_golden.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from locscore.harness.engine import handle_request_line
from locscore.harness.wire import dump_line

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "score_golden.jsonl"
SEED = 20250611

LABELS = ("person", "car", "dog", "cat", "traffic light", "bench", "bird")
# a 400-digit literal: a JSON integer beyond float64, a plain coordinate that reads as inf
HUGE = "9" * 400
# a plain decimal near 1e-321: valid in thousandths, zero once scaled to a 1-pixel image
SPECK = "0." + "0" * 320 + "1"


def rand_box(rng, w, h, lo=0.03, hi=0.4):
    bw = max(2, int(w * rng.uniform(lo, hi)))
    bh = max(2, int(h * rng.uniform(lo, hi)))
    x1 = rng.randint(0, w - bw)
    y1 = rng.randint(0, h - bh)
    return [x1, y1, x1 + bw, y1 + bh]


def jitter(rng, box, w, h):
    x1, y1, x2, y2 = box
    s = rng.uniform(0.0, 0.2)
    sx, sy = s * (x2 - x1), s * (y2 - y1)
    nx1 = min(max(round(x1 + rng.gauss(0, sx)), 0), w - 1)
    ny1 = min(max(round(y1 + rng.gauss(0, sy)), 0), h - 1)
    nx2 = min(max(round(x2 + rng.gauss(0, sx)), nx1 + 1), w)
    ny2 = min(max(round(y2 + rng.gauss(0, sy)), ny1 + 1), h)
    return [nx1, ny1, nx2, ny2]


def relabel(rng, label):
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(LABELS)
    if roll < 0.25:
        return label.upper() if rng.random() < 0.5 else " " + label.replace(" ", "  ") + "\t"
    return label


def thousandths(box, w, h):
    x1, y1, x2, y2 = box
    t = [round(x1 * 1000 / w), round(y1 * 1000 / h), round(x2 * 1000 / w), round(y2 * 1000 / h)]
    t[2] = min(max(t[2], t[0] + 1), 1000)
    t[3] = min(max(t[3], t[1] + 1), 1000)
    t[0] = min(t[0], t[2] - 1)
    t[1] = min(t[1], t[3] - 1)
    return t


def render(objects, plain, rng):
    if plain:
        return ";".join(f"{label}-[{','.join(map(str, box))}]" for label, box in objects)
    text = json.dumps([{"bbox_2d": box, "label": label} for label, box in objects])
    return "```json\n" + text + "\n```" if rng.random() < 0.2 else text


def faulty(rng, objects, w, h, plain):
    """One malformed completion: a bad box among good ones, or a broken text."""
    kind = rng.choice(("over-extent", "at-extent", "inverted", "negative", "degenerate",
                       "huge", "truncated", "prose", "empty", "bad-entry"))
    objects = [list(o) for o in objects] or [["cat", thousandths([1, 1, 9, 9], w, h) if plain else [1, 1, 9, 9]]]
    ex, ey = (1000, 1000) if plain else (w, h)
    index = rng.randrange(len(objects))
    x1, y1, x2, y2 = objects[index][1]
    if kind == "over-extent":
        objects[index][1] = [x1, y1, ex + rng.randint(1, 50), y2]
    elif kind == "at-extent":
        objects[index][1] = [0, 0, ex, ey]
    elif kind == "inverted":
        objects[index][1] = [x2, y1, x1, y2]
    elif kind == "negative":
        if plain:
            return render(objects, plain, rng).replace(f"[{x1},", f"[-{x1 + 1},", 1)
        objects[index][1] = [-1, y1, x2, y2]
    elif kind == "degenerate":
        objects[index][1] = [x1, y1, x1, y2]
    elif kind == "huge":
        text = render(objects, plain, rng)
        return text.replace(f"{x2}", HUGE, 1)
    elif kind == "truncated":
        text = render(objects, plain, rng)
        return text[: rng.randint(1, max(1, len(text) - 2))]
    elif kind == "prose":
        return "I see a cat and a dog."
    elif kind == "empty":
        return ""
    elif kind == "bad-entry" and not plain:
        entries = [{"bbox_2d": box, "label": label} for label, box in objects]
        entries.insert(index, {"bbox_2d": [1, 2, 3], "label": "cat"})
        entries.insert(0, {"bbox_2d": [1, 2, 3, 4], "label": "  "})
        return json.dumps(entries)
    return render(objects, plain, rng)


def request(rng, rid, *, size, g, plain, matcher, kind="ordinary", w=None, h=None,
            gt_space="pixels", progress=None, phase=None, logprobs=False):
    w = w or rng.choice((320, 640, 800, 1280))
    h = h or rng.choice((240, 480, 600, 960))
    if kind == "tie":
        box, label = rand_box(rng, w, h, 0.05, 0.15), rng.choice(LABELS)
        gt = [(label, box)] * g
    else:
        gt = [(rng.choice(LABELS), rand_box(rng, w, h)) for _ in range(g)]
    completions = []
    for k in range(size):
        if kind == "tie":
            objects = [(label, box)] * rng.randint(max(1, g // 2), g + g // 2 + 1)
        else:
            hits = [(relabel(rng, lab), jitter(rng, b, w, h)) for lab, b in gt if rng.random() < 0.8]
            extra = 100 + rng.randint(0, 50) if kind == "flood" and k == 0 else rng.randint(0, max(1, g // 2))
            for _ in range(extra):
                hits.insert(rng.randint(0, len(hits)), (rng.choice(LABELS), rand_box(rng, w, h)))
            objects = hits
        if plain:
            objects = [(lab, thousandths(b, w, h)) for lab, b in objects]
        if rng.random() < 0.15:
            completions.append(faulty(rng, objects, w, h, plain))
        else:
            completions.append(render(objects, plain, rng))
    gt_boxes = [(lab, thousandths(b, w, h) if gt_space == "thousandths" else b) for lab, b in gt]
    data = {
        "v": 1,
        "request_id": rid,
        "sample": {
            "image_id": "img-" + rid,
            "width": w,
            "height": h,
            "coord_space": gt_space,
            "gt": [{"label": lab, "bbox": [float(v) for v in b]} for lab, b in gt_boxes],
        },
        "completions": completions,
        "progress": rng.random() if progress is None else progress,
        "format": "plain" if plain else "structured",
        "matcher": matcher,
    }
    if phase is not None:
        data["phase"] = phase
    if logprobs:
        data["logprobs"] = []
        for _ in range(size):
            n = rng.randint(1, 6)
            policy = [-rng.expovariate(2.0) for _ in range(n)]
            data["logprobs"].append({
                "policy": policy,
                "old": [min(0.0, p + rng.gauss(0, 0.05)) for p in policy],
                "ref": [min(0.0, p + rng.gauss(0, 0.1)) for p in policy],
            })
    return data


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
         "completions": [speck_plain, "cat-[0,0,500,1000]", f"cat-[0,0,{HUGE},5]", ""]},
        # pixel completions against thousandths ground truth on a huge image
        {**base, "request_id": "collapse-structured", "format": "structured",
         "sample": {"image_id": "c2", "width": 4000000000, "height": 4000000000,
                    "coord_space": "thousandths",
                    "gt": [{"label": "cat", "bbox": [0.0, 0.0, 0.5, 1.0]}]},
         "completions": [speck_structured, "[]", f'[{{"bbox_2d": [0, 0, {HUGE}, 5], "label": "cat"}}]']},
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
    for index in range(60):
        out.append(request(
            rng, f"g{index}", size=rng.choice((2, 4, 8, 8, 16)), g=rng.randint(0, 12),
            plain=rng.random() < 0.35, matcher=rng.choice(("box", "box-label")),
            gt_space=rng.choice(("pixels", "pixels", "thousandths")),
            progress=rng.choice((None, 0.0, 0.5, 0.75, 1.0)),
            phase=rng.choice((None, {"step_fraction": 0.3}, {"step_fraction": 1.0},
                              {"beginner": [0.3, 0.4, 0.8], "advanced": [0.6, 0.7, 0.95]})),
            logprobs=rng.random() < 0.3,
        ))
    for index in range(4):
        out.append(request(rng, f"flood{index}", size=4, g=rng.randint(20, 60), plain=index % 2 == 1,
                           matcher=("box", "box-label")[index // 2], kind="flood"))
    for index in range(4):
        out.append(request(rng, f"tie{index}", size=8, g=rng.randint(4, 24), plain=index % 2 == 1,
                           matcher=("box", "box-label")[index // 2], kind="tie"))
    for index in range(3):
        out.append(request(rng, f"wide{index}", size=64, g=rng.randint(1, 6), plain=index == 1,
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
