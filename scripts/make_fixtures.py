#!/usr/bin/env python3
"""Regenerate the bundled fixture set (annotations, manifest, corpus, golden).

    python scripts/make_fixtures.py [--out DIR]

Deterministic in SEED. The golden evaluation numbers are produced by the
slow reference implementation in tests/oracles.py, never by the engine
itself, so the batch path is checked against an independent computation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from locscore import Box  # noqa: E402
from locscore.parsing import emit_structured  # noqa: E402
from oracles import reference_evaluate  # noqa: E402
from locscore.metrics import IOU_THRESHOLDS  # noqa: E402

SEED = 2026
N_IMAGES = 20
WIDTH, HEIGHT = 640, 480
CATEGORIES = ["person", "car", "dog", "cat", "bicycle", "bench"]
FIXTURES = ROOT / "fixtures"

MALFORMED = [
    "I cannot find any objects in this image.",
    '[{"bbox_2d": [10, 20, 110',
    '[{"bbox_2d": [0, 0, 9000, 100], "label": "person"}]',
    '[{"bbox_2d": [300, 200, 100, 400], "label": "car"}]',
]


def int_box(rng: random.Random) -> Box:
    x1 = rng.randrange(0, WIDTH - 40)
    y1 = rng.randrange(0, HEIGHT - 40)
    x2 = rng.randrange(x1 + 20, min(x1 + 240, WIDTH) + 1)
    y2 = rng.randrange(y1 + 20, min(y1 + 200, HEIGHT) + 1)
    return Box(float(x1), float(y1), float(x2), float(y2))


def jitter(rng: random.Random, box: Box) -> Box:
    dx = rng.randrange(-15, 16)
    dy = rng.randrange(-15, 16)
    x1 = min(max(0, int(box.x1) + dx), WIDTH - 2)
    y1 = min(max(0, int(box.y1) + dy), HEIGHT - 2)
    x2 = min(WIDTH, max(x1 + 1, int(box.x2) + dx))
    y2 = min(HEIGHT, max(y1 + 1, int(box.y2) + dy))
    return Box(float(x1), float(y1), float(x2), float(y2))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=FIXTURES, help="directory to write (default: fixtures)")
    out = parser.parse_args(argv).out
    rng = random.Random(SEED)
    out.mkdir(parents=True, exist_ok=True)

    annotations = []
    manifest = []
    scenes = []
    final_predictions = {}
    for i in range(N_IMAGES):
        image_id = f"img{i:03d}"
        gts = [(rng.choice(CATEGORIES), int_box(rng)) for _ in range(rng.randrange(1, 9))]
        annotations.append(
            {
                "image_id": image_id,
                "width": WIDTH,
                "height": HEIGHT,
                "instances": [
                    {"label": label, "bbox": list(box.coords())} for label, box in gts
                ],
            }
        )

        jittered = [(label, jitter(rng, box)) for label, box in gts if rng.random() > 0.2]
        if rng.random() > 0.5:
            jittered.append((rng.choice(CATEGORIES), int_box(rng)))  # spurious box
        perfect = list(gts)
        subset = gts[: max(1, len(gts) // 2)]

        completions = [
            emit_structured(jittered),
            emit_structured(perfect),
            emit_structured(subset),
            MALFORMED[i % len(MALFORMED)],
        ]
        manifest.append(
            {
                "v": 1,
                "request_id": f"group-{image_id}",
                "sample": {
                    "image_id": image_id,
                    "width": WIDTH,
                    "height": HEIGHT,
                    "coord_space": "pixels",
                    "task": "object-detection",
                    "gt": [
                        {"label": label, "bbox": list(box.coords())} for label, box in gts
                    ],
                },
                "completions": completions,
                "progress": 0.25,
                "format": "structured",
                "final": True,
            }
        )
        scenes.append((image_id, [(label, box.coords()) for label, box in gts]))
        final_predictions[image_id] = [(label, box.coords()) for label, box in jittered]

    with open(out / "annotations.jsonl", "w", encoding="utf-8") as handle:
        for entry in annotations:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    with open(out / "manifest.jsonl", "w", encoding="utf-8") as handle:
        for entry in manifest:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")

    golden = reference_evaluate(final_predictions, scenes, IOU_THRESHOLDS)
    with open(out / "golden_eval.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "map_5095": golden["map"],
                "ap50": golden["ap50"],
                "ap75": golden["ap75"],
                "ar100": golden["ar100"],
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")

    # corpus for the curate/prompts subcommands: detection + grounding + rec
    corpus = []
    crng = random.Random(SEED + 1)
    for i in range(240):
        image_id = f"corpus{i:04d}"
        crowded = i % 2 == 0
        n = crng.randrange(11, 26) if crowded else crng.randrange(1, 9)
        cats = crng.sample(CATEGORIES, crng.randrange(1, len(CATEGORIES) + 1))
        instances = [(crng.choice(cats), int_box(crng)) for _ in range(n)]
        corpus.append(
            {
                "task": "object-detection",
                "image_id": image_id,
                "width": WIDTH,
                "height": HEIGHT,
                "coord_space": "pixels",
                "gt": [{"label": label, "bbox": list(box.coords())} for label, box in instances],
                "query": sorted({label for label, _ in instances}),
                "is_negative": False,
            }
        )
        if i % 8 == 0:
            # negative detection query: categories absent from this image
            absent = sorted(set(CATEGORIES) - {label for label, _ in instances})
            if absent:
                corpus.append(
                    {
                        "task": "object-detection",
                        "image_id": image_id,
                        "width": WIDTH,
                        "height": HEIGHT,
                        "coord_space": "pixels",
                        "gt": [],
                        "query": absent[: crng.randrange(1, len(absent) + 1)],
                        "is_negative": True,
                    }
                )
        if i % 3 == 0:
            label = instances[0][0]
            members = [(l, b) for l, b in instances if l == label]
            corpus.append(
                {
                    "task": "visual-grounding",
                    "image_id": image_id,
                    "width": WIDTH,
                    "height": HEIGHT,
                    "coord_space": "pixels",
                    "gt": [
                        {"label": label, "bbox": list(box.coords())} for label, box in members
                    ],
                    "query": label,
                    "is_negative": False,
                }
            )
        if i % 4 == 0:
            label, box = instances[0]
            if i % 8 == 0:
                # multi-object referring expression (hard case)
                members = [(label, int_box(crng)) for _ in range(crng.randrange(11, 16))]
                corpus.append(
                    {
                        "task": "rec",
                        "image_id": image_id,
                        "width": WIDTH,
                        "height": HEIGHT,
                        "coord_space": "pixels",
                        "gt": [
                            {"label": l, "bbox": list(b.coords())} for l, b in members
                        ],
                        "query": f"every {label} in the scene",
                        "is_negative": False,
                    }
                )
            else:
                corpus.append(
                    {
                        "task": "rec",
                        "image_id": image_id,
                        "width": WIDTH,
                        "height": HEIGHT,
                        "coord_space": "pixels",
                        "gt": [{"label": label, "bbox": list(box.coords())}],
                        "query": f"the {label} near the left edge" if box.x1 < 320 else f"the {label} on the right",
                        "is_negative": False,
                    }
                )
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as handle:
        for entry in corpus:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")

    print(f"wrote {N_IMAGES} images, {len(manifest)} groups, {len(corpus)} corpus samples")
    print(f"golden eval: {json.dumps(golden['map'])} mAP")


if __name__ == "__main__":
    main()
