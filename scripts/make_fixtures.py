#!/usr/bin/env python3
"""Regenerate the bundled fixture set (annotations, manifest, corpus, golden).

    python scripts/make_fixtures.py [--out DIR]

Deterministic in SEED: boxes come from ``scenes.py``, which calls no libm.
The golden evaluation numbers are produced by the
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
from scenes import int_box, shift  # noqa: E402
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


def gt_entries(pairs):
    """(label, box) pairs as ground-truth entries of a data file."""
    return [{"label": label, "bbox": list(box)} for label, box in pairs]


def corpus_entry(task, image_id, pairs, query):
    """A curation corpus line: a query and its ground truth; negative when that is empty."""
    return {"task": task, "image_id": image_id, "width": WIDTH, "height": HEIGHT, "coord_space": "pixels",
            "gt": gt_entries(pairs), "query": query, "is_negative": not pairs}


def write_lines(path, entries):
    """One JSON line per entry, keys sorted."""
    with open(path, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")


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
        gts = [(rng.choice(CATEGORIES), int_box(rng, WIDTH, HEIGHT)) for _ in range(rng.randrange(1, 9))]
        annotations.append({"image_id": image_id, "width": WIDTH, "height": HEIGHT, "instances": gt_entries(gts)})

        jittered = [(label, shift(rng, box, WIDTH, HEIGHT)) for label, box in gts if rng.random() > 0.2]
        if rng.random() > 0.5:
            jittered.append((rng.choice(CATEGORIES), int_box(rng, WIDTH, HEIGHT)))  # spurious box
        subset = gts[: max(1, len(gts) // 2)]

        completions = [
            emit_structured([(label, Box(*box)) for label, box in objects]) for objects in (jittered, gts, subset)
        ] + [MALFORMED[i % len(MALFORMED)]]
        sample = {"image_id": image_id, "width": WIDTH, "height": HEIGHT, "coord_space": "pixels",
                  "task": "object-detection", "gt": gt_entries(gts)}
        manifest.append({"v": 1, "request_id": f"group-{image_id}", "sample": sample, "completions": completions,
                         "progress": 0.25, "format": "structured", "final": True})
        scenes.append((image_id, gts))
        final_predictions[image_id] = jittered

    write_lines(out / "annotations.jsonl", annotations)
    write_lines(out / "manifest.jsonl", manifest)

    golden = reference_evaluate(final_predictions, scenes, IOU_THRESHOLDS)
    with open(out / "golden_eval.json", "w", encoding="utf-8") as handle:
        json.dump({"map_5095": golden["map"], "ap50": golden["ap50"], "ap75": golden["ap75"], "ar100": golden["ar100"]},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")

    # corpus for the curate/prompts subcommands: detection + grounding + rec
    corpus = []
    crng = random.Random(SEED + 1)
    for i in range(240):
        image_id = f"corpus{i:04d}"
        crowded = i % 2 == 0
        n = crng.randrange(11, 26) if crowded else crng.randrange(1, 9)
        cats = crng.sample(CATEGORIES, crng.randrange(1, len(CATEGORIES) + 1))
        instances = [(crng.choice(cats), int_box(crng, WIDTH, HEIGHT)) for _ in range(n)]
        corpus.append(corpus_entry("object-detection", image_id, instances, sorted({label for label, _ in instances})))
        if i % 8 == 0:
            # negative detection query: categories absent from this image
            absent = sorted(set(CATEGORIES) - {label for label, _ in instances})
            if absent:
                query = absent[: crng.randrange(1, len(absent) + 1)]
                corpus.append(corpus_entry("object-detection", image_id, [], query))
        if i % 3 == 0:
            label = instances[0][0]
            members = [(l, b) for l, b in instances if l == label]
            corpus.append(corpus_entry("visual-grounding", image_id, members, label))
        if i % 4 == 0:
            label, box = instances[0]
            if i % 8 == 0:
                # multi-object referring expression (hard case)
                members = [(label, int_box(crng, WIDTH, HEIGHT)) for _ in range(crng.randrange(11, 16))]
                corpus.append(corpus_entry("rec", image_id, members, f"every {label} in the scene"))
            else:
                query = f"the {label} near the left edge" if box[0] < 320 else f"the {label} on the right"
                corpus.append(corpus_entry("rec", image_id, [(label, box)], query))
    write_lines(out / "corpus.jsonl", corpus)

    print(f"wrote {N_IMAGES} images, {len(manifest)} groups, {len(corpus)} corpus samples")
    print(f"golden eval: {json.dumps(golden['map'])} mAP")


if __name__ == "__main__":
    main()
