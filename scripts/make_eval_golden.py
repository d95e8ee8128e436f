#!/usr/bin/env python3
"""Write the committed evaluation golden file: seeded datasets, predictions and metrics.

Each line of ``tests/data/eval_golden.jsonl`` holds one dataset (its category
list and images, each with a coordinate space and ground truth), the
predictions given to ``metrics.evaluate``, and either the exact text of
``dump_line(eval_to_dict(result))`` or the exact error ``evaluate`` raised.
The datasets are hand-made edge cases, exact IoU ties and batch-like scenes
drawn by ``scenes.py``, which calls no libm, so they are the same bytes on
every machine; the results pin every metric ``evaluate`` gives for them, bit
for bit. ``tests/test_eval_golden.py`` replays the file. Regenerate it only
for a deliberate, documented behaviour change:

    PYTHONPATH=src python scripts/make_eval_golden.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # scenes, also when a test loads this file

import scenes  # noqa: E402
from locscore.errors import InvalidBoxError  # noqa: E402
from locscore.geometry import Box, CoordinateSpace, SpaceKind  # noqa: E402
from locscore.harness.wire import dump_line, eval_to_dict  # noqa: E402
from locscore.matching import GroundTruthSet  # noqa: E402
from locscore.metrics import EvalDataset, EvalImage, evaluate  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "eval_golden.jsonl"
SEED = 20251018


def load_case(case):
    """(predictions, dataset) of one golden line, boxes built from the numbers as written."""
    images = []
    for image in case["images"]:
        space = CoordinateSpace(SpaceKind(image["coord_space"]), image["width"], image["height"])
        gt = GroundTruthSet.from_pairs([(label, Box(*box)) for label, box in image["gt"]], space)
        images.append(EvalImage(image["image_id"], gt))
    dataset = EvalDataset(tuple(images), tuple(case["categories"]))
    predictions = {
        image_id: [(label, Box(*box)) for label, box in detections]
        for image_id, detections in case["predictions"].items()
    }
    return predictions, dataset


def outcome(case):
    """The recorded result text, or the error ``evaluate`` raises, of one golden line."""
    predictions, dataset = load_case(case)
    try:
        return {"result": dump_line(eval_to_dict(evaluate(predictions, dataset)))}
    except InvalidBoxError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def image(image_id, gt, kind="pixels", width=640, height=480):
    return {"image_id": image_id, "coord_space": kind, "width": width, "height": height, "gt": gt}


def case(name, categories, images, predictions):
    return {"name": name, "categories": categories, "images": images, "predictions": predictions}


def random_case(rng, name, n_images, n_categories):
    """A batch-like dataset: mixed spaces, jittered hits, relabels, duplicates and misses."""
    categories = list(scenes.LABELS[:n_categories])
    images, predictions = [], {}
    for index in range(n_images):
        image_id = f"{name}-{index}"
        thousandths = rng.random() < 0.3
        w, h = rng.choice((320, 640, 800)), rng.choice((240, 480, 600))
        ew, eh = (1000, 1000) if thousandths else (w, h)
        gt = [[scenes.spelling(rng, rng.choice(categories)), scenes.rand_box(rng, ew, eh)]
              for _ in range(rng.randint(0, 12))]
        images.append(image(image_id, gt, "thousandths" if thousandths else "pixels", w, h))
        if rng.random() < 0.1:
            continue  # an image without predictions
        detections = []
        for label, box in gt:
            roll = rng.random()
            if roll < 0.2:
                continue
            label = scenes.relabel(rng, label, categories, 0.1)
            # a jittered box: whole numbers half the time, else floats
            detections.append([label, box if roll < 0.4 else scenes.jitter(rng, box, ew, eh, 0.25, rng.random() < 0.5)])
            if rng.random() < 0.1:
                detections.append([label, scenes.jitter(rng, box, ew, eh, 0.25, rng.random() < 0.5)])  # a duplicate
        for _ in range(rng.randint(0, 4)):
            label = rng.choice(categories) if rng.random() < 0.8 else rng.choice(("unicorn", "Zebra "))
            detections.insert(rng.randint(0, len(detections)), [label, scenes.rand_box(rng, ew, eh)])
        predictions[image_id] = detections
    predictions[f"{name}-elsewhere"] = [["cat", [1, 1, 5, 5]]]  # an id not in the dataset
    return case(name, categories, images, predictions)


# boxes 10 wide at one corner: heights h <= k overlap with IoU h / k, correctly
# rounded, so 12/20 lands exactly on the nominal 0.6 and 9/12 on 0.75, and a
# box between two others ties exactly (12: 9/12 = 12/16; 20: 16/20 = 20/25)
TIE_HEIGHTS = (8, 9, 12, 16, 20, 25)
TIE_LABELS = ("cat", "Cat ", "dog")


def tie_case(rng, name, n_images):
    """Duplicated ground truths, identical predictions and exact IoU ties."""
    images, predictions = [], {}
    for index in range(n_images):
        x, y = rng.randrange(0, 20), rng.randrange(0, 20)

        def box():
            return [x, y, x + 10, y + rng.choice(TIE_HEIGHTS)]

        image_id = f"{name}-{index}"
        gt = [[rng.choice(TIE_LABELS), box()] for _ in range(rng.randrange(0, 8))]
        detections = [[rng.choice(TIE_LABELS), box()] for _ in range(rng.randrange(0, 9))]
        if gt and rng.random() < 0.5:
            detections.append(list(rng.choice(gt)))  # an exact copy of a ground truth
        if detections:
            detections += [list(rng.choice(detections))] * rng.randrange(0, 3)  # identical repeats
        images.append(image(image_id, gt, width=64, height=64))
        predictions[image_id] = detections
    return case(name, ["cat", "dog"], images, predictions)


def grid_case():
    """One detection per image whose IoU is exactly k/20, on and off the threshold grid."""
    images, predictions = [], {}
    for k in range(9, 21):
        image_id = f"grid-{k}"
        images.append(image(image_id, [["cat", [0, 0, 10, 20]]], width=40, height=40))
        predictions[image_id] = [["cat", [0.0, 0.0, 10.0, float(k)]]]
    images.append(image("grid-3/5", [["dog", [0, 0, 10, 10]], ["dog", [20, 0, 30, 10]]], width=40, height=40))
    predictions["grid-3/5"] = [["dog", [0, 0, 10, 6]], ["dog", [20, 0, 30, 7.5]]]
    return case("grid-iou", ["cat", "dog"], images, predictions)


def special_cases():
    cat = ["cat", [0, 0, 10, 10]]
    return [
        case(
            "unknown-and-empty-categories",
            ["cat", "dog", "zebra"],
            [image("u0", [cat, ["dog", [20, 20, 40, 40]]])],
            {"u0": [["unicorn", [0, 0, 10, 10]], ["zebra", [20, 20, 40, 40]], ["CAT", [0, 0, 10, 10]],
                    ["dog", [21, 21, 40, 40]], ["unicorn", [1, 1, 3, 3]]]},
        ),
        case(
            "active-category-without-gt-in-image",
            ["cat", "dog"],
            [image("a0", [cat]), image("a1", [["dog", [5, 5, 25, 25]]]), image("a2", [])],
            {"a0": [["dog", [0, 0, 10, 10]], cat],
             "a1": [["cat", [5, 5, 25, 25]], ["dog", [5, 5, 25, 25]], ["cat", [5, 5, 25, 26]]],
             "a2": [["cat", [0, 0, 10, 10]], ["dog", [0, 0, 10, 10]]]},
        ),
        case(
            "over-100-per-image-and-category",
            ["cat", "dog"],
            [image("o0", [["cat", [10 * i, 0, 10 * i + 8, 8]] for i in range(5)] + [["dog", [0, 100, 50, 150]]]),
             image("o1", [["cat", [0, 0, 30, 30]]])],
            {"o0": [["cat", [300, 300, 310, 310]]] * 60
                   + [["cat", [10 * i, 0, 10 * i + 8, 8]] for i in range(3)]
                   + [["dog", [0, 100, 50, 150]]]
                   + [["cat", [400, 400, 410, 410]]] * 40
                   + [["cat", [10 * i, 0, 10 * i + 8, 8]] for i in range(3, 5)]  # beyond the cut
                   + [["dog", [200, 200, 210, 210]]] * 101,
             "o1": [["cat", [0, 0, 30, 30]]]},
        ),
        case(
            "images-without-predictions-and-unknown-ids",
            ["cat"],
            [image("m0", [cat]), image("m1", [cat, ["cat", [20, 20, 30, 30]]]), image("m2", [])],
            {"m1": [["cat", [20, 20, 30, 30]]], "nowhere": [["cat", [0, 0, 10, 10]]],
             "bad-elsewhere": [["cat", [0, 0, 9999, 10]]]},
        ),
        case(
            "thousandths-spaces",
            ["car", "person"],
            [image("t0", [["car", [100, 100, 400, 300]], ["person", [500, 0, 1000, 1000]]], "thousandths", 1920, 1080),
             image("t1", [["person", [0, 0, 1000, 1000]]], "thousandths", 1, 1),
             image("t2", [["car", [0, 0, 320, 240]]], "pixels", 320, 240)],
            {"t0": [["car", [110, 90, 400, 310]], ["person", [500.5, 0, 1000, 999.5]], ["car", [0, 0, 1000, 1000]]],
             "t1": [["person", [0, 0, 1000, 1000]], ["person", [0, 0, 500, 1000]]],
             "t2": [["car", [0, 0, 320, 200]]]},
        ),
        case(
            "underflowing-areas",
            ["speck"],
            [image("s0", [["speck", [0, 0, 1e-200, 1e-200]], ["speck", [0, 0, 1e-3, 1e-3]]])],
            {"s0": [["speck", [0, 0, 1e-200, 1e-200]], ["speck", [0, 0, 1e-3, 1e-3]], ["speck", [0, 0, 1e-9, 1e-9]]]},
        ),
        case("no-category-with-ground-truth", ["cat", "dog"], [image("n0", []), image("n1", [])],
             {"n0": [cat], "n1": [["bird", [0, 0, 5, 5]]]}),
        case("empty-dataset", ["cat"], [], {"x": [cat]}),
        case(
            "invalid-box-past-extent",
            ["cat"],
            [image("i0", [cat]), image("i1", [cat], width=64, height=48), image("i2", [cat])],
            {"i0": [cat], "i1": [cat, ["cat", [0, 0, 70, 5]], ["cat", [-1, 0, 5, 5]]],
             "i2": [["cat", [5, 5, 1, 1]]]},
        ),
        case(
            "invalid-box-first-in-image-order",
            ["cat"],
            [image("j0", [cat]), image("j1", [cat])],
            {"j1": [["cat", [5, 5, 1, 1]]],
             "j0": [cat, ["cat", [0, 0, 10, 10]]] * 60 + [["zebra", [0, 0, 10, float("inf")]], ["cat", [0, 5, 10, 5]]]},
        ),
        case(
            "invalid-box-in-thousandths",
            ["cat"],
            [image("k0", [["cat", [0, 0, 500, 500]]], "thousandths", 320, 240)],
            {"k0": [["cat", [0, 0, 500, 500]], ["cat", [0.0, 0.0, 500.0, 1000.5]]]},
        ),
    ]


def cases():
    rng = random.Random(SEED)
    out = [random_case(rng, f"batch{index}", n, k) for index, (n, k) in enumerate(((200, 10), (60, 4), (30, 10)))]
    out += [tie_case(rng, f"tie{index}", n) for index, n in enumerate((40, 12, 3))]
    out.append(grid_case())
    out += special_cases()
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT, help="file to write (default: the committed one)")
    out = parser.parse_args(argv).out
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        for data in cases():
            handle.write(json.dumps({**data, **outcome(data)}) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
