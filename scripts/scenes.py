"""One seeded scene generator for the golden-file scripts.

Boxes, jitter, label spellings, thousandths, both completion grammars, the
malformed-completion kinds, log-prob series and whole scoring requests, each
drawn from a ``random.Random`` the caller seeds. Every draw goes through
``random``, ``uniform``, ``randrange``, ``randint`` or ``choice`` and float
arithmetic, never through a method that calls the C maths library
(``gauss``, ``expovariate`` and the like), so a script writes the same bytes
whatever libm variant the machine loads.
"""

from __future__ import annotations

import json

LABELS = ("person", "car", "dog", "cat", "traffic light", "bench", "bird", "cup", "sheep", "kite")
# a 400-digit literal: a JSON integer beyond float64, a plain coordinate that reads as inf
HUGE = "9" * 400
FAULTS = ("over-extent", "at-extent", "inverted", "negative", "degenerate",
          "huge", "truncated", "prose", "empty", "bad-entry")


def normal(rng):
    """A draw of mean 0 and variance 1: twelve uniforms less 6 (Irwin–Hall), added left to right."""
    total = -6.0
    for _ in range(12):
        total += rng.random()
    return total


def rand_box(rng, w, h, lo=0.03, hi=0.4):
    """An integer box in a ``w`` × ``h`` image, each side a fraction in [lo, hi) of the image's."""
    bw = max(2, int(w * rng.uniform(lo, hi)))
    bh = max(2, int(h * rng.uniform(lo, hi)))
    x1 = rng.randint(0, w - bw)
    y1 = rng.randint(0, h - bh)
    return [x1, y1, x1 + bw, y1 + bh]


def int_box(rng, w, h):
    """A box of whole floats in a ``w`` × ``h`` image, 20 to 240 wide and 20 to 200 high."""
    x1 = rng.randrange(0, w - 40)
    y1 = rng.randrange(0, h - 40)
    x2 = rng.randrange(x1 + 20, min(x1 + 240, w) + 1)
    y2 = rng.randrange(y1 + 20, min(y1 + 200, h) + 1)
    return (float(x1), float(y1), float(x2), float(y2))


def shift(rng, box, w, h):
    """``box`` moved by up to 15 pixels along each axis, kept in the image and at least 1 wide."""
    dx = rng.randrange(-15, 16)
    dy = rng.randrange(-15, 16)
    x1 = min(max(0, int(box[0]) + dx), w - 2)
    y1 = min(max(0, int(box[1]) + dy), h - 2)
    x2 = min(w, max(x1 + 1, int(box[2]) + dx))
    y2 = min(h, max(y1 + 1, int(box[3]) + dy))
    return (float(x1), float(y1), float(x2), float(y2))


def jitter(rng, box, w, h, spread=0.2, whole=True):
    """``box`` with each corner moved by a normal draw whose deviation is up to ``spread`` of
    its side, kept in the image and in order: whole numbers 1 apart, or floats 0.5 apart."""
    x1, y1, x2, y2 = box
    s = rng.uniform(0.0, spread)
    sx, sy = s * (x2 - x1), s * (y2 - y1)
    snap, gap = (round, 1) if whole else (float, 0.5)
    nx1 = min(max(snap(x1 + sx * normal(rng)), 0), w - gap)
    ny1 = min(max(snap(y1 + sy * normal(rng)), 0), h - gap)
    nx2 = min(max(snap(x2 + sx * normal(rng)), nx1 + gap), w)
    ny2 = min(max(snap(y2 + sy * normal(rng)), ny1 + gap), h)
    return [nx1, ny1, nx2, ny2]


def spelling(rng, label):
    """``label``, one time in ten in upper case and one in ten padded with whitespace."""
    roll = rng.random()
    if roll < 0.1:
        return label.upper()
    if roll < 0.2:
        return " " + label.replace(" ", "  ") + "\t"
    return label


def relabel(rng, label, labels=LABELS, swap=0.15):
    """One of ``labels`` with probability ``swap``, else a spelling of ``label``."""
    return rng.choice(labels) if rng.random() < swap else spelling(rng, label)


def thousandths(box, w, h):
    """A pixel box in whole thousandths of the image, at least 1 wide and within 1000."""
    x1, y1, x2, y2 = box
    t = [round(x1 * 1000 / w), round(y1 * 1000 / h), round(x2 * 1000 / w), round(y2 * 1000 / h)]
    t[2] = min(max(t[2], t[0] + 1), 1000)
    t[3] = min(max(t[3], t[1] + 1), 1000)
    t[0] = min(t[0], t[2] - 1)
    t[1] = min(t[1], t[3] - 1)
    return t


def render(objects, plain, rng):
    """(label, box) pairs as a plain completion, or as a JSON array, fenced one time in five."""
    if plain:
        return ";".join(f"{label}-[{','.join(map(str, box))}]" for label, box in objects)
    text = json.dumps([{"bbox_2d": box, "label": label} for label, box in objects])
    return "```json\n" + text + "\n```" if rng.random() < 0.2 else text


def faulty(rng, objects, w, h, plain):
    """One malformed completion of a kind in ``FAULTS``: a bad box among good ones, or a broken text."""
    kind = rng.choice(FAULTS)
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


def logprob_series(rng):
    """One completion's policy, old and ref log-probs over 1 to 6 tokens; old and ref lie near policy."""
    policy = []
    for _ in range(rng.randint(1, 6)):
        z = normal(rng)
        policy.append(-0.5 * z * z)
    return {
        "policy": policy,
        "old": [min(0.0, p + 0.05 * normal(rng)) for p in policy],
        "ref": [min(0.0, p + 0.1 * normal(rng)) for p in policy],
    }


def options(rng):
    """The drawn request options of the golden mix: grammar, matcher, spaces, progress and phase."""
    return dict(
        plain=rng.random() < 0.35,
        matcher=rng.choice(("box", "box-label")),
        gt_space=rng.choice(("pixels", "pixels", "thousandths")),
        progress=rng.choice((None, 0.0, 0.5, 0.75, 1.0)),
        phase=rng.choice((None, {"step_fraction": 0.3}, {"step_fraction": 1.0},
                          {"beginner": [0.3, 0.4, 0.8], "advanced": [0.6, 0.7, 0.95]})),
    )


def request(rng, rid, *, size, g, plain, matcher, kind="ordinary", gt_space="pixels",
            progress=None, phase=None, logprobs=False):
    """One scoring request as a wire dict: ``g`` ground truths and ``size`` completions of them.

    ``kind`` "flood" gives the first completion 100 to 150 extra boxes, and
    "tie" makes every ground truth and every box one and the same. About 15%
    of the completions are ``faulty``.
    """
    w = rng.choice((320, 640, 800, 1280))
    h = rng.choice((240, 480, 600, 960))
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
            objects = [(relabel(rng, lab), jitter(rng, b, w, h)) for lab, b in gt if rng.random() < 0.8]
            extra = 100 + rng.randint(0, 50) if kind == "flood" and k == 0 else rng.randint(0, max(1, g // 2))
            for _ in range(extra):
                objects.insert(rng.randint(0, len(objects)), (rng.choice(LABELS), rand_box(rng, w, h)))
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
        data["logprobs"] = [logprob_series(rng) for _ in range(size)]
    return data
