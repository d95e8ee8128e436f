"""Seeded request generators for the benchmark workloads and the matcher sweep.

Every generator draws from ``random.Random(seed)`` only, so one seed always
yields the same request sequence. Each request comes with a ``Plan``: what a
correct engine must answer (response kind, per-completion prediction counts
and format rewards), which the output checks compare against.

The generators build wire lines directly; the engine under test receives
nothing but those lines.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterator

# ~10 categories with a few multi-word names, so label normalisation has work
LABELS = (
    "person", "car", "dog", "cat", "bicycle",
    "traffic light", "bench", "bird", "bus", "umbrella",
)
PROSE = (
    "I cannot find any objects in this image.",
    "The image shows a street scene with several people and cars.",
    "Sure! Here are the objects: a dog on the left and a cat on the right.",
    "There is a person riding a bicycle near the bench.",
)
# wire-level faults and the error kind a correct engine answers with
WIRE_FAULTS = (
    ("truncated-line", "parse-error"),
    ("missing-completions", "malformed-request"),
    ("progress-out-of-range", "malformed-request"),
    ("logprob-count-mismatch", "malformed-request"),
    ("positive-logprob", "malformed-request"),
    ("unknown-matcher", "malformed-request"),
    ("inverted-gt-box", "malformed-request"),
)
DEEP_NESTING_MIN = 1000  # "[" runs at least this deep exceed the default recursion limit
ORACLE_MAX = 6  # completions with m, g <= this feed the exhaustive assignment oracle


@dataclass
class Plan:
    """What a correct engine returns for one request line."""

    request_id: str | None
    kind: str  # "ok" or the expected error kind
    n_gt: int = 0
    m: tuple[int, ...] = ()  # content-valid predictions per completion
    dual: tuple[float, ...] = ()  # expected dual-format reward per completion
    advanced: bool = False
    want_advantages: bool = True
    has_logprobs: bool = False


@dataclass
class Request:
    line: str
    plan: Plan
    # small structured completions for the exact-assignment oracle:
    # (prediction pairs, gt pairs, width, height, matcher)
    oracle_cases: list = field(default_factory=list)


# ---------------------------------------------------------------- boxes ----


def _rand_box(rng: random.Random, w: int, h: int, lo: float, hi: float) -> tuple[int, int, int, int]:
    bw = max(2, int(w * rng.uniform(lo, hi)))
    bh = max(2, int(h * rng.uniform(lo, hi)))
    x1 = rng.randint(0, w - bw)
    y1 = rng.randint(0, h - bh)
    return (x1, y1, x1 + bw, y1 + bh)


def _jitter(rng: random.Random, box, w: int, h: int, scale: float) -> tuple[int, int, int, int]:
    x1, y1, x2, y2 = box
    sx, sy = scale * (x2 - x1), scale * (y2 - y1)
    nx1 = min(max(round(x1 + rng.gauss(0, sx)), 0), w - 1)
    ny1 = min(max(round(y1 + rng.gauss(0, sy)), 0), h - 1)
    nx2 = min(max(round(x2 + rng.gauss(0, sx)), nx1 + 1), w)
    ny2 = min(max(round(y2 + rng.gauss(0, sy)), ny1 + 1), h)
    return (nx1, ny1, nx2, ny2)


def _to_thousandths(box, w: int, h: int) -> tuple[int, int, int, int]:
    x1, y1, x2, y2 = box
    t = [round(x1 * 1000 / w), round(y1 * 1000 / h), round(x2 * 1000 / w), round(y2 * 1000 / h)]
    t[2] = max(t[2], t[0] + 1)
    t[3] = max(t[3], t[1] + 1)
    if t[2] > 1000:
        t[0], t[2] = 999, 1000
    if t[3] > 1000:
        t[1], t[3] = 999, 1000
    return tuple(t)


def _relabel(rng: random.Random, label: str) -> str:
    """Mostly the right label, sometimes another category or a casing variant."""
    roll = rng.random()
    if roll < 0.12:
        return rng.choice(LABELS)
    if roll < 0.2:
        return label.upper() if rng.random() < 0.5 else " " + label.replace(" ", "  ") + " "
    return label


def detections(rng: random.Random, gt, w: int, h: int, recall: float, extra: int, scale: float):
    """A model's boxes for one image: jittered hits, misses and false positives."""
    objects = [(_relabel(rng, label), _jitter(rng, box, w, h, scale)) for label, box in gt if rng.random() < recall]
    for _ in range(extra):
        objects.insert(rng.randint(0, len(objects)), (rng.choice(LABELS), _rand_box(rng, w, h, 0.03, 0.4)))
    return objects


# ---------------------------------------------------------- completions ----


def _structured(objects, indent: int | None = None) -> str:
    return json.dumps([{"bbox_2d": list(box), "label": label} for label, box in objects], indent=indent)


def _plain(objects) -> str:
    return ";".join(f"{label}-[{','.join(map(str, box))}]" for label, box in objects)


def completion(rng: random.Random, objects, w: int, h: int, plain: bool, fault: str | None, fenced: float = 0.3):
    """Render one completion; returns (text, its content-valid objects, dual-format reward).

    ``objects`` are valid pixel boxes; the returned valid objects are in the
    completion's own coordinates (thousandths for plain). ``fault`` names a
    malformation a real model produces, or None for a well-formed completion.
    A well-formed structured completion comes as an indented JSON block in a
    markdown fence with probability ``fenced``.
    """
    if plain:
        objects = [(label, _to_thousandths(box, w, h)) for label, box in objects]
        extent_x = extent_y = 1000
        render = _plain
    else:
        extent_x, extent_y = w, h
        render = _structured
    if fault is None:
        if not plain and rng.random() < fenced:
            return "```json\n" + _structured(objects, indent=2) + "\n```", objects, 1.0
        return render(objects), objects, 1.0
    if fault == "prose":
        return rng.choice(PROSE), [], 0.0
    if fault == "deep-nesting":
        depth = rng.randint(DEEP_NESTING_MIN, 3 * DEEP_NESTING_MIN)
        return "[" * depth + '{"bbox_2d": [', [], 0.0
    if not objects:
        box = (100, 100, 300, 300) if plain else _rand_box(rng, w, h, 0.1, 0.3)
        objects = [(rng.choice(LABELS), box)]
    if fault == "repetition":
        # a decoding loop cut off by the token limit: the closing bracket never comes
        text = render([objects[0]] * rng.randint(20, 60))
        return text[: len(text) - rng.randint(3, 12)], [], 0.0
    if fault == "truncated":
        text = render(objects)
        cut = rng.randint(2, len(text) - 2)
        if text[cut - 1] == "]":  # a plain prefix ending on a whole segment would still parse
            cut -= 1
        return text[:cut], [], 0.0
    index = rng.randrange(len(objects))
    label, (x1, y1, x2, y2) = objects[index]
    if fault == "out-of-bounds":
        if rng.random() < 0.5:
            bad = (x1, y1, extent_x + rng.randint(1, 200), y2)
        else:
            bad = (x1, y1, x2, extent_y + rng.randint(1, 200))
    else:  # inverted
        bad = (x2, y1, x1, y2) if rng.random() < 0.5 else (x1, y2, x2, y1)
    emitted = objects[:index] + [(label, bad)] + objects[index + 1:]
    return render(emitted), objects[:index] + objects[index + 1:], 0.0


SOFT_FAULTS = ("prose", "truncated", "out-of-bounds", "inverted", "repetition")


# ------------------------------------------------------------- logprobs ----


def logprob_pool(rng: random.Random, size: int, lo: int, hi: int) -> list[str]:
    """Pre-serialised per-completion log-prob records of lo..hi tokens.

    Serialising floats dominates request generation, so a run draws its
    records from a pool built once; every request still gets its own mix.
    """
    pool = []
    for _ in range(size):
        n = rng.randint(lo, hi)
        policy = [-rng.expovariate(2.0) for _ in range(n)]
        old = [min(0.0, p + rng.gauss(0, 0.01)) for p in policy]
        ref = [min(0.0, p + rng.gauss(0, 0.03)) for p in policy]
        pool.append(json.dumps({"policy": policy, "old": old, "ref": ref}))
    return pool


# ------------------------------------------------------------- requests ----


def _image(rng: random.Random) -> tuple[int, int]:
    return rng.choice((320, 480, 640, 800, 1024, 1280)), rng.choice((240, 360, 480, 600, 768, 960))


def _advanced(progress: float, step_fraction: float) -> bool:
    return step_fraction < 1.0 and progress >= step_fraction


def _request(request_id, w, h, gt, completions, *, plain, matcher, progress, phase=None, advantages=True):
    data = {
        "v": 1,
        "request_id": request_id,
        "sample": {
            "image_id": "img-" + request_id,
            "width": w,
            "height": h,
            "coord_space": "pixels",
            "gt": [{"label": label, "bbox": [float(v) for v in box]} for label, box in gt],
        },
        "completions": completions,
        "progress": progress,
        "format": "plain" if plain else "structured",
        "matcher": matcher,
        "advantages": advantages,
    }
    if phase is not None:
        data["phase"] = {"step_fraction": phase}
    return data


def _with_logprobs(data: dict, records: list[str]) -> str:
    line = json.dumps(data)
    return line[:-1] + ', "logprobs": [' + ", ".join(records) + "]}"


_SHORT_RECORD = json.dumps({"policy": [-0.5, -0.25], "old": [-0.5, -0.4], "ref": [-0.6, -0.3]})
_POSITIVE_RECORD = _SHORT_RECORD.replace("-0.25", "0.25")


def _wire_fault(rng: random.Random, fault: str, data: dict, records: list[str] | None) -> str:
    if fault == "missing-completions":
        del data["completions"]
    elif fault == "progress-out-of-range":
        data["progress"] = 1.0 + rng.uniform(0.01, 1.0)
    elif fault == "unknown-matcher":
        data["matcher"] = "hungarian"
    elif fault == "inverted-gt-box":
        x1, y1, x2, y2 = data["sample"]["gt"][0]["bbox"]
        data["sample"]["gt"][0]["bbox"] = [x2, y1, x1, y2]
    elif fault == "logprob-count-mismatch":
        return _with_logprobs(data, [_SHORT_RECORD] * (len(data["completions"]) - 1))
    elif fault == "positive-logprob":
        return _with_logprobs(data, [_POSITIVE_RECORD] * len(data["completions"]))
    line = json.dumps(data) if records is None else _with_logprobs(data, records)
    if fault == "truncated-line":
        return line[: rng.randint(10, len(line) - 2)]
    return line


@dataclass(frozen=True)
class StreamShape:
    """Knobs of one stream workload.

    Requests come in blocks of ``len(group_sizes)``; every block holds exactly
    these group sizes and the stated number of rare cases, at random
    positions, so rare cases keep a fixed rate whatever the seed.
    """

    gt_range: tuple[int, int]
    group_sizes: tuple[int, ...]
    max_boxes: int  # cap on boxes per ordinary completion
    extra_boxes: float  # false positives per ground truth, upper end
    soft_fault_rate: float  # share of ordinary completions with a malformation
    plain_share: float
    box_label_share: float
    logprob_share: float
    logprob_tokens: tuple[int, int]
    wire_faults_per_block: int
    floods_per_block: int  # completions with 100+ boxes
    tie_groups_per_block: int  # groups whose boxes are all one repeated box


STREAM_MIXED = StreamShape(
    gt_range=(1, 8),
    group_sizes=(8,) * 33 + (16,) * 16 + (64,),
    max_boxes=12,
    extra_boxes=0.6,
    soft_fault_rate=0.1,
    plain_share=0.35,
    box_label_share=0.4,
    logprob_share=0.7,
    logprob_tokens=(128, 512),
    wire_faults_per_block=1,
    floods_per_block=0,
    tie_groups_per_block=0,
)

STREAM_DENSE = StreamShape(
    gt_range=(16, 64),
    group_sizes=(8,) * 25,
    max_boxes=96,
    extra_boxes=0.5,
    soft_fault_rate=0.04,
    plain_share=0.2,
    box_label_share=0.4,
    logprob_share=0.0,
    logprob_tokens=(0, 0),
    wire_faults_per_block=0,
    floods_per_block=1,
    tie_groups_per_block=2,
)


def _exactly(rng: random.Random, n: int, share: float) -> list[bool]:
    flags = [i < round(n * share) for i in range(n)]
    rng.shuffle(flags)
    return flags


def _stratified(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n integers spread evenly over lo..hi, in random order."""
    values = [lo + int((i + rng.random()) * (hi - lo + 1) / n) for i in range(n)]
    rng.shuffle(values)
    return values


def stream_requests(seed: int, shape: StreamShape, oracle_budget: int = 0) -> Iterator[Request]:
    """Endless seeded request sequence for a streaming workload.

    Within each block the group sizes, ground-truth counts, formats,
    matchers, log-prob presence and rare cases are fixed in number and
    shuffled, so two seeds differ in detail but not in mix.
    """
    rng = random.Random(seed)
    pool = logprob_pool(rng, 96, *shape.logprob_tokens) if shape.logprob_share else []
    n = len(shape.group_sizes)
    index = 0
    while True:
        sizes = list(shape.group_sizes)
        rng.shuffle(sizes)
        specials = ["wire"] * shape.wire_faults_per_block + ["tie"] * shape.tie_groups_per_block
        specials += [None] * (n - len(specials))
        rng.shuffle(specials)
        flooded = rng.sample([i for i in range(n) if specials[i] is None], shape.floods_per_block)
        # log-probs are spread over each group size separately, so the rare
        # large groups carry them at the same fixed rate as the rest
        with_logprobs = {size: _exactly(rng, sizes.count(size), shape.logprob_share) for size in set(sizes)}
        slots = zip(
            sizes, specials, _stratified(rng, *shape.gt_range, n),
            _exactly(rng, n, shape.plain_share), _exactly(rng, n, shape.box_label_share),
            [with_logprobs[size].pop() for size in sizes],
        )
        for slot, (size, special, g, plain, box_label, logprobs) in enumerate(slots):
            request = _stream_request(
                rng, shape, pool, f"r{seed}-{index}", size, special, int(slot in flooded),
                g, plain, "box-label" if box_label else "box", logprobs, oracle_budget,
            )
            oracle_budget -= len(request.oracle_cases)
            index += 1
            yield request


def _stream_request(
    rng, shape, pool, request_id, size, special, floods, g, plain, matcher, logprobs, oracle_budget
) -> Request:
    w, h = _image(rng)
    if special == "tie":
        # a crowd annotated with one repeated box, predictions repeating it too
        box = _rand_box(rng, w, h, 0.05, 0.15)
        label = rng.choice(LABELS)
        gt = [(label, box)] * g
    else:
        lo, hi = (0.03, 0.2) if g > 8 else (0.05, 0.5)
        gt = [(rng.choice(LABELS), _rand_box(rng, w, h, lo, hi)) for _ in range(g)]
    progress = rng.random()
    step_fraction = round(rng.uniform(0.2, 1.0), 3) if rng.random() < 0.15 else None
    advanced = _advanced(progress, 0.5 if step_fraction is None else step_fraction)

    texts, ms, duals, cases = [], [], [], []
    deep_slot = rng.randrange(size) if special == "deep" else -1
    flood_slots = rng.sample(range(size), floods)
    for k in range(size):
        fault = None
        if special == "tie":
            objects = [(label, box)] * rng.randint(g // 2, g + g // 2)
        elif k in flood_slots:
            objects = detections(rng, gt, w, h, 1.0, rng.randint(100, 160) - g, 0.05)
        else:
            extra = rng.randint(0, max(1, round(shape.extra_boxes * g)))
            scale = rng.uniform(0.02, 0.15)
            objects = detections(rng, gt, w, h, rng.uniform(0.4, 1.0), extra, scale)[: shape.max_boxes]
            if rng.random() < shape.soft_fault_rate:
                fault = rng.choice(SOFT_FAULTS)
        if k == deep_slot:
            fault = "deep-nesting"
        text, valid, dual = completion(rng, objects, w, h, plain, fault, fenced=1.0 if k in flood_slots else 0.3)
        texts.append(text)
        ms.append(len(valid))
        duals.append(dual)
        if fault is None and not plain and 0 < len(valid) <= ORACLE_MAX and g <= ORACLE_MAX:
            if len(cases) < oracle_budget:
                cases.append((valid, gt, w, h, matcher))

    data = _request(request_id, w, h, gt, texts, plain=plain, matcher=matcher, progress=progress, phase=step_fraction)
    records = [rng.choice(pool) for _ in range(size)] if logprobs else None
    if special == "wire":
        fault, kind = rng.choice(WIRE_FAULTS)
        line = _wire_fault(rng, fault, data, records)
        return Request(line, Plan(None if kind == "parse-error" else request_id, kind))
    line = json.dumps(data) if records is None else _with_logprobs(data, records)
    plan = Plan(
        request_id, "ok", n_gt=g, m=tuple(ms), dual=tuple(duals), advanced=advanced,
        has_logprobs=records is not None,
    )
    return Request(line, plan, cases)


def deep_nesting_request(seed: int) -> Request:
    """One stream-mixed group of 8 in which one completion opens a '[' run 1000-3000 deep.

    A correct engine answers ``ok`` with that completion scored as unparsable.
    It is kept out of the timed traffic and sent once per run on its own.
    """
    rng = random.Random(seed)
    return _stream_request(
        rng, STREAM_MIXED, [], f"deep{seed}", 8, "deep", 0, rng.randint(*STREAM_MIXED.gt_range),
        False, "box", False, 0,
    )


# ----------------------------------------------------------- batch-eval ----

BATCH_IMAGES = 500


def batch_manifest(rng: random.Random, call: int):
    """One evaluation manifest: one final completion per image, no advantages.

    Returns the manifest lines, their plans, and the images and final
    detections (pixel space, as evaluation sees them) for the reference
    evaluation.
    """
    lines, plans, images, finals = [], [], [], {}
    for i in range(BATCH_IMAGES):
        request_id = f"b{call}-{i}"
        w, h = _image(rng)
        g = rng.randint(1, 12)
        gt = [(rng.choice(LABELS), _rand_box(rng, w, h, 0.04, 0.4)) for _ in range(g)]
        plain = rng.random() < 0.25
        objects = detections(rng, gt, w, h, rng.uniform(0.5, 1.0), rng.randint(0, 4), rng.uniform(0.02, 0.12))
        fault = rng.choice(("prose", "truncated", "out-of-bounds")) if rng.random() < 0.05 else None
        text, valid, dual = completion(rng, objects, w, h, plain, fault)
        progress = rng.random()
        data = _request(request_id, w, h, gt, [text], plain=plain, matcher="box", progress=progress, advantages=False)
        data["final"] = True
        lines.append(json.dumps(data))
        plans.append(Plan(
            request_id, "ok", n_gt=g, m=(len(valid),), dual=(dual,),
            advanced=_advanced(progress, 0.5), want_advantages=False,
        ))
        image_id = data["sample"]["image_id"]
        images.append((image_id, [(label, tuple(map(float, box))) for label, box in gt]))
        finals[image_id] = [(" ".join(label.split()), _pixels(box, w, h, plain)) for label, box in valid]
    return lines, plans, images, finals


def _pixels(box, w: int, h: int, plain: bool) -> tuple[float, float, float, float]:
    x1, y1, x2, y2 = (float(v) for v in box)
    if not plain:
        return (x1, y1, x2, y2)
    return (x1 * w / 1000.0, y1 * h / 1000.0, x2 * w / 1000.0, y2 * h / 1000.0)


# ---------------------------------------------------------- setup probe ----


def setup_request(seed: int) -> str:
    """A small fixed-shape request: the first response a fresh service sends."""
    rng = random.Random(seed)
    w, h = 640, 480
    gt = [(rng.choice(LABELS), _rand_box(rng, w, h, 0.1, 0.4)) for _ in range(3)]
    completions = [_structured(detections(rng, gt, w, h, 0.9, 1, 0.05)) for _ in range(2)]
    return json.dumps(_request("setup", w, h, gt, completions, plain=False, matcher="box", progress=0.1))


# ---------------------------------------------------------- matcher sweep ----

SWEEP_SIZES = (5, 10, 20, 40, 80)
SWEEP_KINDS = ("random", "jitter", "identical")


def sweep_cases(seed: int):
    """(name, predictions, gt pairs, width, height) for the matcher sweep.

    Image 640x480. ``random``: boxes of 5-40% of each side placed uniformly,
    predictions independent of the ground truth. ``jitter``: prediction i is
    ground truth i moved by a gaussian of 5% of its size (near-diagonal cost).
    ``identical``: every box on both sides is the same, so all costs tie.
    The flood is 150 random boxes against 100 random ground truths.
    """
    rng = random.Random(seed)
    w, h = 640, 480
    cases = []
    for n in SWEEP_SIZES:
        for kind in SWEEP_KINDS:
            if kind == "identical":
                box = _rand_box(rng, w, h, 0.05, 0.4)
                gt = [("person", box)] * n
                preds = [("person", box)] * n
            else:
                gt = [(rng.choice(LABELS), _rand_box(rng, w, h, 0.05, 0.4)) for _ in range(n)]
                if kind == "random":
                    preds = [(rng.choice(LABELS), _rand_box(rng, w, h, 0.05, 0.4)) for _ in range(n)]
                else:
                    preds = [(label, _jitter(rng, box, w, h, 0.05)) for label, box in gt]
            cases.append((f"{n}x{n}-{kind}", preds, gt, w, h))
    gt = [(rng.choice(LABELS), _rand_box(rng, w, h, 0.05, 0.4)) for _ in range(100)]
    preds = [(rng.choice(LABELS), _rand_box(rng, w, h, 0.05, 0.4)) for _ in range(150)]
    cases.append(("150x100-flood", preds, gt, w, h))
    return cases
