"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred.
"""

import json
import random
import time

import numpy as np
import pytest

from locscore import (
    Box,
    EngineConfig,
    GroundTruthSet,
    MatcherPolicy,
    PhaseConfig,
    ThresholdTriple,
    assignment_cost,
    differentiate,
    evaluate,
    group_advantages,
    grpo_objective,
    iou,
    kl_estimate,
    match,
    parse_completion,
    phase_thresholds,
    pixel_space,
    precision_reward,
    recall_reward,
    score_completion,
    thousandths_space,
)
from locscore.grpo import KlMode, LogProbRecord
from locscore.harness import run_batch, run_service
from locscore.harness.cli import main as cli_main
from locscore.matching import MatchedPrediction
from locscore.metrics import IOU_THRESHOLDS, EvalDataset, EvalImage
from locscore.parsing import (
    FormatKind,
    emit_plain,
    emit_structured,
    extract_objects,
)
from locscore.rewards import ADVANCED_THRESHOLDS, BEGINNER_THRESHOLDS, RewardRules

from conftest import LABELS, random_box, random_gt, random_int_box
from oracles import assignment_total, mean_std, min_assignment_cost, reference_evaluate
from test_harness import make_request_dict
from test_parsing import GOLDEN_CASES, _format_for, _space_for

import io
from pathlib import Path

SPACE = pixel_space(640, 480)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _passline(number: int, name: str) -> None:
    print(f"\nACCEPTANCE {number:02d} {name}: PASS")


def test_01_matcher_oracle():
    rng = random.Random(1001)
    solver_time = 0.0
    started = time.time()
    for _ in range(500):
        m = rng.randrange(0, 9)
        g = rng.randrange(0, 9)
        policy = rng.choice(list(MatcherPolicy))
        preds = [(rng.choice(LABELS), random_box(rng)) for _ in range(m)]
        gt = random_gt(rng, g)
        t0 = time.time()
        result = match(preds, gt, policy)
        solver_time += time.time() - t0
        pairs = [(i, r.gt_index) for i, r in enumerate(result) if r.gt_index is not None]
        assert len(result) == m
        assert len(pairs) == min(m, g)
        if m and g:
            cost = np.array(
                [
                    [
                        assignment_cost(p, (inst.label, inst.box), policy)
                        for inst in gt.instances
                    ]
                    for p in preds
                ]
            )
            assert assignment_total(cost, pairs) == min_assignment_cost(cost)
    elapsed = time.time() - started
    assert elapsed < 5.0, f"matcher oracle criterion took {elapsed:.2f}s"
    _passline(1, f"matcher-oracle (500 instances, {elapsed:.2f}s)")


def test_02_iou_kernel():
    assert iou(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 1.0
    assert iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0
    assert iou(Box(0, 0, 10, 10), Box(5, 5, 15, 15)) == 25 / 175

    rng = random.Random(1002)
    for _ in range(10_000):
        a = random_box(rng, 320, 240)
        b = random_box(rng, 320, 240)
        value = iou(a, b)
        assert value == iou(b, a)
        assert 0.0 <= value <= 1.0
        dx, dy = rng.uniform(0, 100), rng.uniform(0, 100)
        assert abs(iou(a.translated(dx, dy), b.translated(dx, dy)) - value) < 1e-9
        factor = rng.uniform(0.25, 4.0)
        assert abs(iou(a.scaled(factor), b.scaled(factor)) - value) < 1e-9
    _passline(2, "iou-kernel (10000 pairs at 1e-9)")


def _fuzz_completion(rng: random.Random) -> tuple[str, object]:
    """A random completion in a random format, from helpful to hostile."""
    structured = rng.random() < 0.5
    fmt = FormatKind.STRUCTURED if structured else FormatKind.PLAIN
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice(
            ["", "   ", "I see nothing.", '[{"bbox_2d": [1, 2', "cat-[1,2", "null"]
        ), fmt
    n = rng.randrange(0, 5)
    if structured:
        objects = [(rng.choice(LABELS), random_box(rng)) for _ in range(n)]
        text = emit_structured(objects)
        if kind == 2 and n:
            text = text[: rng.randrange(1, len(text))]  # truncate
        elif kind == 3:
            text = f"```json\n{text}\n```"
        elif kind == 4 and n:
            # corrupt one box out of bounds
            objects[0] = (objects[0][0], Box(0, 0, 10_000.0, 10.0))
            text = emit_structured(objects)
        return text, fmt
    objects = [(rng.choice(LABELS), random_int_box(rng, 1000, 1000)) for _ in range(n)]
    text = emit_plain(objects)
    if kind == 2 and text:
        text = text[: rng.randrange(1, len(text) + 1)]
    elif kind == 4 and n:
        objects[0] = (objects[0][0], Box(500.0, 500.0, 100.0, 600.0))  # swapped corners
        text = ";".join(
            f"{label}-[{int(b.x1)},{int(b.y1)},{int(b.x2)},{int(b.y2)}]"
            for label, b in objects
        )
    return text, fmt


def test_03_reward_formula_fidelity():
    gt = GroundTruthSet.from_pairs(
        [("cat", Box(1, 1, 10, 10)), ("dog", Box(19, 19, 31, 31))], SPACE
    )
    text = emit_structured([("cat", Box(0, 0, 10, 10)), ("dog", Box(20, 20, 30, 30))])
    breakdown = score_completion(text, FormatKind.STRUCTURED, SPACE, gt)
    assert abs(breakdown.total - 2.8472) < 1e-4

    rng = random.Random(1003)
    for _ in range(10_000):
        text, fmt = _fuzz_completion(rng)
        space = SPACE if fmt is FormatKind.STRUCTURED else thousandths_space(640, 480)
        gt = random_gt(rng, rng.randrange(0, 5))
        progress = rng.random()
        b = score_completion(text, fmt, space, gt, progress=progress)
        assert 0.0 <= b.dual_format <= 1.0
        assert 0.0 <= b.recall <= 1.0
        assert 0.0 <= b.precision <= 1.0
        assert 0.0 <= b.total <= 3.0
        assert b.total == b.dual_format + b.recall + b.precision
    _passline(3, "reward-formula-fidelity (worked example + 10000 fuzzed)")


def test_04_differentiation_map():
    for xi1, xi2 in ((0.5, 0.75), (0.75, 0.9)):
        assert differentiate(xi2 + 0.05, xi1, xi2) == 1.0
        assert differentiate(xi2, xi1, xi2) == 1.0
        assert differentiate(xi1 - 0.1, xi1, xi2) == 0.0
        mid = (xi1 + xi2) / 2
        assert differentiate(mid, xi1, xi2) == mid

    # with (xi1, xi2) = (0, 1) the sharpened rewards equal the raw ratios
    rng = random.Random(1004)
    identity = ThresholdTriple(0.5, 0.0, 1.0)
    for _ in range(300):
        n = rng.randrange(1, 7)
        ious = [rng.uniform(0, 0.999) for _ in range(n)]
        matches = [
            MatchedPrediction(Box(0, 0, 1, 1), "cat", v, i, True) for i, v in enumerate(ious)
        ]
        n_gt = rng.randrange(n, n + 4)
        valid = [v for v in ious if v >= 0.5]
        raw_recall = len(valid) / n_gt
        raw_precision = sum(valid) / n
        if raw_recall < 1.0:
            assert recall_reward(matches, n_gt, identity) == pytest.approx(
                raw_recall, abs=1e-12
            )
        assert precision_reward(matches, n_gt, identity) == pytest.approx(
            raw_precision, abs=1e-12
        )
    _passline(4, "differentiation-map (branches exact, identity mode)")


def test_05_staged_progression():
    for step in (1 / 3, 1 / 2, 1.0):
        cfg = PhaseConfig(step_fraction=step)
        switched_at = None
        for k in range(301):
            progress = k / 300
            triple = phase_thresholds(cfg, progress)
            advanced = triple == ADVANCED_THRESHOLDS
            if advanced and switched_at is None:
                switched_at = progress
            if not advanced:
                assert triple == BEGINNER_THRESHOLDS
                assert switched_at is None, "thresholds regressed after switching"
        if step == 1.0:
            assert switched_at is None
        else:
            assert switched_at == step  # k/300 grid hits 1/3 and 1/2 exactly
    _passline(5, "staged-progression (switch at step fraction, never at 1)")


def test_06_advantage_standardization():
    rng = random.Random(1006)
    checked = 0
    while checked < 1000:
        n = rng.randrange(2, 17)
        rewards = [rng.uniform(0.0, 3.0) for _ in range(n)]
        _, std = mean_std(rewards)
        if std < 0.2:
            continue  # keep the 1e-4 stabilizer negligible vs the 1e-3 band
        checked += 1
        advantages = group_advantages(rewards, epsilon=1e-4)
        mean_a, std_a = mean_std(advantages)
        assert abs(mean_a) < 1e-9
        assert abs(std_a - 1.0) < 1e-3
        assert advantages.index(max(advantages)) == rewards.index(max(rewards))
        shifted = group_advantages([r + 0.7 for r in rewards], epsilon=1e-4)
        assert all(abs(a - b) < 1e-9 for a, b in zip(advantages, shifted))
    assert group_advantages([1.3] * 8) == [0.0] * 8
    _passline(6, "advantage-standardization (1000 groups)")


def test_07_objective():
    rng = random.Random(1007)
    for _ in range(10_000):
        n = rng.randrange(1, 12)
        pol = [rng.uniform(-20, 0) for _ in range(n)]
        ref = [rng.uniform(-20, 0) for _ in range(n)]
        rec = LogProbRecord(pol, pol, ref)
        assert kl_estimate(rec, KlMode.K3) >= 0.0

    records = [
        LogProbRecord(
            [rng.uniform(-5, 0) for _ in range(6)],
            [rng.uniform(-5, 0) for _ in range(6)],
            [rng.uniform(-5, 0) for _ in range(6)],
        )
        for _ in range(5)
    ]
    advantages = [rng.uniform(-2, 2) for _ in range(5)]
    j0 = grpo_objective(records, advantages, beta=0.0)
    j1 = grpo_objective(records, advantages, beta=1.0)
    jmid = grpo_objective(records, advantages, beta=0.5)
    assert abs(jmid - (j0 + j1) / 2) < 1e-9

    neutral = [LogProbRecord([-1.0, -2.0], [-1.0, -2.0], [-1.0, -2.0])] * 3
    assert grpo_objective(neutral, [0.0, 0.0, 0.0], beta=0.2) == 0.0
    _passline(7, "objective (k3 >= 0 on 10000, affine in beta, neutral = 0)")


def test_08_metrics_oracle():
    dataset = EvalDataset(
        (EvalImage("img0", GroundTruthSet.from_pairs([("cat", Box(0, 0, 10, 10))], SPACE)),),
        ("cat",),
    )
    result = evaluate({"img0": [("cat", Box(0, 0, 10, 6))]}, dataset)
    assert result.map_5095 == 0.2
    assert result.ap50 == 1.0
    assert result.ap75 == 0.0

    rng = random.Random(1008)
    scenes_checked = 0
    while scenes_checked < 200:
        n_images = rng.randrange(1, 6)
        scenes = []
        predictions = {}
        for i in range(n_images):
            image_id = f"img{i}"
            gts = [
                (rng.choice(LABELS), random_int_box(rng))
                for _ in range(rng.randrange(0, 11))
            ]
            scenes.append((image_id, gts))
            preds = []
            for label, box in gts:
                roll = rng.random()
                if roll < 0.3:
                    continue
                if roll < 0.6:
                    preds.append((label, box))
                else:
                    moved = Box(
                        min(max(0.0, box.x1 + rng.uniform(-9, 9)), 630.0),
                        min(max(0.0, box.y1 + rng.uniform(-9, 9)), 470.0),
                        0.0,
                        0.0,
                    )
                    moved = Box(
                        moved.x1,
                        moved.y1,
                        min(640.0, max(moved.x1 + 1.0, box.x2 + rng.uniform(-9, 9))),
                        min(480.0, max(moved.y1 + 1.0, box.y2 + rng.uniform(-9, 9))),
                    )
                    preds.append((label, moved))
            for _ in range(rng.randrange(0, 3)):
                preds.append((rng.choice(LABELS), random_int_box(rng)))
            rng.shuffle(preds)
            predictions[image_id] = preds
        if not any(gts for _, gts in scenes):
            continue
        scenes_checked += 1
        dataset = EvalDataset(
            tuple(
                EvalImage(image_id, GroundTruthSet.from_pairs(gts, SPACE))
                for image_id, gts in scenes
            ),
            tuple(sorted({label for _, gts in scenes for label, _ in gts})),
        )
        mine = evaluate(predictions, dataset)
        reference = reference_evaluate(
            {
                image_id: [(label, box.coords()) for label, box in preds]
                for image_id, preds in predictions.items()
            },
            [(image_id, [(label, b.coords()) for label, b in gts]) for image_id, gts in scenes],
            IOU_THRESHOLDS,
        )
        assert abs(mine.map_5095 - reference["map"]) < 1e-6
        assert abs(mine.ap50 - reference["ap50"]) < 1e-6
        assert abs(mine.ap75 - reference["ap75"]) < 1e-6
        assert abs(mine.ar100 - reference["ar100"]) < 1e-6
    _passline(8, "metrics-oracle (200 scenes at 1e-6, worked example exact)")


def test_09_parser_golden_and_round_trip():
    structured = plain = 0
    for case in GOLDEN_CASES:
        outcome = parse_completion(case["text"], _format_for(case), _space_for(case))
        assert outcome.template_ok == case["template_ok"], case["name"]
        assert outcome.content_ok == case["content_ok"], case["name"]
        got = [
            {"label": p.label, "coords": list(p.coords), "box_valid": p.box_valid}
            for p in outcome.predictions
        ]
        assert got == case["predictions"], case["name"]
        structured += case["format"] == "structured"
        plain += case["format"] == "plain"
    assert structured >= 30 and plain >= 30

    rng = random.Random(1009)
    for trial in range(1000):
        n = rng.randrange(0, 7)
        labels = [rng.choice(LABELS) for _ in range(n)]
        if trial % 2 == 0:
            objects = [(label, random_box(rng)) for label in labels]
            text = emit_structured(objects)
            outcome = parse_completion(text, FormatKind.STRUCTURED, SPACE)
        else:
            objects = [(label, random_int_box(rng, 1000, 1000)) for label in labels]
            text = emit_plain(objects)
            outcome = parse_completion(text, FormatKind.PLAIN, thousandths_space(640, 480))
        assert outcome.template_ok and outcome.content_ok
        assert extract_objects(outcome) == objects
    _passline(9, f"parser ({structured}+{plain} golden cases, 1000 round trips)")


def test_10_reward_shaping_directional():
    rng = random.Random(1010)
    gt_pairs = [(LABELS[i % 3], random_int_box(rng)) for i in range(4)]
    gt = GroundTruthSet.from_pairs(gt_pairs, SPACE)

    def overlap_box(box: Box, fraction: float) -> Box:
        # shrink the box heightwise so IoU with the original equals `fraction`
        return Box(box.x1, box.y1, box.x2, box.y1 + (box.y2 - box.y1) * fraction)

    # (a) covering more instances scores strictly higher recall
    def completion_covering(k: int) -> str:
        return emit_structured([(label, box) for label, box in gt_pairs[:k]])

    beginner = BEGINNER_THRESHOLDS
    rec2 = recall_reward(match(extract_objects(parse_completion(completion_covering(2), FormatKind.STRUCTURED, SPACE)), gt), 4, beginner)
    rec3 = recall_reward(match(extract_objects(parse_completion(completion_covering(3), FormatKind.STRUCTURED, SPACE)), gt), 4, beginner)
    assert rec3 > rec2

    # (b) all-IoU-0.7 boxes score strictly lower under the advanced phase
    moderate = emit_structured([(label, overlap_box(box, 0.7)) for label, box in gt_pairs])
    early = score_completion(moderate, FormatKind.STRUCTURED, SPACE, gt, progress=0.0)
    late = score_completion(moderate, FormatKind.STRUCTURED, SPACE, gt, progress=1.0)
    assert late.total < early.total
    assert late.recall == 0.0 and early.recall == 1.0

    # (c) disabling recall moves the argmax from high-recall to high-IoU
    high_recall = emit_structured([(label, overlap_box(box, 0.6)) for label, box in gt_pairs])
    high_iou = emit_structured([(label, overlap_box(box, 0.92)) for label, box in gt_pairs[:2]])
    full = RewardRules()
    precision_only = RewardRules(use_recall=False)
    candidates = {"high_recall": high_recall, "high_iou": high_iou}

    def best(rules: RewardRules) -> str:
        scores = {
            name: score_completion(
                text, FormatKind.STRUCTURED, SPACE, gt, progress=0.0, rules=rules
            ).total
            for name, text in candidates.items()
        }
        return max(scores, key=scores.get)

    assert best(full) == "high_recall"
    assert best(precision_only) == "high_iou"
    _passline(10, "reward-shaping-directional (recall up, stricter phase down, argmax shift)")


def test_11_service_protocol_and_batch_speed(tmp_path):
    rng = random.Random(1011)
    lines = []
    expected = []  # (kind, request_id or None)
    for i in range(1000):
        if rng.random() < 0.10:
            lines.append(rng.choice(['{"v":', "garbage{", "[1,2", '{"request_id": }']))
            expected.append(("error", None))
        else:
            request_id = f"req-{i}"
            gts = [(rng.choice(LABELS), random_int_box(rng)) for _ in range(rng.randrange(1, 4))]
            completions = [
                emit_structured([(label, box) for label, box in gts]),
                emit_structured([(label, box) for label, box in gts[:1]]),
                "junk",
            ]
            lines.append(
                json.dumps(
                    make_request_dict(
                        request_id=request_id,
                        completions=completions,
                        gt=[{"label": l, "bbox": list(b.coords())} for l, b in gts],
                    )
                )
            )
            expected.append(("ok", request_id))
    out = io.StringIO()
    code = run_service(EngineConfig(), stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out)
    assert code == 0
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(responses) == 1000
    for response, (kind, request_id) in zip(responses, expected):
        if kind == "ok":
            assert response["ok"], response
            assert response["request_id"] == request_id
        else:
            assert not response["ok"]

    started = time.time()
    report = run_batch(FIXTURES / "manifest.jsonl", tmp_path / "out")
    elapsed = time.time() - started
    assert elapsed < 10.0
    golden = json.loads((FIXTURES / "golden_eval.json").read_text())
    assert abs(report["eval"]["map_5095"] - golden["map_5095"]) < 1e-6
    assert abs(report["eval"]["ar100"] - golden["ar100"]) < 1e-6
    assert report["errors"] == []
    _passline(11, f"service-protocol (1000 requests, batch {elapsed:.2f}s, golden eval)")


def test_12_curation(tmp_path):
    out_a = tmp_path / "mix_a.jsonl"
    out_b = tmp_path / "mix_b.jsonl"
    for out in (out_a, out_b):
        code = cli_main(
            [
                "curate",
                "--corpus",
                str(FIXTURES / "corpus.jsonl"),
                "--det", "30", "--grounding", "9", "--rec", "10",
                "--seed", "42",
                "--out", str(out),
            ]
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    entries = [json.loads(line) for line in out_a.read_text().splitlines()]
    by_task = {}
    for entry in entries:
        by_task.setdefault(entry["task"], []).append(entry)
    assert len(by_task["object-detection"]) == 30
    assert len(by_task["visual-grounding"]) == 9
    assert len(by_task["rec"]) == 10
    for task, want in (("object-detection", 30), ("visual-grounding", 9), ("rec", 10)):
        hard = sum(1 for e in by_task[task] if e["difficulty"] == "hard")
        assert abs(hard - want * 0.5) <= 1.0 + 1e-9, (task, hard)
        negative = sum(1 for e in by_task[task] if e["is_negative"])
        assert abs(negative - want * 0.1) <= 1.0 + 1e-9, (task, negative)
        for entry in by_task[task]:
            assert entry["prompt"]
    _passline(12, "curation (30/9/10 mixture, byte-identical, strata within 1)")
