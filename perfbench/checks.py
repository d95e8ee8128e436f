"""Output checks: each response against its plan, small assignments against
the exhaustive oracle, and batch evaluation against the reference metrics.

Every check returns a problem description, or None / an empty list when the
output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracles  # tests/oracles.py: independent slow reference implementations
from locscore.geometry import Box, pixel_space
from locscore.harness import batch
from locscore.matching import GroundTruthSet, MatcherPolicy, match
from workloads import Plan

TOLERANCE = 1e-9


def _iou_grid() -> list[float]:
    """The ten IoU thresholds 0.5..0.95, built by repeated 0.05 addition."""
    grid = [0.5]
    for _ in range(9):
        grid.append(grid[-1] + 0.05)
    return grid


def check_response(resp: dict, plan: Plan) -> str | None:
    """Compare one decoded response with what a correct engine answers."""
    if resp.get("request_id") != plan.request_id:
        return f"request_id {resp.get('request_id')!r}, expected {plan.request_id!r}"
    if plan.kind != "ok":
        kind = resp.get("error", {}).get("kind") if not resp.get("ok") else "ok"
        return None if kind == plan.kind else f"{plan.request_id}: answered {kind}, expected {plan.kind}"
    if not resp.get("ok"):
        return f"{plan.request_id}: error {resp.get('error')}, expected ok"
    rewards = resp["rewards"]
    if len(rewards) != len(plan.m) or resp["totals"] != [r["total"] for r in rewards]:
        return f"{plan.request_id}: {len(rewards)} rewards for {len(plan.m)} completions"
    for index, (r, m, dual) in enumerate(zip(rewards, plan.m, plan.dual)):
        where = f"{plan.request_id}[{index}]"
        parts = (r["dual_format"], r["recall"], r["precision"])
        if not all(0.0 <= v <= 1.0 for v in parts):
            return f"{where}: component outside [0, 1]: {r}"
        if abs(r["total"] - sum(parts)) > 1e-12:
            return f"{where}: total {r['total']} is not the sum of {parts}"
        if r["m_predictions"] != m or r["n_gt"] != plan.n_gt:
            return f"{where}: m={r['m_predictions']} n_gt={r['n_gt']}, expected m={m} n_gt={plan.n_gt}"
        if r["dual_format"] != dual:
            return f"{where}: dual_format {r['dual_format']}, expected {dual}"
        if not 0 <= r["n_valid"] <= min(m, plan.n_gt):
            return f"{where}: n_valid {r['n_valid']} exceeds min(m, n_gt)"
    phase = "advanced" if plan.advanced else "beginner"
    if resp["thresholds"]["phase"] != phase:
        return f"{plan.request_id}: phase {resp['thresholds']['phase']}, expected {phase}"
    advantages = resp["advantages"]
    if not plan.want_advantages:
        return None if advantages is None else f"{plan.request_id}: advantages not requested"
    if advantages is None or len(advantages) != len(plan.m) or not all(map(math.isfinite, advantages)):
        return f"{plan.request_id}: bad advantages {advantages}"
    if abs(math.fsum(advantages)) > 1e-6 * len(advantages):
        return f"{plan.request_id}: advantages do not sum to zero"
    if (resp["objective"] is not None) != plan.has_logprobs:
        return f"{plan.request_id}: objective {resp['objective']} with logprobs={plan.has_logprobs}"
    return None


def check_assignments(cases) -> list[str]:
    """The matcher's assignment cost must equal the exhaustive optimum."""
    problems = []
    for preds, gt_pairs, w, h, matcher in cases:
        policy = MatcherPolicy(matcher)
        gt = GroundTruthSet.from_pairs([(label, Box(*map(float, box))) for label, box in gt_pairs], pixel_space(w, h))
        objects = [(" ".join(label.split()), Box(*map(float, box))) for label, box in preds]
        cost = np.array([
            [
                1.0 - oracles.iou_xyxy(box.coords(), inst.box.coords())
                + (policy is MatcherPolicy.BOX_AND_LABEL and oracles._norm(label) != oracles._norm(inst.label))
                for inst in gt.instances
            ]
            for label, box in objects
        ])
        pairs = [(i, m.gt_index) for i, m in enumerate(match(objects, gt, policy)) if m.gt_index is not None]
        got = oracles.assignment_total(cost, pairs)
        best = oracles.min_assignment_cost(cost)
        if len(pairs) != min(cost.shape) or abs(got - best) > TOLERANCE:
            problems.append(f"assignment cost {got} with {len(pairs)} pairs, optimum {best} ({cost.shape})")
    return problems


def check_evaluation(report: dict, images, finals) -> list[str]:
    """run_batch's evaluation must agree with the textbook reference."""
    if "eval" not in report:
        return [f"no evaluation in the batch report: {report.get('eval_error')}"]
    expected = oracles.reference_evaluate(finals, images, _iou_grid())
    got = report["eval"]
    return [
        f"eval {key}: {got[key]} != reference {expected[ref]}"
        for key, ref in (("map_5095", "map"), ("ap50", "ap50"), ("ap75", "ap75"), ("ar100", "ar100"))
        if abs(got[key] - expected[ref]) > TOLERANCE
    ]


def check_golden(root: Path, out_dir: Path) -> list[str]:
    """run_batch on the bundled fixture manifest reproduces the golden metrics."""
    report = batch.run_batch(root / "fixtures" / "manifest.jsonl", out_dir)
    golden = json.loads((root / "fixtures" / "golden_eval.json").read_text())
    problems = [f"fixture manifest errors: {report['errors']}"] if report["errors"] else []
    problems += [
        f"golden {key}: {report['eval'][key]} != {value}"
        for key, value in golden.items()
        if abs(report["eval"][key] - value) > 1e-6
    ]
    return problems
