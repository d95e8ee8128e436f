#!/usr/bin/env python3
"""Show the recall/precision trade-off across reward configurations.

Three candidate completions for the same four-object scene:

* high-recall — covers every object with mediocre (IoU 0.6) boxes;
* high-iou    — covers half the objects with excellent (IoU 0.92) boxes;
* flood       — covers every object, plus four junk boxes.

With the full reward the high-recall candidate wins; in precision-only mode
the high-IoU candidate takes over, and the flood candidate is always punished
through the precision denominator.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from locscore import Box, GroundTruthSet, pixel_space, score_completion
from locscore.parsing import FormatKind, emit_structured
from locscore.rewards import RewardRules

SPACE = pixel_space(640, 480)


def overlap_box(box: Box, fraction: float) -> Box:
    return Box(box.x1, box.y1, box.x2, box.y1 + (box.y2 - box.y1) * fraction)


def main() -> int:
    gt_pairs = [
        ("person", Box(40, 40, 200, 240)),
        ("car", Box(260, 120, 460, 300)),
        ("dog", Box(480, 300, 600, 440)),
        ("bench", Box(40, 300, 220, 420)),
    ]
    gt = GroundTruthSet.from_pairs(gt_pairs, SPACE)
    junk = [("person", Box(600, 0, 640, 40)), ("car", Box(0, 440, 40, 480)),
            ("dog", Box(600, 440, 640, 480)), ("bench", Box(0, 0, 40, 40))]

    candidates = {
        "high-recall": emit_structured(
            [(label, overlap_box(box, 0.6)) for label, box in gt_pairs]
        ),
        "high-iou": emit_structured(
            [(label, overlap_box(box, 0.92)) for label, box in gt_pairs[:2]]
        ),
        "flood": emit_structured(
            [(label, overlap_box(box, 0.6)) for label, box in gt_pairs] + junk
        ),
    }
    modes = {
        "full reward": RewardRules(),
        "precision-only": RewardRules(use_recall=False),
        "recall-only": RewardRules(use_precision=False),
    }

    for mode_name, rules in modes.items():
        print(f"\n{mode_name}")
        scores = {}
        for name, text in candidates.items():
            b = score_completion(text, FormatKind.STRUCTURED, SPACE, gt, rules=rules)
            scores[name] = b.total
            print(
                f"  {name:12s} dual={b.dual_format:.0f} recall={b.recall:.3f} "
                f"precision={b.precision:.3f} total={b.total:.3f}"
            )
        winner = max(scores, key=scores.get)
        print(f"  -> best completion: {winner}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
