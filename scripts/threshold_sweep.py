#!/usr/bin/env python3
"""Sweep training progress and show how the threshold schedule reshapes rewards.

A fixed completion whose boxes all sit at IoU 0.7 earns full recall and a
0.7-per-box precision in the beginner phase, then collapses once the advanced
thresholds activate: the schedule stops paying for boxes the model should
have outgrown.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from locscore import Box, GroundTruthSet, PhaseConfig, pixel_space, score_completion
from locscore.parsing import FormatKind, emit_structured
from locscore.rewards import phase_thresholds

SPACE = pixel_space(640, 480)


def overlap_box(box: Box, fraction: float) -> Box:
    return Box(box.x1, box.y1, box.x2, box.y1 + (box.y2 - box.y1) * fraction)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=12, help="progress samples in [0, 1]")
    parser.add_argument("--iou", type=float, default=0.7, help="box quality of the probe")
    parser.add_argument(
        "--step-fraction", type=float, nargs="*", default=[1 / 3, 1 / 2, 1.0]
    )
    args = parser.parse_args()

    gt_pairs = [
        ("person", Box(40, 40, 200, 240)),
        ("car", Box(260, 120, 460, 300)),
        ("dog", Box(480, 300, 600, 440)),
    ]
    gt = GroundTruthSet.from_pairs(gt_pairs, SPACE)
    probe = emit_structured([(label, overlap_box(box, args.iou)) for label, box in gt_pairs])

    for step in args.step_fraction:
        cfg = PhaseConfig(step_fraction=step)
        print(f"\nstep_fraction = {step:.4g}")
        print(f"{'progress':>9} {'xi0':>5} {'xi1':>5} {'xi2':>5} "
              f"{'recall':>7} {'precision':>9} {'total':>7}")
        for k in range(args.steps + 1):
            progress = k / args.steps
            thresholds = phase_thresholds(cfg, progress)
            b = score_completion(
                probe, FormatKind.STRUCTURED, SPACE, gt, cfg=cfg, progress=progress
            )
            print(
                f"{progress:9.3f} {thresholds.xi0:5.2f} {thresholds.xi1:5.2f} "
                f"{thresholds.xi2:5.2f} {b.recall:7.3f} {b.precision:9.3f} {b.total:7.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
