#!/usr/bin/env python3
"""Time one ``score_completion`` at a given size and print its wall time and memory peak.

The completion is one structured list of ``--boxes`` random integer boxes,
all labelled ``a``, on a 1000 x 1000 image, scored against ``--gt`` random
ground truths of the same label. The call runs once to warm up, then once
timed and once under ``tracemalloc``; the output is one line:

    python3 scripts/limits_probe.py --boxes 2000 --gt 5
    boxes=2000 gt=5 bytes=97558 time_ms=5.0 peak_mib=1.112
"""

from __future__ import annotations

import argparse
import random
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from locscore import Box, GroundTruthSet, pixel_space, score_completion  # noqa: E402
from locscore.parsing import FormatKind, emit_structured  # noqa: E402

SIDE = 1000


def random_boxes(rng: random.Random, n: int) -> list[Box]:
    boxes = []
    for _ in range(n):
        x1, y1 = rng.randrange(SIDE - 1), rng.randrange(SIDE - 1)
        boxes.append(Box(x1, y1, rng.randrange(x1 + 1, SIDE + 1), rng.randrange(y1 + 1, SIDE + 1)))
    return boxes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--boxes", type=int, required=True, help="predicted boxes in the completion")
    parser.add_argument("--gt", type=int, required=True, help="ground-truth boxes")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    space = pixel_space(SIDE, SIDE)
    gt = GroundTruthSet.from_pairs([("a", box) for box in random_boxes(rng, args.gt)], space)
    text = emit_structured([("a", box) for box in random_boxes(rng, args.boxes)])

    def score():
        return score_completion(text, FormatKind.STRUCTURED, space, gt)

    score()
    start = time.perf_counter()
    score()
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        score()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(
        f"boxes={args.boxes} gt={args.gt} bytes={len(text.encode('utf-8'))} "
        f"time_ms={elapsed * 1e3:.1f} peak_mib={peak / 2**20:.3f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
