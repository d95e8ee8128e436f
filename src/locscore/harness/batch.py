"""Batch scoring over a manifest file, with an aggregate report.

A manifest is request JSONL (same schema as the streaming service) where an
entry may additionally carry ``"final": true`` to mark its first completion
as the image's final prediction; those entries feed the detection-metrics
evaluation included in the report. The lines go through the service's own
pipeline, ``engine.score_requests``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..config import DEFAULT_CONFIG, EngineConfig
from ..geometry import to_space  # looked up by perfbench/tracing.py
from ..metrics import EvalImage, evaluate_objects
from ..metrics import evaluate  # looked up by perfbench/tracing.py
from ..parsing import parse_completion  # looked up by perfbench/tracing.py
from ..rewards import RewardBreakdown
from ..sums import left_sum
from .annotations import dataset_from_images, write_jsonl
from .engine import decoded, score_requests
from .engine import score_group  # looked up by perfbench/tracing.py
from .wire import ScoringResponse, eval_to_dict, response_to_dict
from .wire import dump_line, parse_request  # looked up by perfbench/tracing.py

HISTOGRAM_BINS = 12
HISTOGRAM_MAX = 3.0

# an error outcome's text in the report's ``errors``, by kind
ERROR_TEXT = {
    "parse-error": "invalid JSON: {}",
    "malformed-request": "{}",
    "scoring-error": "{}",
    "internal-error": "internal error: {}",
}


def _histogram(totals: list[float]) -> dict[str, int]:
    width = HISTOGRAM_MAX / HISTOGRAM_BINS
    counts = [0] * HISTOGRAM_BINS
    for value in totals:
        index = min(int(value / width), HISTOGRAM_BINS - 1)
        counts[index] += 1
    return {
        f"[{i * width:.2f},{(i + 1) * width:.2f})": counts[i] for i in range(HISTOGRAM_BINS)
    }


def _mean(values: list[float]) -> float:
    return left_sum(values) / len(values) if values else 0.0


def run_batch(
    manifest_path: str | Path,
    output_dir: str | Path,
    config: EngineConfig | None = None,
) -> dict[str, Any]:
    """Score every manifest group; write responses and a summary report.

    Missing input files are fatal; per-entry faults are collected into the
    report and do not stop the run.
    """
    manifest_path = Path(manifest_path)
    output_dir = Path(output_dir)
    if not manifest_path.exists():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    output_dir.mkdir(parents=True, exist_ok=True)
    config = config or DEFAULT_CONFIG

    responses: list[dict[str, Any]] = []
    errors: list[dict[str, Any]] = []
    breakdowns: list[RewardBreakdown] = []
    eval_images: list[EvalImage] = []
    final_objects: dict[str, tuple] = {}

    with open(manifest_path, "r", encoding="utf-8") as handle:
        lines = [(lineno, text) for lineno, line in enumerate(handle, start=1) if (text := line.strip())]
    outcomes = score_requests((decoded(text) for _, text in lines), config)
    for (lineno, _), (request, outcome) in zip(lines, outcomes):
        if not isinstance(outcome, ScoringResponse):
            kind, detail = outcome
            errors.append({"line": lineno, "error": ERROR_TEXT[kind].format(detail)})
            continue
        responses.append(response_to_dict(outcome))
        breakdowns.extend(outcome.rewards)
        if not request.final:
            continue
        sample = request.sample
        if sample.image_id in final_objects:
            errors.append({"line": lineno, "error": f"duplicate final entry for image {sample.image_id}"})
            continue
        eval_images.append(sample)
        final_objects[sample.image_id] = outcome.rewards[0].objects

    totals = [b.total for b in breakdowns]
    report: dict[str, Any] = {
        "groups": len(responses),
        "completions": len(breakdowns),
        "errors": errors,
        "format_failure_rate": _mean([b.dual_format == 0.0 for b in breakdowns]),
        "mean_total": _mean(totals),
        "mean_recall": _mean([b.recall for b in breakdowns]),
        "mean_precision": _mean([b.precision for b in breakdowns]),
        "reward_histogram": _histogram(totals),
    }
    if eval_images:
        # raises nothing: one detection set per image, under unique ids, the
        # categories are the images' own labels, and the kernel keeps only
        # boxes valid in their ground truth's space, which is the image's
        result = evaluate_objects(list(final_objects.values()), dataset_from_images(eval_images))
        report["eval"] = eval_to_dict(result)

    write_jsonl(output_dir / "responses.jsonl", responses)
    with open(output_dir / "report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report
