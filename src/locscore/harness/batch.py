"""Batch scoring over a manifest file, with an aggregate report.

A manifest is request JSONL (same schema as the streaming service) where an
entry may additionally carry ``"final": true`` to mark its first completion
as the image's final prediction; those entries feed the detection-metrics
evaluation included in the report.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Any

from ..config import EngineConfig
from ..errors import EngineError
from ..fields import read_field
from ..geometry import Box
from ..geometry import to_space  # looked up by perfbench/tracing.py
from ..metrics import EvalImage, evaluate
from ..parsing import parse_completion  # looked up by perfbench/tracing.py
from ..rewards import RewardBreakdown
from .annotations import dataset_from_images
from .engine import decode_line, score_group
from .wire import dump_line, eval_to_dict, parse_request, response_to_dict

log = logging.getLogger(__name__)

HISTOGRAM_BINS = 12
HISTOGRAM_MAX = 3.0


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
    return sum(values) / len(values) if values else 0.0


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
    config = config or EngineConfig()

    responses: list[dict[str, Any]] = []
    errors: list[dict[str, Any]] = []
    breakdowns: list[RewardBreakdown] = []
    eval_images: list[EvalImage] = []
    final_predictions: dict[str, list] = {}

    with open(manifest_path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = decode_line(line)
            except ValueError as exc:
                errors.append({"line": lineno, "error": f"invalid JSON: {exc}"})
                continue
            try:
                request = parse_request(data)
                final = read_field(data, "final", bool, False)
                response = score_group(request, config)
            except EngineError as exc:
                errors.append({"line": lineno, "error": str(exc)})
                continue
            except Exception as exc:  # a fault in the engine itself; the batch goes on
                log.exception("manifest line %d failed", lineno)
                detail = f"internal error: {type(exc).__name__}: {exc}"
                errors.append({"line": lineno, "error": detail})
                continue
            responses.append(response_to_dict(response))
            breakdowns.extend(response.rewards)
            if not final:
                continue
            sample = request.sample
            if sample.image_id in final_predictions:
                errors.append(
                    {"line": lineno, "error": f"duplicate final entry for image {sample.image_id}"}
                )
                continue
            eval_images.append(EvalImage(sample.image_id, sample.space, sample.gt))
            labels, boxes = response.rewards[0].objects
            final_predictions[sample.image_id] = [
                (label, Box(*coords)) for label, coords in zip(labels, boxes.tolist())
            ]

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
        try:
            result = evaluate(final_predictions, dataset_from_images(eval_images))
        except ValueError as exc:
            report["eval_error"] = str(exc)
        else:
            report["eval"] = eval_to_dict(result)

    with open(output_dir / "responses.jsonl", "w", encoding="utf-8") as handle:
        for response_dict in responses:
            handle.write(dump_line(response_dict))
            handle.write("\n")
    with open(output_dir / "report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report
