"""Batch scoring over a manifest file, with an aggregate report.

A manifest is request JSONL (same schema as the streaming service) where an
entry may additionally carry ``"final": true`` to mark its first completion
as the image's final prediction; those entries feed the detection-metrics
evaluation included in the report.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..config import EngineConfig
from ..errors import EngineError, MalformedRequestError
from ..geometry import CoordinateSpace, to_space  # to_space: looked up by perfbench/tracing.py
from ..metrics import EvalImage, evaluate
from ..parsing import default_format
from ..parsing import parse_completion  # looked up by perfbench/tracing.py
from ..rewards import completion_objects
from .annotations import dataset_from_images
from .engine import score_group
from .wire import dump_line, parse_request, response_to_dict

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
    totals: list[float] = []
    recalls: list[float] = []
    precisions: list[float] = []
    completions_seen = 0
    format_failures = 0
    eval_images: list[EvalImage] = []
    final_predictions: dict[str, list] = {}

    with open(manifest_path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append({"line": lineno, "error": f"invalid JSON: {exc.msg}"})
                continue
            except RecursionError:
                errors.append({"line": lineno, "error": "invalid JSON: nesting too deep"})
                continue
            except ValueError:  # an integer literal over the interpreter's digit limit
                errors.append({"line": lineno, "error": "invalid JSON: number too long"})
                continue
            final = bool(data.pop("final", False)) if isinstance(data, dict) else False
            try:
                request = parse_request(data)
                response = score_group(request, config)
            except (MalformedRequestError, EngineError) as exc:
                errors.append({"line": lineno, "error": str(exc)})
                continue
            responses.append(response_to_dict(response))
            for breakdown in response.rewards:
                completions_seen += 1
                totals.append(breakdown.total)
                recalls.append(breakdown.recall)
                precisions.append(breakdown.precision)
                if breakdown.dual_format == 0.0:
                    format_failures += 1
            if final:
                if request.sample.image_id in final_predictions:
                    errors.append(
                        {
                            "line": lineno,
                            "error": f"duplicate final entry for image {request.sample.image_id}",
                        }
                    )
                    continue
                fmt = request.format or default_format(config.completion_format)
                space = CoordinateSpace(
                    fmt.space_kind, request.sample.space.width, request.sample.space.height
                )
                _, objects = completion_objects(
                    request.completions[0], fmt, space, request.sample.space
                )
                eval_images.append(
                    EvalImage(request.sample.image_id, request.sample.space, request.sample.gt)
                )
                final_predictions[request.sample.image_id] = objects

    report: dict[str, Any] = {
        "groups": len(responses),
        "completions": completions_seen,
        "errors": errors,
        "format_failure_rate": (format_failures / completions_seen) if completions_seen else 0.0,
        "mean_total": (sum(totals) / len(totals)) if totals else 0.0,
        "mean_recall": (sum(recalls) / len(recalls)) if recalls else 0.0,
        "mean_precision": (sum(precisions) / len(precisions)) if precisions else 0.0,
        "reward_histogram": _histogram(totals),
    }
    if eval_images:
        try:
            result = evaluate(final_predictions, dataset_from_images(eval_images))
        except (EngineError, ValueError) as exc:
            report["eval_error"] = str(exc)
        else:
            report["eval"] = {
                "map_5095": result.map_5095,
                "ap50": result.ap50,
                "ap75": result.ap75,
                "ar100": result.ar100,
                "ap_per_iou": {f"{t:.2f}": v for t, v in result.ap_per_iou.items()},
                "diagnostics": list(result.diagnostics),
            }

    with open(output_dir / "responses.jsonl", "w", encoding="utf-8") as handle:
        for response_dict in responses:
            handle.write(dump_line(response_dict))
            handle.write("\n")
    with open(output_dir / "report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report
