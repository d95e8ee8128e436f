"""Batch scoring over a manifest file, with an aggregate report.

A manifest is request JSONL (same schema as the streaming service) where an
entry may additionally carry ``"final": true`` to mark its first completion
as the image's final prediction; those entries feed the detection-metrics
evaluation included in the report.

Lines are decoded and checked one at a time, and their groups go to the
group kernel in blocks of ``BLOCK_GROUPS``, so the kernel's fixed array cost
is paid once per block; the output is the same as scoring line by line.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import IO, Any, Iterator

from ..config import DEFAULT_CONFIG, EngineConfig
from ..errors import EngineError
from ..fields import read_field
from ..geometry import to_space  # looked up by perfbench/tracing.py
from ..metrics import EvalImage, evaluate_objects
from ..metrics import evaluate  # looked up by perfbench/tracing.py
from ..parsing import parse_completion  # looked up by perfbench/tracing.py
from ..rewards import RewardBreakdown, score_groups
from .annotations import dataset_from_images, write_jsonl
from .engine import decode_line, group_response, request_group, score_group
from .wire import ScoringRequest, ScoringResponse, eval_to_dict, parse_request, response_to_dict
from .wire import dump_line  # looked up by perfbench/tracing.py

log = logging.getLogger(__name__)

# most groups the kernel scores in one call; the kernel itself bounds the
# size of the matrices it builds at once (rewards.BLOCK_CELLS)
BLOCK_GROUPS = 64

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


def _internal_error(lineno: int, exc: Exception) -> str:
    log.exception("manifest line %d failed", lineno)
    return f"internal error: {type(exc).__name__}: {exc}"


def _scored_block(
    pending: list[tuple], config: EngineConfig
) -> Iterator[tuple[int, str | tuple[ScoringRequest, bool, ScoringResponse]]]:
    """Score the groups of ``pending`` lines in one kernel call; yield each line's outcome in order.

    A line's outcome is its error text, or its request, ``final`` flag and
    response. When the kernel call raises, each group is scored alone
    instead, so that a fault lands on its own line.
    """
    groups = [entry[3] for entry in pending if len(entry) == 4]
    try:
        scored = iter(score_groups(groups, config.rules))
    except Exception:
        log.exception("a block of %d groups failed; scoring them one at a time", len(groups))
        scored = None
    for lineno, *entry in pending:
        if len(entry) == 1:
            yield lineno, entry[0]
            continue
        request, final, group = entry
        try:
            if scored is None:
                response = score_group(request, config)
            else:
                response = group_response(request, config, group, next(scored))
        except EngineError as exc:
            yield lineno, str(exc)
        except Exception as exc:  # a fault in the engine itself; the batch goes on
            yield lineno, _internal_error(lineno, exc)
        else:
            yield lineno, (request, final, response)


def _scored_lines(
    handle: IO[str], config: EngineConfig
) -> Iterator[tuple[int, str | tuple[ScoringRequest, bool, ScoringResponse]]]:
    """Each non-blank manifest line's number and outcome (see ``_scored_block``), in line order."""
    pending: list[tuple] = []  # (line, error) or (line, request, final, group)
    groups = 0
    for lineno, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = decode_line(line)
        except ValueError as exc:
            pending.append((lineno, f"invalid JSON: {exc}"))
            continue
        try:
            request = parse_request(data)
            final = read_field(data, "final", bool, False)
            pending.append((lineno, request, final, request_group(request, config)))
        except EngineError as exc:
            pending.append((lineno, str(exc)))
            continue
        except Exception as exc:  # a fault in the engine itself; the batch goes on
            pending.append((lineno, _internal_error(lineno, exc)))
            continue
        groups += 1
        if groups == BLOCK_GROUPS:
            yield from _scored_block(pending, config)
            pending, groups = [], 0
    yield from _scored_block(pending, config)


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
        for lineno, outcome in _scored_lines(handle, config):
            if isinstance(outcome, str):
                errors.append({"line": lineno, "error": outcome})
                continue
            request, final, response = outcome
            responses.append(response_to_dict(response))
            breakdowns.extend(response.rewards)
            if not final:
                continue
            sample = request.sample
            if sample.image_id in final_objects:
                errors.append(
                    {"line": lineno, "error": f"duplicate final entry for image {sample.image_id}"}
                )
                continue
            eval_images.append(EvalImage(sample.image_id, sample.gt.space, sample.gt))
            final_objects[sample.image_id] = response.rewards[0].objects

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
            result = evaluate_objects(list(final_objects.values()), dataset_from_images(eval_images))
        except ValueError as exc:
            report["eval_error"] = str(exc)
        else:
            report["eval"] = eval_to_dict(result)

    write_jsonl(output_dir / "responses.jsonl", responses)
    with open(output_dir / "report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report
