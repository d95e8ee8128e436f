"""Line-delimited JSON wire protocol between the engine and a trainer.

One request object per line in, one response object per line out; the scheme
is versioned through a ``"v": 1`` field. See ``docs/protocol.md`` for the
full schema.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..config import phase_from_dict, phase_to_dict
from ..curation import Sample, TaskKind
from ..errors import FieldError, MalformedRequestError, SpaceMismatchError
from ..fields import (
    REQUIRED, read_field, read_id, read_number_rows, read_number_table, read_numbers, read_strings,
)
from ..geometry import CoordinateSpace, SpaceKind
from ..grpo import LogProbRecord
from ..matching import GroundTruthInstance, GroundTruthSet, MatcherPolicy
from ..metrics import EvalImage, EvalResult
from ..parsing import FormatKind
from ..rewards import PhaseConfig, RewardBreakdown, ThresholdTriple

WIRE_VERSION = 1
_LOGPROB_SERIES = ("policy", "old", "ref")


@dataclass(frozen=True)
class ScoringRequest:
    request_id: str
    sample: EvalImage  # the wire's ``sample`` object, less its ``task``
    completions: tuple[str, ...]
    logprobs: tuple[LogProbRecord, ...] | None = None
    progress: float = 0.0
    format: FormatKind | None = None
    matcher: MatcherPolicy | None = None
    phase: PhaseConfig | None = None
    want_advantages: bool = True
    final: bool = False  # acted on only by batch scoring
    task: TaskKind = TaskKind.DETECTION  # on the wire, ``sample.task``


@dataclass(frozen=True)
class ScoringResponse:
    request_id: str
    rewards: tuple[RewardBreakdown, ...]
    advantages: tuple[float, ...] | None
    objective: float | None
    kl_values: tuple[float, ...] | None
    thresholds: ThresholdTriple
    phase_name: str
    diagnostics: tuple[str, ...] = ()


def object_array(data: Mapping[str, Any], key: str, default: Any = ()) -> list[Mapping[str, Any]]:
    """The array of objects ``data[key]``; absent means ``default``."""
    entries = read_field(data, key, list, default)
    # one kind check over the list; decoded JSON objects are all dicts
    if not set(map(type, entries)) <= {dict} and not all(isinstance(entry, Mapping) for entry in entries):
        raise FieldError(f"each {key} entry must be an object")
    return entries


def parse_space(data: Mapping[str, Any]) -> CoordinateSpace:
    """``width``, ``height`` and the optional ``coord_space`` (default pixels)."""
    return CoordinateSpace(
        read_field(data, "coord_space", SpaceKind, SpaceKind.PIXELS),
        read_field(data, "width", int),
        read_field(data, "height", int),
    )


def parse_objects(data: Mapping[str, Any], key: str) -> tuple[list[str], np.ndarray]:
    """The optional ``[{"label", "bbox"}]`` array ``data[key]``: its labels, and its boxes as (n, 4) float64.

    The labels are checked by one kind check over the list and the boxes by
    one ``read_number_rows``; only when a check fails are the entries read
    one by one, to name the first bad one, label before box.
    """
    entries = object_array(data, key)
    labels = [entry.get("label") for entry in entries]
    flat = read_number_rows(entries, "bbox", 4)
    if flat is None or not set(map(type, labels)) <= {str}:
        for entry in entries:
            read_field(entry, "label", str)
            read_numbers(entry, "bbox", 4)
    return labels, np.array(flat, dtype=float).reshape(-1, 4)


def objects_to_list(instances: Iterable[GroundTruthInstance]) -> list[dict[str, Any]]:
    """Ground-truth instances as the array ``parse_objects`` reads."""
    return [{"label": inst.label, "bbox": list(inst.box.coords())} for inst in instances]


def parse_sample(data: Mapping[str, Any]) -> tuple[EvalImage, TaskKind]:
    """A ``sample`` object: its image with ground truth, and its ``task``."""
    image = _sample_image(data)
    image.gt._check()
    return image, read_field(data, "task", TaskKind, TaskKind.DETECTION)


def _sample_image(data: Mapping[str, Any]) -> EvalImage:
    """A ``sample`` object's image, its ground truth not yet checked against its space."""
    image_id = read_id(data, "image_id")
    space = parse_space(data)
    return EvalImage(image_id, GroundTruthSet._unchecked(*parse_objects(data, "gt"), space))


def sample_to_dict(sample: EvalImage | Sample, task: TaskKind) -> dict[str, Any]:
    """The object ``parse_sample`` reads back as ``sample`` and ``task``."""
    space = sample.gt.space
    return {
        "image_id": sample.image_id,
        "width": space.width,
        "height": space.height,
        "coord_space": space.kind.value,
        "task": task.value,
        "gt": objects_to_list(sample.gt.instances),
    }


def _parse_logprobs(data: Mapping[str, Any], n_completions: int) -> tuple[LogProbRecord, ...]:
    entries = object_array(data, "logprobs")
    if len(entries) != n_completions:
        raise MalformedRequestError("logprobs must be an array with one entry per completion")
    return tuple(map(_parse_record, entries))


def _parse_record(entry: Mapping[str, Any]) -> LogProbRecord:
    """One log-prob record, its three series converted and checked as a whole.

    Only when that check fails are the series read one by one, so the error
    names the same series and value as a series-by-series read would.
    """
    rows = read_number_table(entry, _LOGPROB_SERIES)
    if rows is None:
        return LogProbRecord(*(read_numbers(entry, key) for key in _LOGPROB_SERIES))
    return LogProbRecord.from_rows(rows)


def parse_request(data: Mapping[str, Any]) -> ScoringRequest:
    """Decode a request object; any fault in it is a ``MalformedRequestError``."""
    request = decode_request(data)
    try:
        request.sample.gt._check()
    except SpaceMismatchError as exc:
        raise MalformedRequestError(str(exc)) from None
    return request


def decode_request(data: Mapping[str, Any]) -> ScoringRequest:
    """``parse_request`` less its check of the ground-truth boxes against the image.

    The caller makes that check with ``matching.ground_truth_faults``, which
    the engine calls once for a block of requests. A fault in a field read
    after ``sample.gt`` is raised only once that ground truth has passed the
    check, so a bad box is still the fault named, as ``parse_request`` names it.
    """
    try:
        return _request_from_dict(data)
    except ValueError as exc:
        raise MalformedRequestError(str(exc)) from None


def _request_from_dict(data: Mapping[str, Any]) -> ScoringRequest:
    if not isinstance(data, Mapping):
        raise MalformedRequestError("request must be a JSON object")
    version = read_field(data, "v", int, WIRE_VERSION)
    if version != WIRE_VERSION:
        raise MalformedRequestError(f"unsupported wire version {version!r}")
    request_id = read_id(data, "request_id")
    sample_data = read_field(data, "sample", Mapping)
    sample = _sample_image(sample_data)
    try:
        task = read_field(sample_data, "task", TaskKind, TaskKind.DETECTION)
        completions = read_strings(data, "completions")
        if not completions:
            raise MalformedRequestError("completions must be a non-empty array of strings")
        progress = read_field(data, "progress", float, 0.0)
        if not 0 <= progress <= 1:
            raise MalformedRequestError(f"progress must lie in [0, 1], got {progress}")
        phase = data.get("phase")
        logprobs = data.get("logprobs")
        return ScoringRequest(
            request_id=request_id,
            sample=sample,
            completions=completions,
            logprobs=None if logprobs is None else _parse_logprobs(data, len(completions)),
            progress=progress,
            format=read_field(data, "format", FormatKind, None),
            matcher=read_field(data, "matcher", MatcherPolicy, None),
            phase=None if phase is None else phase_from_dict(phase),
            want_advantages=read_field(data, "advantages", bool, True),
            final=read_field(data, "final", bool, False),
            task=task,
        )
    except Exception:
        sample.gt._check()  # a bad box is named ahead of any fault read after it
        raise


def request_to_dict(req: ScoringRequest) -> dict[str, Any]:
    data: dict[str, Any] = {
        "v": WIRE_VERSION,
        "request_id": req.request_id,
        "sample": sample_to_dict(req.sample, req.task),
        "completions": list(req.completions),
        "progress": req.progress,
        "advantages": req.want_advantages,
    }
    if req.format is not None:
        data["format"] = req.format.value
    if req.matcher is not None:
        data["matcher"] = req.matcher.value
    if req.phase is not None:
        data["phase"] = phase_to_dict(req.phase)
    if req.logprobs is not None:
        data["logprobs"] = [
            {"policy": r.policy.tolist(), "old": r.old.tolist(), "ref": r.ref.tolist()}
            for r in req.logprobs
        ]
    if req.final:
        data["final"] = True
    return data


def breakdown_to_dict(breakdown: RewardBreakdown) -> dict[str, Any]:
    return {
        "dual_format": breakdown.dual_format,
        "recall": breakdown.recall,
        "precision": breakdown.precision,
        "total": breakdown.total,
        "m_predictions": breakdown.m_predictions,
        "n_gt": breakdown.n_gt,
        "n_valid": breakdown.n_valid,
    }


def response_to_dict(resp: ScoringResponse) -> dict[str, Any]:
    return {
        "v": WIRE_VERSION,
        "ok": True,
        "request_id": resp.request_id,
        "rewards": [breakdown_to_dict(b) for b in resp.rewards],
        "totals": [b.total for b in resp.rewards],
        "advantages": None if resp.advantages is None else list(resp.advantages),
        "objective": resp.objective,
        "kl": None if resp.kl_values is None else list(resp.kl_values),
        "thresholds": {
            "xi0": resp.thresholds.xi0,
            "xi1": resp.thresholds.xi1,
            "xi2": resp.thresholds.xi2,
            "phase": resp.phase_name,
        },
        "diagnostics": list(resp.diagnostics),
    }


def breakdown_from_dict(data: Mapping[str, Any]) -> RewardBreakdown:
    numbers = ("dual_format", "recall", "precision", "total")
    return RewardBreakdown(
        **{key: read_field(data, key, float) for key in numbers},
        **{key: read_field(data, key, int) for key in ("m_predictions", "n_gt", "n_valid")},
    )


def parse_response(data: Mapping[str, Any]) -> ScoringResponse:
    """Decode a success response; any fault in it is a ``MalformedRequestError``."""
    try:
        if read_field(data, "v", int, WIRE_VERSION) != WIRE_VERSION:
            raise MalformedRequestError(f"unsupported wire version {data['v']!r}")
        if not read_field(data, "ok", bool, False):
            raise MalformedRequestError("cannot decode an error response as a scoring response")
        thresholds = read_field(data, "thresholds", Mapping)
        xi = [read_field(thresholds, key, float) for key in ThresholdTriple._fields]
        return ScoringResponse(
            request_id=read_field(data, "request_id", str),
            rewards=tuple(map(breakdown_from_dict, object_array(data, "rewards", REQUIRED))),
            advantages=read_numbers(data, "advantages", default=None),
            objective=read_field(data, "objective", float, None),
            kl_values=read_numbers(data, "kl", default=None),
            thresholds=ThresholdTriple(*xi),
            phase_name=read_field(thresholds, "phase", str),
            diagnostics=read_strings(data, "diagnostics", ()),
        )
    except ValueError as exc:
        raise MalformedRequestError(str(exc)) from None


def eval_to_dict(result: EvalResult) -> dict[str, Any]:
    """Detection metrics as reported by ``locscore eval`` and the batch report."""
    return {
        "map_5095": result.map_5095,
        "ap50": result.ap50,
        "ap75": result.ap75,
        "ar100": result.ar100,
        "ap_per_iou": {f"{t:.2f}": v for t, v in result.ap_per_iou.items()},
        "diagnostics": list(result.diagnostics),
    }


def error_to_dict(request_id: str | None, kind: str, detail: str) -> dict[str, Any]:
    return {
        "v": WIRE_VERSION,
        "ok": False,
        "request_id": request_id,
        "error": {"kind": kind, "detail": detail},
    }


def dump_line(data: Mapping[str, Any]) -> str:
    return json.dumps(data, sort_keys=True)
