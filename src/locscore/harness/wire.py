"""Line-delimited JSON wire protocol between the engine and a trainer.

One request object per line in, one response object per line out; the scheme
is versioned through a ``"v": 1`` field. See ``docs/protocol.md`` for the
full schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..config import phase_from_dict, phase_to_dict
from ..errors import MalformedRequestError
from ..geometry import Box, CoordinateSpace, SpaceKind
from ..grpo import LogProbRecord
from ..matching import GroundTruthSet
from ..metrics import EvalResult
from ..parsing import CompletionFormat, FormatKind, coerce_coords, default_format
from ..rewards import PhaseConfig, RewardBreakdown, ThresholdTriple

WIRE_VERSION = 1


@dataclass(frozen=True)
class SampleSpec:
    """The query side of a scoring request: image, space, ground truth."""

    image_id: str
    space: CoordinateSpace
    gt: GroundTruthSet
    task: str = "object-detection"


@dataclass(frozen=True)
class ScoringRequest:
    request_id: str
    sample: SampleSpec
    completions: tuple[str, ...]
    logprobs: tuple[LogProbRecord, ...] | None = None
    progress: float = 0.0
    format: CompletionFormat | None = None
    matcher: str | None = None
    phase: PhaseConfig | None = None
    want_advantages: bool = True


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


def require_field(data: Mapping[str, Any], key: str, kind: type | tuple[type, ...]) -> Any:
    """``data[key]`` if present and of ``kind``; a boolean is an int only when asked for."""
    if key not in data:
        raise MalformedRequestError(f"missing field {key!r}")
    value = data[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise MalformedRequestError(f"field {key!r} must be {'/'.join(k.__name__ for k in kinds)}")
    return value


def require_bbox(data: Mapping[str, Any]) -> tuple[float, float, float, float]:
    coords = coerce_coords(require_field(data, "bbox", list))
    if coords is None:
        raise MalformedRequestError("field 'bbox' must be an array of four finite numbers")
    return coords


def object_array(data: Mapping[str, Any], key: str) -> list[Mapping[str, Any]]:
    """The optional array of objects ``data[key]``; absent means empty."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise MalformedRequestError(f"{key} must be an array")
    if not all(isinstance(entry, Mapping) for entry in entries):
        raise MalformedRequestError(f"each {key} entry must be an object")
    return entries


def parse_id(data: Mapping[str, Any], key: str) -> str:
    """An identifier field: a JSON string or integer, as a string."""
    return str(require_field(data, key, (str, int)))


def parse_space(data: Mapping[str, Any]) -> CoordinateSpace:
    """``width``, ``height`` and the optional ``coord_space`` (default pixels)."""
    width = require_field(data, "width", int)
    height = require_field(data, "height", int)
    kind_raw = data.get("coord_space", SpaceKind.PIXELS.value)
    try:
        kind = SpaceKind(kind_raw)
    except ValueError as exc:
        raise MalformedRequestError(f"unknown coord_space {kind_raw!r}") from exc
    try:
        return CoordinateSpace(kind, width, height)
    except ValueError as exc:
        raise MalformedRequestError(str(exc)) from exc


def parse_objects(data: Mapping[str, Any], key: str) -> list[tuple[str, Box]]:
    """The optional ``[{"label", "bbox"}]`` array ``data[key]`` as (label, box) pairs."""
    return [
        (require_field(entry, "label", str), Box(*require_bbox(entry)))
        for entry in object_array(data, key)
    ]


def objects_to_list(pairs: Iterable[tuple[str, Box]]) -> list[dict[str, Any]]:
    """(label, box) pairs as the array ``parse_objects`` reads."""
    return [{"label": label, "bbox": list(box.coords())} for label, box in pairs]


def parse_sample(data: Mapping[str, Any]) -> SampleSpec:
    image_id = parse_id(data, "image_id")
    space = parse_space(data)
    try:
        gt = GroundTruthSet.from_pairs(parse_objects(data, "gt"), space)
    except ValueError as exc:
        raise MalformedRequestError(str(exc)) from exc
    return SampleSpec(image_id, space, gt, str(data.get("task", "object-detection")))


def _parse_logprobs(data: Mapping[str, Any], n_completions: int) -> tuple[LogProbRecord, ...]:
    entries = object_array(data, "logprobs")
    if len(entries) != n_completions:
        raise MalformedRequestError("logprobs must be an array with one entry per completion")
    try:
        return tuple(
            LogProbRecord.from_lists(*(require_field(e, k, list) for k in ("policy", "old", "ref")))
            for e in entries
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedRequestError(str(exc)) from exc


def parse_request(data: Mapping[str, Any]) -> ScoringRequest:
    """Decode a request object, raising ``MalformedRequestError`` on any fault."""
    if not isinstance(data, Mapping):
        raise MalformedRequestError("request must be a JSON object")
    version = data.get("v", WIRE_VERSION)
    if version != WIRE_VERSION:
        raise MalformedRequestError(f"unsupported wire version {version!r}")
    request_id = parse_id(data, "request_id")
    sample = parse_sample(require_field(data, "sample", Mapping))
    completions_raw = require_field(data, "completions", list)
    if not completions_raw or not all(isinstance(c, str) for c in completions_raw):
        raise MalformedRequestError("completions must be a non-empty array of strings")
    completions = tuple(completions_raw)
    progress = require_field(data, "progress", (int, float)) if "progress" in data else 0.0
    if not 0 <= progress <= 1:  # also rejects NaN, without converting an overlong int
        raise MalformedRequestError(f"progress must lie in [0, 1], got {progress}")

    fmt: CompletionFormat | None = None
    if "format" in data and data["format"] is not None:
        try:
            fmt = default_format(FormatKind(data["format"]))
        except ValueError as exc:
            raise MalformedRequestError(f"unknown format {data['format']!r}") from exc

    phase: PhaseConfig | None = None
    if data.get("phase") is not None:
        try:
            phase = phase_from_dict(data["phase"])
        except ValueError as exc:
            raise MalformedRequestError(str(exc)) from exc

    logprobs = None
    if data.get("logprobs") is not None:
        logprobs = _parse_logprobs(data, len(completions))

    matcher = data.get("matcher")
    if matcher is not None and not isinstance(matcher, str):
        raise MalformedRequestError("matcher must be a string")

    want_advantages = data.get("advantages", True)
    if not isinstance(want_advantages, bool):
        raise MalformedRequestError("advantages must be a boolean")

    return ScoringRequest(
        request_id=request_id,
        sample=sample,
        completions=completions,
        logprobs=logprobs,
        progress=float(progress),
        format=fmt,
        matcher=matcher,
        phase=phase,
        want_advantages=want_advantages,
    )


def request_to_dict(req: ScoringRequest) -> dict[str, Any]:
    data: dict[str, Any] = {
        "v": WIRE_VERSION,
        "request_id": req.request_id,
        "sample": {
            "image_id": req.sample.image_id,
            "width": req.sample.space.width,
            "height": req.sample.space.height,
            "coord_space": req.sample.space.kind.value,
            "task": req.sample.task,
            "gt": objects_to_list((inst.label, inst.box) for inst in req.sample.gt.instances),
        },
        "completions": list(req.completions),
        "progress": req.progress,
        "advantages": req.want_advantages,
    }
    if req.format is not None:
        data["format"] = req.format.kind.value
    if req.matcher is not None:
        data["matcher"] = req.matcher
    if req.phase is not None:
        data["phase"] = phase_to_dict(req.phase)
    if req.logprobs is not None:
        data["logprobs"] = [
            {"policy": list(r.policy), "old": list(r.old), "ref": list(r.ref)}
            for r in req.logprobs
        ]
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
    return RewardBreakdown(
        dual_format=float(data["dual_format"]),
        recall=float(data["recall"]),
        precision=float(data["precision"]),
        total=float(data["total"]),
        m_predictions=int(data["m_predictions"]),
        n_gt=int(data["n_gt"]),
        n_valid=int(data["n_valid"]),
    )


def parse_response(data: Mapping[str, Any]) -> ScoringResponse:
    """Decode a success response (the trainer-side counterpart of emit)."""
    if data.get("v", WIRE_VERSION) != WIRE_VERSION:
        raise MalformedRequestError(f"unsupported wire version {data.get('v')!r}")
    if not data.get("ok", False):
        raise MalformedRequestError("cannot decode an error response as a scoring response")
    thresholds = data["thresholds"]
    advantages = data.get("advantages")
    kl_values = data.get("kl")
    return ScoringResponse(
        request_id=str(data["request_id"]),
        rewards=tuple(breakdown_from_dict(b) for b in data["rewards"]),
        advantages=None if advantages is None else tuple(float(a) for a in advantages),
        objective=None if data.get("objective") is None else float(data["objective"]),
        kl_values=None if kl_values is None else tuple(float(k) for k in kl_values),
        thresholds=ThresholdTriple(
            float(thresholds["xi0"]), float(thresholds["xi1"]), float(thresholds["xi2"])
        ),
        phase_name=str(thresholds["phase"]),
        diagnostics=tuple(data.get("diagnostics", ())),
    )


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
