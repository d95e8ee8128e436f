"""Group scoring: the reward engine behind both the service and batch paths."""

from __future__ import annotations

import json
import logging
from collections.abc import Mapping
from dataclasses import replace
from typing import Any

from ..config import DEFAULT_CONFIG, EngineConfig
from ..errors import EngineError, FieldError, MalformedRequestError
from ..fields import read_id
from ..grpo import group_advantages, grpo_objective_detailed
from ..rewards import Group, RewardBreakdown, in_advanced_phase, phase_thresholds, score_groups
from ..rewards import score_completion  # looked up by perfbench/tracing.py
from .wire import (
    ScoringRequest,
    ScoringResponse,
    error_to_dict,
    parse_request,
    response_to_dict,
)

log = logging.getLogger(__name__)


def decode_line(line: str) -> Any:
    """Decode one request line; a fault raises ``ValueError`` holding its detail."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{exc.msg} at position {exc.pos}") from None
    except RecursionError:
        raise ValueError("nesting too deep") from None
    except ValueError:  # an integer literal over the interpreter's digit limit
        raise ValueError("number too long") from None


def request_group(req: ScoringRequest, config: EngineConfig) -> Group:
    """The per-request checks, then the request as the group kernel's input.

    Raises ``MalformedRequestError`` for requests that violate the contract.
    """
    if req.want_advantages and len(req.completions) < 2:
        raise MalformedRequestError(
            "advantage computation needs at least two completions per group"
        )
    if req.logprobs is not None and len(req.logprobs) != len(req.completions):
        raise MalformedRequestError("one log-prob record per completion is required")

    fmt = req.format or config.completion_format
    return Group(
        req.completions,
        fmt,
        replace(req.sample.gt.space, kind=fmt.space_kind),
        req.sample.gt,
        req.matcher or config.matcher,
        phase_thresholds(req.phase or config.phase, req.progress),
    )


def group_response(
    req: ScoringRequest,
    config: EngineConfig,
    group: Group,
    breakdowns: tuple[RewardBreakdown, ...],
) -> ScoringResponse:
    """The response to a request whose group the kernel scored: its advantages and objective."""
    totals = [b.total for b in breakdowns]
    diagnostics: list[str] = []
    advantages = None
    objective = None
    kl_values = None
    if req.want_advantages:
        advantages = tuple(group_advantages(totals, config.epsilon))
        if req.logprobs is not None:
            detail = grpo_objective_detailed(
                req.logprobs, advantages, config.beta, config.kl_mode, config.clip_range
            )
            objective = detail.objective
            kl_values = detail.kl_values
            if detail.clamped_ratios:
                diagnostics.append(
                    f"{detail.clamped_ratios} sequence log-ratio(s) clamped to +/-50"
                )

    return ScoringResponse(
        request_id=req.request_id,
        rewards=breakdowns,
        advantages=advantages,
        objective=objective,
        kl_values=kl_values,
        thresholds=group.thresholds,
        phase_name="advanced" if in_advanced_phase(req.phase or config.phase, req.progress) else "beginner",
        diagnostics=tuple(diagnostics),
    )


def score_group(req: ScoringRequest, config: EngineConfig | None = None) -> ScoringResponse:
    """Score every completion of one group and derive group statistics.

    Stateless: the response depends only on the request and configuration.
    Raises ``MalformedRequestError`` for requests that violate the contract.
    """
    config = config or DEFAULT_CONFIG
    group = request_group(req, config)
    return group_response(req, config, group, score_groups([group], config.rules)[0])


def handle_request_object(data: Any, config: EngineConfig | None = None) -> dict[str, Any]:
    """Request dict in, response dict out; faults become error responses."""
    try:  # the echo of a request whose id is itself bad is null
        request_id = read_id(data, "request_id") if isinstance(data, Mapping) else None
    except FieldError:
        request_id = None
    try:
        req = parse_request(data)
        return response_to_dict(score_group(req, config))
    except MalformedRequestError as exc:
        return error_to_dict(request_id, "malformed-request", str(exc))
    except EngineError as exc:
        return error_to_dict(request_id, "scoring-error", str(exc))
    except Exception as exc:  # a fault in the engine itself; the service keeps going
        log.exception("request %s failed", request_id)
        return error_to_dict(request_id, "internal-error", f"{type(exc).__name__}: {exc}")


def handle_request_line(line: str, config: EngineConfig | None = None) -> dict[str, Any]:
    try:
        data = decode_line(line)
    except ValueError as exc:
        return error_to_dict(None, "parse-error", str(exc))
    return handle_request_object(data, config)
