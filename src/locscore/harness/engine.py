"""Group scoring: the one request pipeline, ``score_requests``, behind the service and batch paths.

Requests are checked one at a time, and the groups of up to ``BLOCK_GROUPS``
checked requests go to the group kernel in one call, so its fixed array cost
is paid once per block; the outcomes are those of scoring one at a time.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import replace
from typing import Any

from ..config import DEFAULT_CONFIG, EngineConfig
from ..errors import EngineError, FieldError, MalformedRequestError
from ..fields import read_id
from ..grpo import group_advantages, grpo_objective_detailed
from ..rewards import Group, RewardBreakdown, phase_thresholds, score_groups
from ..rewards import score_completion  # looked up by perfbench/tracing.py
from .wire import ScoringRequest, ScoringResponse, error_to_dict, parse_request, response_to_dict

log = logging.getLogger(__name__)

# most groups the kernel scores in one call; the kernel itself bounds the
# size of the matrices it builds at once (rewards.BLOCK_CELLS)
BLOCK_GROUPS = 64

Outcome = ScoringResponse | tuple[str, str]  # a response, or an error's kind and detail


class DecodeError(ValueError):
    """A request line that is not JSON; given to ``score_requests``, it stands for that line."""


def decode_line(line: str) -> Any:
    """Decode one request line; a fault raises ``DecodeError`` holding its detail."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise DecodeError(f"{exc.msg} at position {exc.pos}") from None
    except RecursionError:
        raise DecodeError("nesting too deep") from None
    except ValueError:  # an integer literal over the interpreter's digit limit
        raise DecodeError("number too long") from None


def decoded(line: str) -> Any:
    """One line's input to ``score_requests``: its object, or the ``DecodeError`` it raised."""
    try:
        return decode_line(line)
    except DecodeError as exc:
        return exc


def error_outcome(exc: Exception) -> tuple[str, str]:
    """The one exception table: a fault's error kind and detail."""
    if isinstance(exc, DecodeError):
        return "parse-error", str(exc)
    if isinstance(exc, MalformedRequestError):
        return "malformed-request", str(exc)
    if isinstance(exc, EngineError):
        return "scoring-error", str(exc)
    log.error("a request failed", exc_info=exc)  # a fault in the engine itself; the caller goes on
    return "internal-error", f"{type(exc).__name__}: {exc}"


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
    """The response to a request whose group the kernel scored: its advantages and objective.

    The phase is named by which of its two distinct triples ``request_group`` picked.
    """
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
        phase_name="advanced" if group.thresholds is (req.phase or config.phase).advanced else "beginner",
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


def score_requests(
    objects: Iterable[Any], config: EngineConfig
) -> Iterator[tuple[ScoringRequest | None, Outcome]]:
    """Each decoded request object's request (None if it did not parse) and outcome, in order.

    A ``DecodeError`` among ``objects`` stands for a line that did not decode.
    """
    pending: list[tuple[ScoringRequest | None, Outcome | None]] = []  # None: waiting in `checked`
    checked: list[Group] = []
    for data in objects:
        request = None
        try:
            if isinstance(data, DecodeError):
                raise data
            request = parse_request(data)
            checked.append(request_group(request, config))
        except Exception as exc:
            pending.append((request, error_outcome(exc)))
            continue
        pending.append((request, None))
        if len(checked) == BLOCK_GROUPS:
            yield from _scored_block(pending, checked, config)
            pending, checked = [], []
    yield from _scored_block(pending, checked, config)


def _scored_block(pending: list, checked: list[Group], config: EngineConfig) -> Iterator[tuple]:
    """``pending`` with every outcome, ``checked``'s groups scored in one kernel call; when that
    call raises, each group is scored alone instead, so that a fault lands on its own request."""
    try:
        scored = score_groups(checked, config.rules)
    except Exception:
        scored = [None] * len(checked)
    waiting = zip(checked, scored)
    for request, outcome in pending:
        if outcome is None:
            group, breakdowns = next(waiting)
            try:
                if breakdowns is None:
                    breakdowns = score_groups([group], config.rules)[0]
                outcome = group_response(request, config, group, breakdowns)
            except Exception as exc:
                outcome = error_outcome(exc)
        yield request, outcome


def handle_request_object(data: Any, config: EngineConfig | None = None) -> dict[str, Any]:
    """Request dict in, response dict out; faults become error responses."""
    _, outcome = next(score_requests([data], config or DEFAULT_CONFIG))
    if isinstance(outcome, ScoringResponse):
        return response_to_dict(outcome)
    try:  # the echo of a request whose id is itself bad is null
        request_id = read_id(data, "request_id") if isinstance(data, Mapping) else None
    except FieldError:
        request_id = None
    return error_to_dict(request_id, *outcome)


def handle_request_line(line: str, config: EngineConfig | None = None) -> dict[str, Any]:
    return handle_request_object(decoded(line), config)
